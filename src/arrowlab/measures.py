"""Exact-rational probability distributions over profile space.

A distribution stores one non-negative Python ``int`` numerator per profile
over a single common ``int`` denominator, in lowest terms, so every kernel
sums integers and divides once; Python ints cannot overflow and no float
enters any computation.  ``fractions.Fraction`` appears only at the boundary:
the public constructor, ``weights``, ``weight_of`` and the file format.
Besides the uniform (impartial-culture) distribution, the module provides the
near-unanimous "star" family, which loads one unanimous profile and spreads
the rest evenly, and the permutation-averaged lift that turns a distribution
for n-1 voters into an n-voter distribution that is invariant under every
relabeling of the voters.  The lift and the invariance test work on packed
integer lanes (one fixed-width record per profile), never on tuples of ints.
"""

from __future__ import annotations

import itertools
import json
import operator
import struct
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from pathlib import Path

from .orders import (
    LinearOrder,
    Profile,
    check_scale,
    encode_digits,
    order_index,
    profile_index,
    read_record,
    seat_gather,
)

DISTRIBUTION_FORMAT_VERSION = 1

# Lanes: a table of unsigned entries packed into records of ``width`` bytes in
# the machine's byte order, which ``struct`` and ``memoryview.cast`` share.  One
# ``int.from_bytes`` turns a whole table into one integer, so one big-int add
# sums two tables entry by entry as long as no lane carries into the next.
# Lanes wider than 8 bytes are several 8-byte words.
_ORDER = sys.byteorder
_LANE_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _lane_width(bound: int) -> int:
    """Bytes per lane for entries up to ``bound``: 1, 2, 4 or 8 where that
    suffices, else the fewest 8-byte words that hold it."""
    width = max(1, -(-bound.bit_length() // 8))
    return next((w for w in (1, 2, 4) if w >= width), -(-width // 8) * 8)


def _pack(entries: tuple[int, ...], width: int) -> bytes:
    if width <= 8:
        return struct.pack(f"{len(entries)}{_LANE_CODES[width]}", *entries)
    return b"".join(map(int.to_bytes, entries, itertools.repeat(width), itertools.repeat(_ORDER)))


def _unpack(total: int, width: int, size: int):
    """The ``size`` lanes of ``total`` as a sequence of ints: a memoryview over
    lanes of up to 8 bytes, a tuple summed word by word over wider ones."""
    view = memoryview(total.to_bytes(size * width, _ORDER)).cast(_LANE_CODES[min(width, 8)])
    words = width // 8
    if words < 2:
        return view
    slots = range(words) if _ORDER == "little" else range(words - 1, -1, -1)
    entries = view[slots[0] :: words]
    for i in range(1, words):  # word i, counted from the least significant
        high = map(operator.lshift, view[slots[i] :: words], itertools.repeat(64 * i))
        entries = map(operator.add, entries, high)
    return tuple(entries)


def format_rational(q: Fraction) -> str:
    """Lowest-terms ``p/q`` string; denominators are always written out."""
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """A rational written as ``p/q``, an integer or a decimal.  Exponent
    notation is refused before ``Fraction`` sees it: a ten-character
    ``"1e10000000"`` would take seconds to expand."""
    if "e" in text.lower():
        raise ValueError(f"rational {text!r} uses exponent notation; write it as p/q")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"rational {text!r} has a zero denominator") from None


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("float weights are not allowed; pass Fraction, int, or 'p/q' string")
    return Fraction(value)


@dataclass(frozen=True, init=False)
class Distribution:
    """Exact weights over all (m!)^n profiles: profile k has weight
    ``numerators[k] / denominator``.

    ``Distribution(n, m, weights)`` takes exact rationals (``Fraction``,
    ``int`` or ``'p/q'`` strings, never floats); ``from_numerators`` takes the
    integer form.  Both reduce to lowest terms, so equality is value equality.
    """

    n: int
    m: int
    numerators: tuple[int, ...]
    denominator: int
    full_support: bool = field(compare=False, repr=False)

    def __init__(self, n: int, m: int, weights):
        fractions = [_as_fraction(w) for w in weights]
        denominator = lcm(*(w.denominator for w in fractions))
        numerators = tuple(w.numerator * (denominator // w.denominator) for w in fractions)
        self._store(n, m, numerators, denominator)

    @classmethod
    def from_numerators(cls, n: int, m: int, numerators, denominator: int) -> "Distribution":
        """The distribution with weights ``numerators[k] / denominator``."""
        numerators = tuple(numerators)
        if not {type(denominator), *map(type, numerators)} <= {int}:
            raise TypeError("numerators and denominator must be ints")
        dist = cls.__new__(cls)
        dist._store(n, m, numerators, denominator)
        return dist

    @classmethod
    def _from_lanes(cls, n: int, m: int, total: int, width: int, denominator: int):
        """The distribution whose numerators are the ``width``-byte lanes of
        ``total`` over ``denominator``.  Lanes are unsigned ints by
        construction, so they skip the type pass of ``from_numerators``; the
        other checks run on the lane view.  Lanes of up to 8 bytes reduce to
        lowest terms by one exact big-int division and a fresh cast; wider
        lanes, already read into a tuple, divide entry by entry."""
        size = factorial(m) ** n
        divided = None
        if width <= 8:
            divided = lambda common: _unpack(total // common, width, size)  # noqa: E731
        dist = cls.__new__(cls)
        dist._store(n, m, _unpack(total, width, size), denominator, divided)
        return dist

    def _store(self, n: int, m: int, entries, denominator: int, divided=None) -> None:
        """Check ``entries`` over ``denominator`` and keep them in lowest terms.

        ``entries`` is a sequence of ints; ``divided(g)``, when given,
        returns them divided by their common factor ``g``.
        """
        check_scale(n, m)
        size = factorial(m) ** n
        if len(entries) != size:
            raise ValueError(f"{len(entries)} weights, expected {size}")
        if denominator < 1:
            raise ValueError(f"denominator must be positive, got {denominator}")
        distinct = set(entries)
        lowest = min(distinct)
        if lowest < 0:
            raise ValueError("weights must be nonnegative")
        total = sum(entries)
        if total != denominator:
            raise ValueError(
                f"weights sum to {Fraction(total, denominator)}, expected exactly 1"
            )
        common = gcd(denominator, *distinct)
        if common > 1:
            if divided:
                entries = divided(common)
            else:
                entries = map(operator.floordiv, entries, itertools.repeat(common))
            denominator //= common
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "numerators", tuple(entries))
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "full_support", lowest > 0)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """Every profile's weight as a ``Fraction``, built on each access."""
        return tuple(Fraction(k, self.denominator) for k in self.numerators)

    @cached_property
    def permutation_invariant(self) -> bool:
        """True iff every voter relabeling leaves all weights unchanged.

        Adjacent seat swaps generate every relabeling, so checking those n-1
        suffices.  Computed on first use, then kept on the instance.
        """
        nums = self.numerators
        width = _lane_width(max(nums))
        if width > 8:  # wide weights: compare their ranks among the distinct weights
            rank = {w: r for r, w in enumerate(set(nums))}
            nums, width = tuple(map(rank.__getitem__, nums)), _lane_width(len(rank) - 1)
        lanes = _pack(nums, width)
        for s in range(self.n - 1):
            swap = list(range(self.n))
            swap[s], swap[s + 1] = s + 1, s
            if seat_gather(lanes, self.n, self.m, tuple(swap), width) != lanes:
                return False
        return True


def weight_of(dist: Distribution, profile: Profile) -> Fraction:
    if profile.n != dist.n or profile.m != dist.m:
        raise ValueError(
            f"profile ({profile.n}, {profile.m}) incompatible with distribution ({dist.n}, {dist.m})"
        )
    return Fraction(dist.numerators[profile_index(profile)], dist.denominator)


def uniform_distribution(n: int, m: int) -> Distribution:
    """Every profile equally likely (the impartial-culture distribution)."""
    check_scale(n, m)
    size = factorial(m) ** n
    return Distribution.from_numerators(n, m, (1,) * size, size)


def star_distribution(k: int, m: int, epsilon: Fraction, y: LinearOrder) -> Distribution:
    """Weight 1 - epsilon on the profile where all k voters cast ``y``, the
    remaining epsilon spread evenly over every other profile.

    Requires at least three candidates and ``0 < epsilon < 1 - 2/m!``; the
    bound is strict at both ends.
    """
    if m < 3:
        raise ValueError(f"star distribution needs at least three candidates, got m={m}")
    epsilon = _as_fraction(epsilon)
    limit = 1 - Fraction(2, factorial(m))
    if not 0 < epsilon < limit:
        raise ValueError(f"epsilon must lie strictly between 0 and {limit}, got {epsilon}")
    if y.m != m:
        raise ValueError(f"order over {y.m} candidates does not match m={m}")
    check_scale(k, m)
    size = factorial(m) ** k
    # Over the denominator q * (size - 1): the spread is p, the top (q - p) * (size - 1).
    p, q = epsilon.numerator, epsilon.denominator
    numerators = [p] * size
    numerators[encode_digits((order_index(y),) * k, m)] = (q - p) * (size - 1)
    return Distribution.from_numerators(k, m, numerators, q * (size - 1))


def lift_distribution(dist: Distribution, i: int) -> Distribution:
    """Average a distribution for n-1 voters over all n! voter relabelings,
    dropping seat ``i`` after each relabeling, and normalize by n! * m!.

    The result is a full n-voter distribution: it sums to exactly 1, is
    invariant under every voter relabeling, and keeps full support whenever
    the input has it.  (The normalizing constant already accounts for the
    relabeling sum, so the weights themselves total 1.)

    Summing over all relabelings removes each seat j of a profile x once per
    order of the other n-1 ballots, so the sum equals
    ``sum_j sym(x without seat j)`` with ``sym`` the sum of the input over
    the (n-1)! seat orders; the dropped seat ``i`` does not matter.  ``sym``
    is built once on the small table, then gathered once per dropped seat;
    both sums add whole tables of packed lanes as integers.
    """
    n = dist.n + 1
    m = dist.m
    if not 0 <= i < n:
        raise ValueError(f"seat {i} out of range for n={n}")
    check_scale(n, m)
    # A lifted entry sums n gathers of ``sym``, whose entries each sum (n-1)!
    # input numerators, so it is at most n! * max(numerators): lanes that hold
    # this bound never carry, and every sum below is one big-int add per table.
    width = _lane_width(factorial(n) * max(dist.numerators))
    small = _pack(dist.numerators, width)
    sym = sum(
        int.from_bytes(seat_gather(small, n - 1, m, seats, width), _ORDER)
        for seats in itertools.permutations(range(n - 1))
    )
    sym_lanes = sym.to_bytes(len(small), _ORDER)
    # Dropping seat j: source seat s reads seat s before j and seat s + 1 after.
    total = sum(
        int.from_bytes(
            seat_gather(sym_lanes, n, m, tuple(s + (s >= j) for s in range(n - 1)), width),
            _ORDER,
        )
        for j in range(n)
    )
    denominator = dist.denominator * factorial(n) * factorial(m)
    return Distribution._from_lanes(n, m, total, width, denominator)


def is_permutation_invariant(dist: Distribution) -> bool:
    """True iff every voter relabeling leaves all weights unchanged."""
    return dist.permutation_invariant


def has_full_support(dist: Distribution) -> bool:
    return dist.full_support


def save_distribution(dist: Distribution, path: str | Path) -> None:
    record = {
        "format_version": DISTRIBUTION_FORMAT_VERSION,
        "n": dist.n,
        "m": dist.m,
        "weights": [format_rational(w) for w in dist.weights],
    }
    Path(path).write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")


def load_distribution(path: str | Path) -> Distribution:
    record = read_record(path, "distribution", DISTRIBUTION_FORMAT_VERSION)
    n, m, weights = (record.get(key) for key in ("n", "m", "weights"))
    for key, value in (("n", n), ("m", m)):
        if type(value) is not int:
            raise ValueError(f"distribution field {key!r} is missing or not an integer")
    if not isinstance(weights, list) or not {*map(type, weights)} <= {str}:
        raise ValueError("distribution field 'weights' is missing or not a list of 'p/q' strings")
    return Distribution(n, m, (parse_rational(w) for w in weights))
