"""Exact-rational probability distributions over profile space.

A distribution holds one non-negative Python ``int`` numerator per profile
over a single common ``int`` denominator, in lowest terms, so every kernel
sums integers and divides once; Python ints cannot overflow and no float
enters any computation.  ``fractions.Fraction`` appears only at the boundary:
the public constructor, ``weights`` and the file format.
Besides the uniform (impartial-culture) distribution, the module provides the
near-unanimous "star" family, which loads one unanimous profile and spreads
the rest evenly, and the permutation-averaged lift that turns a distribution
for n-1 voters into an n-voter distribution that is invariant under every
relabeling of the voters.

Every distribution is stored as levels: the distinct numerators, and a level
index naming each profile's level, one byte per profile up to 256 levels.
Uniform and star write their levels in closed form, and the lift reads them
off packed integer lanes in the format ``orders`` owns (one fixed-width record
per profile); none of them builds a tuple of ints per profile.  Force and rule
distance read the level index a block of profiles at a time, with one popcount
per level up to ``MAX_LEVELS`` levels.  The invariance test gathers the level index.
"""

from __future__ import annotations

import io
import itertools
import json
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from pathlib import Path

from .orders import (
    Frozen,
    LinearOrder,
    check_scale,
    distinct_bytes,
    encode_digits,
    lane_values,
    lane_width,
    order_index,
    pack_lanes,
    profile_blocks,
    read_record,
    seat_gather,
    sum_lanes,
)

DISTRIBUTION_FORMAT_VERSION = 1

# Up to this many levels, force and distance cost a mask and one popcount per
# level and voter in each block: about 1.5-2 ms per level for a (4,4) force
# profile, against about 28 ms for the Python-level sum over the agreeing
# profiles past it.  A mask covers one block, so memory no longer bounds the
# count.  Up to this many levels the lift also sums level codes.
MAX_LEVELS = 10


def _level_form(entries, decode=None) -> tuple[tuple[int, ...], bytes]:
    """The ascending distinct numerators of one entry per profile, each a
    numerator or, when given, what ``decode`` maps to one, and the level
    index of the entries.  A ``bytes`` table of entries is read and indexed
    in C passes."""
    one_byte = isinstance(entries, bytes)
    keys = distinct_bytes(entries) if one_byte else set(entries)
    numerator_of = {k: decode(k) for k in keys} if decode else dict(zip(keys, keys))
    levels = sorted(set(numerator_of.values()))
    position = dict(zip(levels, range(len(levels))))
    rank = {k: position[v] for k, v in numerator_of.items()}
    if one_byte:
        return tuple(levels), entries.translate(bytes(map(rank.get, range(256), bytes(256))))
    return tuple(levels), pack_lanes(tuple(map(rank.__getitem__, entries)), lane_width(len(levels) - 1))


def _ranks(levels: tuple[int, ...], index: bytes):
    """The level index as ints, read by ``orders.lane_values``."""
    return lane_values(index, lane_width(len(levels) - 1))


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


class Distribution(Frozen):
    """Exact weights over all (m!)^n profiles: profile k has weight
    ``numerators[k] / denominator``.

    ``Distribution(n, m, weights)`` takes exact rationals (``Fraction``,
    ``int`` or ``'p/q'`` strings, never floats); ``from_numerators`` takes the
    integer form.  Both reduce to lowest terms, so equality is value equality.

    The weights are kept as levels: ``levels`` lists the distinct numerators
    in ascending order, and record k of ``level_index`` is the position of
    profile k's numerator in it, one byte up to 256 levels, else the
    narrowest lane that holds every position.  ``numerators`` is built from
    them on first access, then kept on the instance.
    """

    _fields = ("n", "m", "denominator")  # the repr; equality reads ``_key``

    def __init__(self, n: int, m: int, weights):
        fractions = [_as_fraction(w) for w in weights]
        denominator = lcm(*(w.denominator for w in fractions))
        numerators = tuple(w.numerator * (denominator // w.denominator) for w in fractions)
        self._store(n, m, denominator, *_level_form(numerators))

    @classmethod
    def from_numerators(cls, n: int, m: int, numerators, denominator: int) -> "Distribution":
        """The distribution with weights ``numerators[k] / denominator``."""
        numerators = tuple(numerators)
        if not {type(denominator), *map(type, numerators)} <= {int}:
            raise TypeError("numerators and denominator must be ints")
        return cls._from_levels(n, m, denominator, *_level_form(numerators))

    @classmethod
    def _from_levels(cls, n: int, m: int, denominator: int, levels, index: bytes):
        """The distribution whose profile k has numerator ``levels[r]``, r
        the k-th record of ``index``, the ``levels`` ascending."""
        dist = cls.__new__(cls)
        dist._store(n, m, denominator, levels, index)
        return dist

    def _store(self, n, m, denominator, levels, index) -> None:
        """Check the weights over ``denominator``, given their ascending
        distinct numerators ``levels`` and the level ``index`` of every
        profile, and keep them in lowest terms."""
        check_scale(n, m)
        size = factorial(m) ** n
        width = lane_width(len(levels) - 1)
        if len(index) != size * width:
            raise ValueError(f"{len(index) // width} weights, expected {size}")
        if denominator < 1:
            raise ValueError(f"denominator must be positive, got {denominator}")
        if levels[0] < 0:
            raise ValueError("weights must be nonnegative")
        if width == 1:  # one C count per level, no numerator per profile
            total = sum(v * index.count(r) for r, v in enumerate(levels))
        else:
            total = sum(map(levels.__getitem__, _ranks(levels, index)))
        if total != denominator:
            raise ValueError(
                f"weights sum to {Fraction(total, denominator)}, expected exactly 1"
            )
        common = gcd(denominator, *levels)
        if common > 1:
            levels = tuple(v // common for v in levels)
            denominator //= common
        self._set(n=n, m=m, denominator=denominator, full_support=levels[0] > 0)
        self._set(levels=levels, level_index=index)

    def _key(self) -> tuple:
        return (self.n, self.m, self.denominator, self.levels, self.level_index)

    @cached_property
    def numerators(self) -> tuple[int, ...]:
        """Every profile's numerator over ``denominator``, in index order,
        built on first access, then kept on the instance."""
        return tuple(map(self.levels.__getitem__, _ranks(self.levels, self.level_index)))

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """Every profile's weight as a ``Fraction``, built on each access."""
        return tuple(Fraction(k, self.denominator) for k in self.numerators)

    def agreement_mass(self, table: bytes, other: bytes | None = None) -> list[int]:
        """``denominator`` times the weight of the profiles where the one-byte
        rule table ``table`` agrees with ``other``, as a one-item list (one
        minus the rules' distance), or else with each voter's ballot (the
        forces), reading each block (``orders.profile_blocks``) of ``table``
        and ``level_index`` once.  Entries are below 128 (5! = 120), so 0x80
        minus each byte of two blocks' XOR as ints borrows from no other byte
        and keeps bit 7 exactly where they agree.  Up to ``MAX_LEVELS`` levels,
        a mask per level above the lowest keeps those bits at its profiles,
        so a level costs one popcount; past that, the numerators are summed."""
        size, blocks, columns = profile_blocks(self.n, self.m)
        (low, *high), width = self.levels, lane_width(len(self.levels) - 1)
        ones = int.from_bytes(b"\1" * size, "little")
        flag, few = 0x80 * ones, len(high) < MAX_LEVELS
        picks = [r * ones for r in range(1, len(high) + 1)] if few else []
        seats = [int.from_bytes(c, "little") for c in columns] if other is None else []
        totals = [0] * (self.n if other is None else 1)
        for start, lead in blocks:
            cut = slice(start, start + size)
            f = int.from_bytes(table[cut], "little")
            index = self.level_index[start * width : (start + size) * width]
            level = int.from_bytes(index, "little") if picks else 0
            masks = [(flag - (level ^ p)) & flag for p in picks]
            against = [d * ones for d in lead] + seats if other is None else [int.from_bytes(other[cut], "little")]
            for i, g in enumerate(against):
                agree = (flag - (f ^ g)) & flag
                if few:  # the lowest level's profiles are those no mask keeps
                    rest = sum((v - low) * (agree & k).bit_count() for v, k in zip(high, masks))
                    totals[i] += low * agree.bit_count() + rest
                else:
                    agreeing = itertools.compress(_ranks(self.levels, index), agree.to_bytes(size, "little"))
                    totals[i] += sum(map(self.levels.__getitem__, agreeing))
        return totals

    @cached_property
    def permutation_invariant(self) -> bool:
        """True iff every voter relabeling leaves all weights unchanged.

        Adjacent seat swaps generate every relabeling, so checking those n-1
        on the level index suffices.  Computed on first use, then kept on the
        instance.
        """
        index, width = self.level_index, lane_width(len(self.levels) - 1)
        for s in range(self.n - 1):
            swap = list(range(self.n))
            swap[s], swap[s + 1] = s + 1, s
            if seat_gather(index, self.n, self.m, tuple(swap), width) != index:
                return False
        return True


def uniform_distribution(n: int, m: int) -> Distribution:
    """Every profile equally likely (the impartial-culture distribution)."""
    check_scale(n, m)
    size = factorial(m) ** n
    return Distribution._from_levels(n, m, size, (1,), bytes(size))


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
    # The top is the higher level, since epsilon < 1 - 2/m! <= (size - 1)/size.
    p, q = epsilon.numerator, epsilon.denominator
    # The level index is written into the buffer that becomes its ``bytes``:
    # ``getvalue()`` hands that buffer over without a copy.
    index = io.BytesIO(bytes(size))
    index.seek(encode_digits((order_index(y),) * k, m))
    index.write(b"\1")
    levels = (p, (q - p) * (size - 1))
    return Distribution._from_levels(k, m, q * (size - 1), levels, index.getvalue())


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
    both sums add the gathers' packed lanes with ``orders.sum_lanes``.
    """
    n = dist.n + 1
    m = dist.m
    if not 0 <= i < n:
        raise ValueError(f"seat {i} out of range for n={n}")
    check_scale(n, m)
    # A lifted entry sums n! input entries (n gathers of ``sym``, whose
    # entries each sum (n-1)! of them).  Up to ``MAX_LEVELS`` levels lift as
    # codes: level 0 enters as 0 and level r > 0 as (n! + 1)**(r - 1), so a
    # lifted code, read in base n! + 1, counts the input entries at each
    # level above 0, and the other entries of the n! are at level 0.
    if len(dist.levels) > MAX_LEVELS:
        codes, decode = dist.levels, None
    else:
        radix, (low, *high) = factorial(n) + 1, dist.levels
        codes = (0,) + tuple(radix**r for r in range(len(high)))
        decode = lambda code: factorial(n) * low + sum(  # noqa: E731
            code // c % radix * (v - low) for c, v in zip(codes[1:], high)
        )
    # Lanes that hold n! times the largest code never carry, so every sum
    # below adds whole lanes as ints.
    width = lane_width(factorial(n) * codes[-1])
    small = pack_lanes(tuple(map(codes.__getitem__, _ranks(dist.levels, dist.level_index))), width)
    seatings = itertools.permutations(range(n - 1))
    sym = sum_lanes((seat_gather(small, n - 1, m, seats, width) for seats in seatings), width)
    # Dropping seat j: source seat s reads seat s before j and seat s + 1 after.
    # The last seat first: its gather, which leaves a seat unread, holds the
    # most while it runs, and it runs before the sum holds a buffer.
    dropped = (tuple(s + (s >= j) for s in range(n - 1)) for j in reversed(range(n)))
    lanes = sum_lanes((seat_gather(sym, n, m, seats, width) for seats in dropped), width)
    denominator = dist.denominator * factorial(n) * factorial(m)
    return Distribution._from_levels(n, m, denominator, *_level_form(lane_values(lanes, width), decode))


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
    record = read_record(Path(path).read_text(), "distribution", DISTRIBUTION_FORMAT_VERSION)
    n, m, weights = (record.get(key) for key in ("n", "m", "weights"))
    for key, value in (("n", n), ("m", m)):
        if type(value) is not int:
            raise ValueError(f"distribution field {key!r} is missing or not an integer")
    if not isinstance(weights, list) or not {*map(type, weights)} <= {str}:
        raise ValueError("distribution field 'weights' is missing or not a list of 'p/q' strings")
    return Distribution(n, m, (parse_rational(w) for w in weights))
