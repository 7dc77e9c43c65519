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

Weights with few distinct numerators, every distribution the CLI builds
among them, are stored as levels: the distinct numerators, and one byte per
profile naming its level.  Uniform and star write their levels in closed
form, and the lift reads them off its packed integer lanes (one fixed-width
record per profile); none of them builds a tuple of ints per profile.  Force
and rule distance then take one popcount per level, and the invariance test
gathers the one-byte level index.
"""

from __future__ import annotations

import itertools
import json
import operator
import struct
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, gcd, lcm
from pathlib import Path

from .orders import (
    _LANE_CODES,
    _ORDER,
    Frozen,
    LinearOrder,
    _lane_width,
    check_scale,
    distinct_bytes,
    encode_digits,
    order_index,
    read_record,
    seat_gather,
)

DISTRIBUTION_FORMAT_VERSION = 1

# A distribution with at most this many distinct numerators keeps them as
# levels.  Force and distance then cost one popcount per level, about 0.3 ms
# at (4,4), against about 7 ms for one Python-level sum over every profile;
# but each level's mask holds a byte per profile, so at ten levels the masks
# take about as much memory as the tuple of numerators they replace.
MAX_LEVELS = 10


# Lanes and their helpers live in ``orders``, beside the signature codes.
def _pack(entries: tuple[int, ...], width: int) -> bytes:
    if width <= 8:
        return struct.pack(f"{len(entries)}{_LANE_CODES[width]}", *entries)
    return b"".join(map(int.to_bytes, entries, itertools.repeat(width), itertools.repeat(_ORDER)))


@lru_cache(maxsize=None)
def _byte_fill(byte: int, size: int) -> int:
    """The little-endian int of ``size`` bytes that each hold ``byte``."""
    return int.from_bytes(bytes((byte,)) * size, "little")


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

    Weights with at most ``MAX_LEVELS`` distinct numerators are kept as
    levels: ``levels`` lists the distinct numerators in ascending order, and
    byte k of ``level_index`` is the position of profile k's numerator in it.
    Then ``numerators`` is built from the levels on first access.  Other
    weights keep ``numerators`` itself, and ``levels`` and ``level_index``
    are ``None``.  Every constructor picks the form by the count of distinct
    numerators, so equal weights have equal forms.
    """

    _fields = ("n", "m", "denominator")  # the repr; equality reads ``_key``

    def __init__(self, n: int, m: int, weights):
        fractions = [_as_fraction(w) for w in weights]
        denominator = lcm(*(w.denominator for w in fractions))
        numerators = tuple(w.numerator * (denominator // w.denominator) for w in fractions)
        self._store_columns(n, m, (numerators,), denominator)

    @classmethod
    def from_numerators(cls, n: int, m: int, numerators, denominator: int) -> "Distribution":
        """The distribution with weights ``numerators[k] / denominator``."""
        numerators = tuple(numerators)
        if not {type(denominator), *map(type, numerators)} <= {int}:
            raise TypeError("numerators and denominator must be ints")
        dist = cls.__new__(cls)
        dist._store_columns(n, m, (numerators,), denominator)
        return dist

    @classmethod
    def _from_levels(cls, n: int, m: int, denominator: int, levels, index: bytes):
        """The distribution whose profile k has numerator
        ``levels[index[k]]``, the ``levels`` ascending."""
        dist = cls.__new__(cls)
        dist._store(n, m, denominator, levels, index=index)
        return dist

    @classmethod
    def _from_lanes(cls, n: int, m: int, total: int, width: int, denominator: int, decode=None):
        """The distribution whose numerators are the ``width``-byte lanes of
        ``total`` over ``denominator``, or ``decode`` of each lane when given.
        Lanes are unsigned ints by construction, so they skip the type pass
        of ``from_numerators``.  Lanes wider than 8 bytes are read as columns
        of 8-byte words, so few distinct lanes become levels without a big
        int per profile."""
        size = factorial(m) ** n
        view = total.to_bytes(size * width, _ORDER)
        if width > 1:
            view = memoryview(view).cast(_LANE_CODES[min(width, 8)])
        words = width // 8
        slots = range(words) if _ORDER == "little" else range(words - 1, -1, -1)
        columns = (view,) if words < 2 else tuple(view[s::words] for s in slots)
        dist = cls.__new__(cls)
        dist._store_columns(n, m, columns, denominator, decode)
        return dist

    def _store_columns(self, n: int, m: int, columns, denominator: int, decode=None) -> None:
        """Store the entries held in ``columns``: one sequence of ints per
        64-bit word, the least significant first, or the entries themselves
        as the one column.  Each entry is a numerator, or ``decode`` of one
        when given.  Few distinct numerators become levels."""
        entries, value = (lambda: columns[0]), decode
        if len(columns) > 1:
            entries = lambda: zip(*columns)  # noqa: E731
            join = lambda words: sum(w << 64 * i for i, w in enumerate(words))  # noqa: E731
            value = join if decode is None else lambda words: decode(join(words))
        one_byte = isinstance(columns[0], bytes)  # one-byte lanes: passes in C
        keys = distinct_bytes(columns[0]) if one_byte else set(entries())
        numerator_of = {k: value(k) for k in keys} if value else dict(zip(keys, keys))
        levels = sorted(set(numerator_of.values()))
        if len(levels) <= MAX_LEVELS:
            position = dict(zip(levels, range(len(levels))))
            rank = {k: position[v] for k, v in numerator_of.items()}
            if one_byte:
                index = columns[0].translate(bytes(map(rank.get, range(256), bytes(256))))
            else:
                index = bytes(map(rank.__getitem__, entries()))
            self._store(n, m, denominator, tuple(levels), index=index)
        else:
            numerators = tuple(map(value, entries())) if value else tuple(entries())
            self._store(n, m, denominator, tuple(levels), numerators=numerators)

    def _store(self, n, m, denominator, levels, index=None, numerators=None) -> None:
        """Check the weights over ``denominator``, given their ascending
        distinct numerators ``levels``, and keep them in lowest terms: as
        ``levels`` and the level ``index`` of every profile, or as the
        ``numerators`` tuple."""
        check_scale(n, m)
        size = factorial(m) ** n
        held = len(index if numerators is None else numerators)
        if held != size:
            raise ValueError(f"{held} weights, expected {size}")
        if denominator < 1:
            raise ValueError(f"denominator must be positive, got {denominator}")
        if levels[0] < 0:
            raise ValueError("weights must be nonnegative")
        if numerators is None:
            total = sum(v * index.count(r) for r, v in enumerate(levels))
        else:
            total = sum(numerators)
        if total != denominator:
            raise ValueError(
                f"weights sum to {Fraction(total, denominator)}, expected exactly 1"
            )
        common = gcd(denominator, *levels)
        if common > 1:
            levels = tuple(v // common for v in levels)
            denominator //= common
            if numerators is not None:
                numerators = tuple(map(operator.floordiv, numerators, itertools.repeat(common)))
        self._set(n=n, m=m, denominator=denominator, full_support=levels[0] > 0)
        if numerators is None:
            self._set(levels=levels, level_index=index)
        else:
            self._set(levels=None, level_index=None, numerators=numerators)

    def _key(self) -> tuple:
        return (self.n, self.m, self.denominator, self.levels, self.level_index or self.numerators)

    @cached_property
    def numerators(self) -> tuple[int, ...]:
        """Every profile's numerator over ``denominator``, in index order; in
        the level form built on first access, then kept on the instance."""
        return tuple(map(self.levels.__getitem__, self.level_index))

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """Every profile's weight as a ``Fraction``, built on each access."""
        return tuple(Fraction(k, self.denominator) for k in self.numerators)

    @cached_property
    def _level_masks(self) -> tuple[int, ...]:
        """Per level, the little-endian int with 0x80 in byte k for every
        profile k at that level, else 0."""
        flag = [bytes(0x80 * (b == r) for b in range(256)) for r in range(len(self.levels))]
        return tuple(int.from_bytes(self.level_index.translate(t), "little") for t in flag)

    def agreement_mass(self, f: int, g: bytes) -> int:
        """``denominator`` times the weight of the profiles where the one-byte
        tables ``f``, given as its little-endian int, and ``g`` hold the same
        entry: a voter's force when ``g`` is the voter's ballot column, one
        minus the distance when both are rule tables.  A caller comparing one
        table with many converts it once.

        Entries are below 128 (``orders.BYTE_MAX_CANDIDATES`` is 5 and
        5! = 120), so adding 0x7f to each byte of the tables' XOR as ints
        carries into no other byte and sets bit 7 exactly where they differ.
        A level's mask keeps those bits at its profiles, so each level costs
        one popcount; many-level weights sum their numerators instead."""
        size = len(g)
        flags = (f ^ int.from_bytes(g, "little")) + _byte_fill(0x7F, size)
        if self.levels is None:
            differ = (flags & _byte_fill(0x80, size)).to_bytes(size, "little")
            return self.denominator - sum(itertools.compress(self.numerators, differ))
        masks = self._level_masks
        return self.denominator - sum(v * (flags & k).bit_count() for v, k in zip(self.levels, masks))

    @cached_property
    def permutation_invariant(self) -> bool:
        """True iff every voter relabeling leaves all weights unchanged.

        Adjacent seat swaps generate every relabeling, so checking those n-1
        suffices: on the one-byte level index, or on the ranks of many-level
        weights among their distinct values.  Computed on first use, then
        kept on the instance.
        """
        lanes, width = self.level_index, 1
        if self.levels is None:
            rank = {w: r for r, w in enumerate(set(self.numerators))}
            width = _lane_width(len(rank) - 1)
            lanes = _pack(tuple(map(rank.__getitem__, self.numerators)), width)
        for s in range(self.n - 1):
            swap = list(range(self.n))
            swap[s], swap[s + 1] = s + 1, s
            if seat_gather(lanes, self.n, self.m, tuple(swap), width) != lanes:
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
    index = bytearray(size)
    index[encode_digits((order_index(y),) * k, m)] = 1
    levels = (p, (q - p) * (size - 1))
    return Distribution._from_levels(k, m, q * (size - 1), levels, bytes(index))


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
    # A lifted entry sums n! input entries (n gathers of ``sym``, whose
    # entries each sum (n-1)! of them).  Few levels lift as codes: level 0
    # enters as 0 and level r > 0 as (n! + 1)**(r - 1), so a lifted code,
    # read in base n! + 1, counts the input entries at each level above 0,
    # and the other entries of the n! are at level 0.
    if dist.levels is None:
        entries, decode = dist.numerators, None
    else:
        radix, (low, *high) = factorial(n) + 1, dist.levels
        codes = (0,) + tuple(radix**r for r in range(len(high)))
        entries = tuple(map(codes.__getitem__, dist.level_index))
        decode = lambda code: factorial(n) * low + sum(  # noqa: E731
            code // c % radix * (v - low) for c, v in zip(codes[1:], high)
        )
    # Lanes that hold n! * max(entries) never carry, and every sum below is
    # one big-int add per table.
    width = _lane_width(factorial(n) * max(entries))
    small = _pack(entries, width)
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
    return Distribution._from_lanes(n, m, total, width, denominator, decode)


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
