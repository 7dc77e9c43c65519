"""Candidates, strict rankings, ballots, and the index arithmetic behind every lookup table.

Voters and candidates are 0-indexed throughout.  A ranking lists candidate
indices from most preferred to least preferred; its canonical index is its
lexicographic rank among all rankings of the same width.  A profile of n
ballots maps to the base-m! integer whose digit for voter 0 is most
significant.  These two conventions are normative for every file format in
this package.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import sys
from functools import lru_cache
from math import factorial
from operator import attrgetter
from typing import Callable

MAX_VOTERS = 4
MAX_CANDIDATES = 4
SCALE_OVERRIDE_ENV = "ARROWLAB_SCALE_OVERRIDE"
# Tables hold one byte per entry: 5! = 120 rankings fit, 6! = 720 do not.
# A pair signature doubled plus one output bit must fit too: 2 * (2**7 - 1) + 1.
BYTE_MAX_CANDIDATES = 5
BYTE_MAX_VOTERS = 7

# Lanes: unsigned entries packed into ``width``-byte records in the machine's
# byte order, which ``struct`` and ``memoryview.cast`` share.  A whole table is
# one ``int.from_bytes`` integer, so one big-int add sums two tables entry by
# entry while no lane carries.  Lanes wider than 8 bytes are 8-byte words.
_ORDER = sys.byteorder
_LANE_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_ALL_BYTES = bytes(range(256))
# Bytes of result that a gather joins into one copy, so that the pieces and
# the joined copy stay small next to a table.
_RUN_BYTES = 1 << 14
_FORCE_BLOCK = 1 << 14  # profiles per block of ``profile_blocks``; read at each call


def _lane_width(bound: int) -> int:
    """Bytes per lane for entries up to ``bound``: 1, 2, 4 or 8 where that
    suffices, else the fewest 8-byte words that hold it."""
    width = max(1, -(-bound.bit_length() // 8))
    return next((w for w in (1, 2, 4) if w >= width), -(-width // 8) * 8)


def check_scale(n: int, m: int) -> None:
    """Reject electorate sizes whose dense tables stop being desk-scale.

    Setting the environment variable named by ``SCALE_OVERRIDE_ENV`` to a
    non-empty value lifts the desk bound at the caller's own risk; the byte
    limit of the tables stays.
    """
    if n < 1:
        raise ValueError(f"need at least one voter, got n={n}")
    if m < 1:
        raise ValueError(f"need at least one candidate, got m={m}")
    if not os.environ.get(SCALE_OVERRIDE_ENV) and (n > MAX_VOTERS or m > MAX_CANDIDATES):
        raise ValueError(
            f"scale (n={n}, m={m}) exceeds desk bounds "
            f"(n <= {MAX_VOTERS}, m <= {MAX_CANDIDATES}); "
            f"set {SCALE_OVERRIDE_ENV}=1 to override"
        )
    if n > BYTE_MAX_VOTERS or m > BYTE_MAX_CANDIDATES:
        raise ValueError(
            f"scale (n={n}, m={m}) exceeds the one-byte table limit "
            f"(n <= {BYTE_MAX_VOTERS}, m <= {BYTE_MAX_CANDIDATES}), "
            f"which {SCALE_OVERRIDE_ENV} does not lift"
        )


def read_record(text: str, kind: str, version: int) -> dict:
    """The JSON object in the ``text`` of a ``kind`` file, checked for
    ``format_version``.

    Every malformed file raises ``ValueError``, nesting too deep for the
    parser included; the caller checks its own fields.
    """
    try:
        record = json.loads(text)
    except RecursionError:
        raise ValueError(f"{kind} file nests too deeply to parse") from None
    if not isinstance(record, dict):
        raise ValueError(f"{kind} file does not hold a JSON object")
    if record.get("format_version") != version:
        raise ValueError(f"unsupported {kind} format_version {record.get('format_version')!r}")
    return record


class Frozen:
    """Base of the immutable value types.  ``_fields`` names what equality,
    hashing and the ``Name(field=value, ...)`` repr read: instances of one
    class are equal when those fields are.  ``__init__`` stores the fields
    with ``_set``; any later assignment raises ``AttributeError``."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # ``_key(self)``, what equality and hashing compare, unless the class
        # defines its own: the fields and the class, a tuple read in one C call.
        cls._key = staticmethod(vars(cls).get("_key") or attrgetter(*cls._fields, "__class__"))

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class LinearOrder(Frozen):
    """A strict total ranking of candidates 0..m-1, most preferred first."""

    _fields = ("ranking",)

    def __init__(self, ranking: tuple[int, ...]):
        ranking = tuple(ranking)
        m = len(ranking)
        if m < 1:
            raise ValueError("ranking must contain at least one candidate")
        if sorted(ranking) != list(range(m)):
            raise ValueError(f"ranking {ranking!r} is not a permutation of 0..{m - 1}")
        self._set(ranking=ranking)

    @property
    def m(self) -> int:
        return len(self.ranking)

    def prefers(self, a: int, b: int) -> bool:
        """True iff candidate ``a`` is ranked strictly above candidate ``b``."""
        if a == b:
            raise ValueError(f"candidates must differ, got a=b={a}")
        if not (0 <= a < self.m and 0 <= b < self.m):
            raise ValueError(f"candidate pair ({a}, {b}) out of range for m={self.m}")
        return self.ranking.index(a) < self.ranking.index(b)


class VoterPermutation(Frozen):
    """A relabeling of the n voters; ``mapping[i]`` is the voter whose ballot lands at seat i."""

    _fields = ("mapping",)

    def __init__(self, mapping: tuple[int, ...]):
        mapping = tuple(mapping)
        if sorted(mapping) != list(range(len(mapping))):
            raise ValueError(f"mapping {mapping!r} is not a bijection on 0..{len(mapping) - 1}")
        self._set(mapping=mapping)

    @property
    def n(self) -> int:
        return len(self.mapping)


@lru_cache(maxsize=None)
def enumerate_orders(m: int) -> tuple[LinearOrder, ...]:
    """All m! strict rankings of m candidates, in lexicographic order of their ranking tuples.

    The position of an order in this tuple is its canonical index.
    """
    if m < 1:
        raise ValueError(f"need at least one candidate, got m={m}")
    return tuple(LinearOrder(perm) for perm in itertools.permutations(range(m)))


@lru_cache(maxsize=None)
def _order_index_map(m: int) -> dict[tuple[int, ...], int]:
    return {o.ranking: i for i, o in enumerate(enumerate_orders(m))}


def order_index(order: LinearOrder) -> int:
    """Canonical index of a ranking (its lexicographic rank)."""
    return _order_index_map(order.m)[order.ranking]


@lru_cache(maxsize=None)
def candidate_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """Unordered candidate pairs (a, b), a < b, in lexicographic order; the
    pair axis of every signature column and aggregator."""
    return tuple(itertools.combinations(range(m), 2))


@lru_cache(maxsize=None)
def pair_above(m: int) -> tuple[tuple[int, ...], ...]:
    """above[p][o]: 1 when ranking o puts pair p's first candidate above its second, else 0."""
    orders = enumerate_orders(m)
    return tuple(tuple(int(o.prefers(a, b)) for o in orders) for a, b in candidate_pairs(m))


@lru_cache(maxsize=None)
def tournament_orders(m: int) -> tuple[int | None, ...]:
    """For each tournament code (bit p set when pair p's first candidate wins),
    the ranking that agrees with every outcome, or None when the tournament is
    cyclic.  Each ranking sets its own pairwise bits; no other code is transitive."""
    above = pair_above(m)
    table: list[int | None] = [None] * (1 << len(above))
    for o in range(factorial(m)):
        table[sum(bits[o] << p for p, bits in enumerate(above))] = o
    return tuple(table)


@lru_cache(maxsize=None)
def all_voter_permutations(n: int) -> tuple[VoterPermutation, ...]:
    """All n! voter relabelings, in lexicographic order of their mapping tuples."""
    return tuple(VoterPermutation(p) for p in itertools.permutations(range(n)))


@lru_cache(maxsize=None)
def profile_digit_tuples(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Every profile at scale (n, m) as a tuple of ballot indices, listed in
    profile-index order.  No kernel walks it; reference loops do."""
    check_scale(n, m)
    return tuple(itertools.product(range(factorial(m)), repeat=n))


def profile_blocks(n: int, m: int) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...], tuple[bytes, ...]]:
    """How kernels compare a table with every voter's ballot a block of
    profiles at a time, so none holds a whole-table int: the block size
    S = (m!)^(n-h) for the fewest leading seats h with S <= ``_FORCE_BLOCK``,
    each block's first profile and the ballots of its h leading seats, which
    hold throughout it, and the ballot columns of the later seats over a
    block: each ballot once per profile of the seats after it, tiled."""
    return _profile_blocks(n, m, _FORCE_BLOCK)


@lru_cache(maxsize=None)
def _profile_blocks(n: int, m: int, most: int):
    check_scale(n, m)
    mf = factorial(m)
    h = next(h for h in range(n + 1) if mf ** (n - h) <= most)
    size, leads = mf ** (n - h), itertools.product(range(mf), repeat=h)
    columns = [b"".join(bytes((d,)) * mf ** (n - 1 - i) for d in range(mf)) * mf ** (i - h) for i in range(h, n)]
    return size, tuple(zip(range(0, mf**n, size), leads)), tuple(columns)


def distinct_bytes(table: bytes) -> bytes:
    """The distinct entries of a one-byte table, ascending: the byte values
    left out of what deleting the table's entries from all 256 leaves, so
    one C pass over the table."""
    return _ALL_BYTES.translate(None, _ALL_BYTES.translate(None, table))


def signature_columns(n: int, above) -> tuple[bytes, ...]:
    """Per row of ``above`` (a 0/1 per ballot), bit i of entry k set when voter
    i's ballot in combination k of n ballots, voter 0 most significant, has a
    1.  Seat by seat from the last, each ballot lays out one copy of the
    column so far, with bit i set in the copies of 1-ballots."""
    columns = []
    for bits in above:
        column = b"\0"
        for i in reversed(range(n)):
            voted = column.translate(bytes(s | 1 << i for s in range(256)))
            column = b"".join(voted if bit else column for bit in bits)
        columns.append(column)
    return tuple(columns)


@lru_cache(maxsize=None)
def pair_signatures(n: int, m: int) -> tuple[bytes, ...]:
    """sig[p][k]: bit i set when voter i of profile k ranks pair p's first
    candidate above its second, one byte per profile."""
    check_scale(n, m)
    return signature_columns(n, pair_above(m))


def signature_codes(n: int, m: int, share: Callable[[int, int], int]) -> bytes | memoryview:
    """Per profile k, the sum over pairs p of ``share(p, sig[p][k])``, a share
    being non-negative and called once per pair and signature.  Each pair adds
    one whole table: a ``translate`` of its column per lane byte, laid into
    lanes wide enough for the largest sum, so none carries.  The result is
    ``bytes`` for one-byte lanes, else a native-order ``memoryview``."""
    columns = pair_signatures(n, m)  # checks the scale before any allocation
    parts = [[share(p, s) for s in range(1 << n)] for p in range(len(columns))]
    width = _lane_width(sum(map(max, parts)))
    size = factorial(m) ** n
    lanes, total = bytearray(size * width if width > 1 else 0), 0
    for column, part in zip(columns, parts):
        for b in range(width):  # lane byte b, least significant first
            lookup = bytes(v >> 8 * b & 255 for v in part).ljust(256, b"\0")
            if width == 1:  # one ``bytes`` lane, which ``int.from_bytes`` reads without a copy
                lanes = column.translate(lookup)
            else:
                lanes[b if _ORDER == "little" else width - 1 - b :: width] = column.translate(lookup)
        total += int.from_bytes(lanes, _ORDER)
    codes = total.to_bytes(size * width, _ORDER)
    return codes if width == 1 else memoryview(codes).cast(_LANE_CODES[width])


def seat_gather(values, n: int, m: int, seats: tuple[int, ...], width: int = 1) -> bytes:
    """Rewrite ballots across a whole table: entry k of the result is the
    entry of ``values`` at the profile whose seat i holds the ballot that
    n-voter profile k has at seat ``seats[i]``.

    ``values`` is a ``bytes`` table over the ``len(seats)``-voter profiles
    whose entries are records of ``width`` bytes each: one byte for a rule
    table, a packed integer lane for distribution weights.  The result is
    ``bytes`` of the same record width.  ``seats`` need not be a bijection: a
    voter relabeling is one, copying one voter's ballot onto other seats is
    another, and leaving an n-th seat unread extends a table by an ignored
    voter.  Wider records are gathered one byte plane at a time.

    The ballot of profile k at seat j moves the source index by ``coeff[j]``
    per ballot index, ``coeff[j]`` summing (m!)^(len(seats)-1-i) over the
    seats i with ``seats[i] == j``; an unread seat has ``coeff[j] == 0``.
    One-byte entries land in one buffer, which becomes the result without a
    copy: when the last seat is read, by ``_gather_run``; else the entries
    gathered over the seats up to the last read one each repeat once per
    setting of the unread seats after it.
    """
    check_scale(n, m)
    mf = factorial(m)
    if width > 1:
        out = bytearray(mf**n * width)
        for plane in range(width):
            out[plane::width] = seat_gather(values[plane::width], n, m, seats)
        return bytes(out)
    coeff = [0] * n
    for i, j in enumerate(seats):
        coeff[j] += mf ** (len(seats) - 1 - i)
    hi = max((j + 1 for j in range(n) if coeff[j]), default=0)
    buffer = io.BytesIO(bytes(mf**n))
    with buffer.getbuffer() as out:
        if hi == n:
            _gather_run(out, values, mf, coeff)
        else:
            read = seat_gather(values, hi, m, seats) if hi else values[:1]
            times = mf ** (n - hi)
            per = max(1, _RUN_BYTES // times)  # entries per copy
            for k in range(0, len(read), per):
                block = read[k : k + per]
                runs = {e: bytes((e,)) * times for e in distinct_bytes(block)}
                out[k * times : (k + per) * times] = b"".join(map(runs.__getitem__, block))
    return buffer.getvalue()  # no copy once the view is released


def _gather_run(out, values: bytes, mf: int, coeff: list[int]) -> None:
    """Fill ``out`` with the one-byte gather of ``values`` by strides
    ``coeff``, the last one nonzero.

    Read seats j, j+1 whose strides chain, ``coeff[j] == m! * coeff[j+1]``,
    read one arithmetic progression of the source into a contiguous run of
    the result.  The chain that ends at the last seat is the run, one slice
    per setting of the other read seats.  When there are other read seats,
    the unread seats just before the run repeat its slice into a tile, and
    the tiles of the read seats just before it, as many as fit in
    ``_RUN_BYTES``, are joined into one copy.  The other unread seats are
    filled by doubling a block in place.
    """
    n = len(coeff)
    lo = n - 1  # the run is seats lo..n-1
    while lo and coeff[lo - 1] == coeff[lo] * mf:
        lo -= 1
    loops = [(coeff[j], mf ** (n - 1 - j)) for j in range(lo) if coeff[j]]
    first = lo
    while loops and first and not coeff[first - 1]:
        first -= 1
    step, repeat, block = coeff[-1], mf ** (lo - first), mf ** (n - first)
    span = mf ** (n - lo) * step
    starts = [0]  # of the joined slices, relative to their copy's
    while loops and loops[-1][1] == block and block * mf <= _RUN_BYTES:
        c = loops.pop()[0]
        starts = [d * c + s for d in range(mf) for s in starts]
        block *= mf
    src, dst = [0], [0]
    for c, p in loops:
        src = [s + d * c for s in src for d in range(mf)]
        dst = [o + d * p for o in dst for d in range(mf)]
    for s0, o0 in zip(src, dst):
        parts = [values[s0 + s : s0 + s + span : step] for s in starts]
        if repeat > 1:
            parts = [part * repeat for part in parts]
        out[o0 : o0 + block] = b"".join(parts)
    for j in range(first):
        if not coeff[j] and (j == 0 or coeff[j - 1]):  # unread seats j..e-1
            e = j + 1
            while not coeff[e]:
                e += 1
            block = mf ** (n - j)
            for base in range(0, mf**n, block):
                done = mf ** (n - e)
                while done < block:
                    more = min(done, block - done)
                    out[base + done : base + done + more] = out[base : base + more]
                    done += more


def encode_digits(digits: tuple[int, ...], m: int) -> int:
    """The profile index of a tuple of ballot indices (voter 0 most significant)."""
    mf = factorial(m)
    k = 0
    for d in digits:
        k = k * mf + d
    return k
