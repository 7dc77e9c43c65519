"""Voting rules as dense lookup tables, with their structural predicates and compositions.

A rule for n voters over m candidates is a table of (m!)^n canonical order
indices, entry k being the output on the profile with index k, stored as
``bytes`` with one byte per entry.  Dense tables keep every predicate an
exhaustive, doubt-free scan at desk scale, and byte tables let each scan run
as a few whole-table operations (``translate``, ``int.from_bytes``, ``set``).
"""

from __future__ import annotations

import io
import json
import random
import re
from functools import cached_property, lru_cache
from math import factorial
from pathlib import Path
from typing import Callable, Iterator

from .orders import (
    _ALL_BYTES,
    Frozen,
    LinearOrder,
    VoterPermutation,
    candidate_pairs,
    check_scale,
    distinct_bytes,
    enumerate_orders,
    order_index,
    pair_above,
    pair_signatures,
    profile_blocks,
    read_record,
    seat_gather,
    signature_codes,
    tournament_orders,
)

try:  # CPython's own SHA-256, which ``hashlib`` falls back to and which loads no OpenSSL
    from _sha2 import sha256 as _sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

RULE_FORMAT_VERSION = 1
# Entries per block of rule text (``_table_text``), written by ``save_rule``
# and hashed by ``VotingRule.digest``; read at each call.
_TEXT_BLOCK = 1 << 14


class VotingRule(Frozen):
    """A total map from profiles to a societal ranking, stored as a lookup
    table of one byte per profile.  Equality compares the bytes, and the
    hash of the table is cached by ``bytes`` itself."""

    _fields = ("n", "m", "table")

    def __init__(self, n: int, m: int, table: bytes):
        check_scale(n, m)
        mf = factorial(m)
        try:
            # iter(): bytes(k) of an int k would be k zero entries.
            entries = bytes(iter(table)) if type(table) is not bytes else table
        except (TypeError, ValueError):  # an entry that is not an int in 0..255
            entries = tuple(table)
            bad = [e for e in entries if not (isinstance(e, int) and 0 <= e < mf)]
        else:
            # Deleting the entries from the bytes of m! and up keeps them all
            # unless an entry is out of range: one C pass that holds no copy
            # of the table.  Only a refused table is copied, for its first
            # bad entry.
            clean = len(_ALL_BYTES[mf:].translate(None, entries)) == 256 - mf
            bad = b"" if clean else entries.translate(None, _ALL_BYTES[:mf])
        size = mf**n
        if len(entries) != size:
            raise ValueError(f"table has {len(entries)} entries, expected {size}")
        if bad:
            raise ValueError(f"table entry {bad[0]!r} out of range for m={m}")
        self._set(n=n, m=m, table=entries)

    @cached_property
    def digest(self) -> str:
        """SHA-256 over the ASCII bytes of ``"{n}:{m}:" + comma-joined table
        entries``, hashed a block at a time (``_table_text``), so no
        whole-table text is held; computed on first use and kept.  The hash
        is CPython's built-in one (``_sha2``, or ``_sha256`` before 3.12),
        so no command loads OpenSSL; ``hashlib`` only where neither exists."""
        digest = _sha256(f"{self.n}:{self.m}:".encode("ascii"))
        for block in _table_text(self.table, self.m, b","):
            digest.update(block)
        return digest.hexdigest()


def _table_text(table: bytes, m: int, separator: bytes) -> Iterator[bytes]:
    """The ASCII text of ``table``'s entries joined by ``separator``: the
    first entry, then blocks of ``_TEXT_BLOCK`` entries, each entry the
    separator and ``len(units)`` digit slots.  One ``translate`` per digit
    place fills its slots, blank (zero) where the entry has no digit there,
    and the blanks are deleted."""
    units = [10**place for place in reversed(range(len(str(factorial(m) - 1))))]
    glyphs = [bytes(48 + e // u % 10 if e >= u or u == 1 else 0 for e in range(256)) for u in units]
    step = len(separator) + len(units)
    yield str(table[0]).encode("ascii")
    for start in range(1, len(table), _TEXT_BLOCK):
        block = table[start : start + _TEXT_BLOCK]
        text = bytearray(step * len(block))
        for place, byte in enumerate(separator):
            text[place::step] = bytes((byte,)) * len(block)
        for place, glyph in enumerate(glyphs, len(separator)):
            text[place::step] = block.translate(glyph)
        yield text.translate(None, b"\0")


def dictator(n: int, m: int, i: int) -> VotingRule:
    """The rule that copies voter i's ballot verbatim."""
    if not 0 <= i < n:
        raise ValueError(f"voter {i} out of range for n={n}")
    return VotingRule(n, m, seat_gather(_ALL_BYTES[: factorial(m)], n, m, (i,)))


def constant_rule(n: int, m: int, order: LinearOrder) -> VotingRule:
    """The rule that outputs the same ranking on every profile."""
    return VotingRule(n, m, bytes((order_index(order),)) * factorial(m) ** n)


def tournament_table(n: int, m: int, wins: Callable[[int, int], int]) -> bytes:
    """Per profile, the ranking with outcome ``wins(p, s)`` on each pair p at
    signature s (1: the first candidate wins), or 255 where those cycle."""
    codes = signature_codes(n, m, lambda p, s: wins(p, s) << p)
    ranks = bytes(255 if o is None else o for o in tournament_orders(m))
    if isinstance(codes, bytes):
        return codes.translate(ranks.ljust(256, b"\xff"))
    return bytes(map(ranks.__getitem__, codes))  # ten pairs at m = 5: two-byte codes


@lru_cache(maxsize=None)
def _pareto_draws(n: int, m: int) -> tuple[bytes | memoryview, dict[int, tuple[tuple[int, ...], int, int]]]:
    """Per profile, its unanimity pattern: two bits per pair p, bit 2p when
    every voter ranks the pair's first candidate higher, bit 2p+1 when every
    voter ranks it lower.  Per pattern that occurs, the orders that keep its
    unanimous comparisons, their count and the count's bit length, as
    ``random_pareto_rule`` draws among them: order o breaks bit
    2p + above[p][o] of every pair p.  Built once per scale."""
    full = (1 << n) - 1
    patterns = signature_codes(n, m, lambda p, s: (s == full) << (2 * p) | (s == 0) << (2 * p + 1))
    above = pair_above(m)
    breaks = [sum(1 << (2 * p + bits[o]) for p, bits in enumerate(above)) for o in range(factorial(m))]
    draws = {}
    for u in set(patterns):
        allowed = tuple(o for o, mask in enumerate(breaks) if not u & mask)
        draws[u] = (allowed, len(allowed), len(allowed).bit_length())
    return patterns, draws


def _signature_outputs(rule: VotingRule) -> Iterator[bytes]:
    """Per pair, the distinct values of ``2 * s + b`` over all profiles, in
    ascending ``bytes``, where s is the profile's signature and b is 1 when
    the output ranks the pair's first candidate higher.  Signatures are below
    2**7, so doubling the signature column as one integer shifts each byte
    without a carry into the next."""
    table = rule.table
    size = len(table)
    for column, above in zip(pair_signatures(rule.n, rule.m), pair_above(rule.m)):
        bits = table.translate(bytes(above).ljust(256, b"\0"))
        packed = int.from_bytes(column, "little") << 1 | int.from_bytes(bits, "little")
        yield distinct_bytes(packed.to_bytes(size, "little"))


def is_pareto(rule: VotingRule) -> bool:
    """True iff every unanimous pairwise comparison is reproduced in the output:
    a profile whose pair signature is all ones outputs the pair's first
    candidate higher, one whose signature is zero outputs it lower."""
    full_but_lower = 2 * ((1 << rule.n) - 1)
    zero_but_higher = 1
    return not any(
        full_but_lower in seen or zero_but_higher in seen for seen in _signature_outputs(rule)
    )


def _pair_truth_tables(rule: VotingRule) -> tuple[int, ...] | None:
    """Per pair, the truth table (bit s set when signature s outputs the
    pair's first candidate higher), or None when some pair's output is not a
    function of its signature."""
    tables = []
    for seen in _signature_outputs(rule):
        if len(seen) != len({code >> 1 for code in seen}):
            return None
        tables.append(sum(1 << (code >> 1) for code in seen if code & 1))
    return tuple(tables)


def is_iia(rule: VotingRule) -> bool:
    """True iff the output comparison of any two candidates depends only on the
    voters' comparisons of those two: on each pair, profiles sharing a
    signature share the output comparison."""
    return _pair_truth_tables(rule) is not None


def is_dictatorship(rule: VotingRule) -> int | None:
    """The voter whose ballot the rule always copies, or None; by blocks (``orders.profile_blocks``)."""
    size, blocks, columns = profile_blocks(rule.n, rule.m)
    table, h = rule.table, rule.n - len(columns)
    for i in range(rule.n):
        if all(
            table.startswith(columns[i - h], s) if i >= h else table.count(lead[i], s, s + size) == size
            for s, lead in blocks
        ):
            return i
    return None


def compose_voter_permutation(rule: VotingRule, perm: VoterPermutation) -> VotingRule:
    """The rule that first relabels voters, then applies ``rule``."""
    if perm.n != rule.n:
        raise ValueError(f"permutation on {perm.n} voters, rule has {rule.n}")
    return VotingRule(rule.n, rule.m, seat_gather(rule.table, rule.n, rule.m, perm.mapping))


def compose_collapse(rule: VotingRule, i: int) -> VotingRule:
    """The rule evaluated on the profile where every seat holds voter i's ballot."""
    if not 0 <= i < rule.n:
        raise ValueError(f"voter {i} out of range for n={rule.n}")
    return VotingRule(rule.n, rule.m, seat_gather(rule.table, rule.n, rule.m, (i,) * rule.n))


def cylinder_extend(rule: VotingRule) -> VotingRule:
    """Extend a rule by one trailing voter whose ballot is ignored."""
    n = rule.n + 1
    return VotingRule(n, rule.m, seat_gather(rule.table, n, rule.m, tuple(range(rule.n))))


def random_pareto_rule(n: int, m: int, seed: int) -> VotingRule:
    """A seeded rule drawn profile by profile, uniformly among the outputs
    consistent with that profile's unanimous pairwise comparisons, as read
    from the per-scale table of ``_pareto_draws``; the drawn entries fill one
    ``bytearray``, so a draw holds about two tables at its peak.

    Deterministic in the seed; the result always satisfies ``is_pareto``.
    """
    patterns, draws = _pareto_draws(n, m)
    # The loop of ``randrange(size)`` in CPython (``_randbelow_with_getrandbits``)
    # without its per-call overhead: the same words drawn, so the same table.
    getrandbits = random.Random(seed).getrandbits
    table = bytearray()
    for allowed, size, bits in map(draws.__getitem__, patterns):
        r = getrandbits(bits)
        while r >= size:
            r = getrandbits(bits)
        table.append(allowed[r])
    return VotingRule(n, m, bytes(table))


def pairwise_majority_rule(
    n: int,
    m: int,
    tiebreak_order: LinearOrder | None = None,
    tiebreak_voter: int | None = None,
) -> VotingRule:
    """Majority comparison per candidate pair, ties broken by a fixed ranking
    or by a designated voter's ballot.

    Profiles whose majority tournament is cyclic fall back to the first
    ranking consistent with all unanimous comparisons, read from the seeded
    draw's per-scale table (``_pareto_draws``), which keeps the rule total
    and unanimity-respecting everywhere.
    """
    if tiebreak_voter is not None and tiebreak_order is not None:
        raise ValueError("choose either a tiebreak order or a tiebreak voter, not both")
    if tiebreak_voter is None and tiebreak_order is None:
        tiebreak_order = enumerate_orders(m)[0]
    if tiebreak_voter is not None and not 0 <= tiebreak_voter < n:
        raise ValueError(f"tiebreak voter {tiebreak_voter} out of range for n={n}")
    pairs = candidate_pairs(m)

    def first_wins(p: int, s: int) -> int:
        margin = 2 * s.bit_count() - n
        if margin:
            return margin > 0
        if tiebreak_voter is not None:
            return (s >> tiebreak_voter) & 1
        return tiebreak_order.prefers(*pairs[p])

    table = tournament_table(n, m, first_wins)
    if 255 in table:
        patterns, draws = _pareto_draws(n, m)
        table = bytes(t if t != 255 else draws[u][0][0] for t, u in zip(table, patterns))
    return VotingRule(n, m, table)


def table_digest(rule: VotingRule) -> str:
    """Stable identifier of a rule: its cached ``VotingRule.digest``."""
    return rule.digest


def save_rule(rule: VotingRule, path: str | Path) -> None:
    """Write the bytes of ``json.dump(record, sort_keys=True, indent=2)`` and a
    newline.  ``"table"`` sorts last, so the header is dumped without it and
    the entries follow it a block at a time (``_table_text``)."""
    header = json.dumps(
        {"format_version": RULE_FORMAT_VERSION, "n": rule.n, "m": rule.m}, sort_keys=True, indent=2
    )
    with open(path, "wb") as fp:
        fp.write(f'{header[:-2]},\n  "table": [\n    '.encode("ascii"))
        fp.writelines(_table_text(rule.table, rule.m, b",\n    "))
        fp.write(b"\n  ]\n}\n")


def load_rule(path: str | Path) -> VotingRule:
    """The rule in a rule file of any JSON layout, read a block at a time
    (``_read_rule_blocks``), so no whole text or per-entry list is held.  A
    file that read cannot vouch for is parsed whole, as ``json.loads`` of its
    text, which gives the same rule and every malformed file its one-line
    ``ValueError``."""
    with open(path, "rb") as fp:
        parsed = _read_rule_blocks(fp)
    if parsed is not None:
        record, table = parsed
    else:
        record = read_record(Path(path).read_text(), "rule", RULE_FORMAT_VERSION)
        table = record.get("table")
    n, m = record.get("n"), record.get("m")
    for key, value in (("n", n), ("m", m)):
        if type(value) is not int:
            raise ValueError(f"rule field {key!r} is missing or not an integer")
    # The type scan keeps out JSON ``true`` and ``false``, which ``bytes`` reads as 1 and 0.
    if parsed is None and (not isinstance(table, list) or not {*map(type, table)} <= {int}):
        raise ValueError("rule field 'table' is missing or not a list of integers")
    return VotingRule(n, m, table)


# The one ``"table": [`` of a file; a body of only JSON whitespace, digits and
# commas up to the first ``]`` holds nothing but unsigned integers.
_TABLE_OPEN = re.compile(rb'"table"[\t\n\r ]*:[\t\n\r ]*\[')
_BODY_BYTES = b"\t\n\r ,0123456789"
# Bytes of a rule file per read; the table body read so far is parsed up to
# its last comma.  At 64 KiB the big ints of ``_body_entries`` raise the
# traced peak of a (4,4) read to 1.04 MiB, against 0.68 MiB at 32 KiB, which
# reads as fast.
_BODY_BLOCK = 1 << 15
# Per byte of a piece of table body: 0xFF at a digit, 0xFF at a comma, and a
# digit's value (0 at anything else).
_DIGITS = bytes(255 if 48 <= b <= 57 else 0 for b in range(256))
_COMMAS = bytes(255 if b == 44 else 0 for b in range(256))
_DIGIT_VALUES = bytes(b - 48 if 48 <= b <= 57 else 0 for b in range(256))


def _read_rule_blocks(fp) -> tuple[dict, bytes] | None:
    """The record of the rule file open in binary ``fp``, its table emptied,
    and the table's entries; or None where this read cannot show that
    ``json.loads`` of the whole text gives the same: where a piece of the
    table's body fails ``_body_entries``, or, without a backslash, the one
    ``"table"`` is not the top-level key of the text around the body parsed
    with ``"table": []``.  Each byte is searched once, but for the six that
    a key can straddle, and the body is trimmed at each comma, so the read
    is linear in the file."""
    head, at, seen = bytearray(), -1, 0
    while at < 0 or head.find(b"[", max(at, seen)) < 0:
        if not (block := fp.read(_BODY_BLOCK)):
            return None
        seen = max(len(head) - 6, 0)
        head += block
        if at < 0:
            at = head.find(b'"table"', seen)
    if (match := _TABLE_OPEN.match(head, at)) is None:
        return None
    body, table, seen = head[match.end() :], io.BytesIO(), 0  # body[:seen]: no "," or "]"
    del head[match.end() :]
    try:
        while (end := body.find(b"]", seen)) < 0:
            if not (block := fp.read(_BODY_BLOCK)):
                return None
            if (cut := body.rfind(b",", seen)) >= 0:
                table.write(_body_entries(body[:cut]))
                del body[: cut + 1]
            seen = len(body)
            body += block
        table.write(_body_entries(body[:end]))
        rest = head + body[end:] + fp.read()
        if b"\\" in rest or rest.count(b'"table"') != 1:
            return None
        record = read_record(rest.decode("ascii"), "rule", RULE_FORMAT_VERSION)
    except ValueError:  # a malformed record, piece or entry: the whole text names it
        return None
    # ``getvalue`` hands over the buffer as ``bytes`` without a copy.
    return (record, table.getvalue()) if record.get("table") == [] else None


def _body_entries(piece: bytearray) -> bytes:
    """The entries of a piece of table body, at least one (no element is
    empty), each in 0..255; or ``ValueError``.

    Up to its trailing whitespace, the piece is read as big-endian ints of a
    byte per byte.  An entry's last digit is a digit followed by a comma or
    the end; its entry is that digit plus ten times the byte before it (a
    digit, or 0 for a comma or whitespace), at most 99, so no byte carries.
    Every other byte is set to 0xFF and deleted.  The decode stands where
    there is one more entry than commas, so no element is empty, and as many
    digits as entries plus one per entry of 10 and above: every digit then
    ends an entry or leads a two-digit one that has no leading zero, and no
    digit is followed by whitespace (``1 2`` is no two entries).  Every other
    piece, one with an entry of three digits among them, is parsed by
    ``json.loads``."""
    if piece.translate(None, _BODY_BYTES):
        raise ValueError("not a piece of table body")
    text = piece.rstrip(b"\t\n\r ")
    size = len(text)
    digits, commas, values = (
        int.from_bytes(text.translate(kind), "big") for kind in (_DIGITS, _COMMAS, _DIGIT_VALUES)
    )
    last = digits & ((commas << 8) | 0xFF)  # 0xFF at each entry's last digit
    kept = (values + 10 * (values >> 8)) | (last ^ ((1 << 8 * size) - 1))
    entries = kept.to_bytes(size, "big").translate(None, b"\xff")
    count, wide = len(entries), len(entries.translate(None, _ALL_BYTES[:10]))
    if count == (commas.bit_count() >> 3) + 1 and count + wide == digits.bit_count() >> 3:
        return entries
    if not (parsed := json.loads("[%s]" % piece.decode("ascii"))):
        raise ValueError("not a piece of table body")
    return bytes(parsed)
