"""Voting rules as dense lookup tables, with their structural predicates and compositions.

A rule for n voters over m candidates is a table of (m!)^n canonical order
indices, entry k being the output on the profile with index k.  Dense tables
keep every predicate an exhaustive, doubt-free scan at desk scale.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from math import factorial
from pathlib import Path

from .orders import (
    LinearOrder,
    Profile,
    VoterPermutation,
    candidate_pairs,
    check_scale,
    enumerate_orders,
    order_index,
    pair_above,
    pair_signatures,
    profile_digit_columns,
    profile_index,
    read_record,
    seat_map_indices,
    signature_codes,
    tournament_orders,
)

RULE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class VotingRule:
    """A total map from profiles to a societal ranking, stored as a lookup table."""

    n: int
    m: int
    table: tuple[int, ...]

    def __post_init__(self):
        check_scale(self.n, self.m)
        object.__setattr__(self, "table", tuple(self.table))
        size = factorial(self.m) ** self.n
        if len(self.table) != size:
            raise ValueError(f"table has {len(self.table)} entries, expected {size}")
        mf = factorial(self.m)
        if not 0 <= min(self.table) <= max(self.table) < mf:
            entry = next(e for e in self.table if not 0 <= e < mf)
            raise ValueError(f"table entry {entry} out of range for m={self.m}")

    @cached_property
    def digest(self) -> str:
        """SHA-256 over the ASCII bytes of ``"{n}:{m}:" + comma-joined table
        entries``, computed on first use and kept on the instance."""
        text = tuple(map(str, range(factorial(self.m))))
        payload = f"{self.n}:{self.m}:" + ",".join(map(text.__getitem__, self.table))
        return hashlib.sha256(payload.encode("ascii")).hexdigest()


def evaluate(rule: VotingRule, profile: Profile) -> LinearOrder:
    """The rule's output ranking on a profile."""
    if profile.n != rule.n or profile.m != rule.m:
        raise ValueError(
            f"profile ({profile.n}, {profile.m}) incompatible with rule ({rule.n}, {rule.m})"
        )
    return enumerate_orders(rule.m)[rule.table[profile_index(profile)]]


def dictator(n: int, m: int, i: int) -> VotingRule:
    """The rule that copies voter i's ballot verbatim."""
    if not 0 <= i < n:
        raise ValueError(f"voter {i} out of range for n={n}")
    return VotingRule(n, m, profile_digit_columns(n, m)[i])


def constant_rule(n: int, m: int, order: LinearOrder) -> VotingRule:
    """The rule that outputs the same ranking on every profile."""
    oi = order_index(order)
    return VotingRule(n, m, (oi,) * (factorial(m) ** n))


def _unanimity_patterns(n: int, m: int) -> list[int]:
    """Per profile, two bits per pair p: bit 2p when every voter ranks the
    pair's first candidate higher, bit 2p+1 when every voter ranks it lower."""
    full = (1 << n) - 1
    return signature_codes(n, m, lambda p, s: (s == full) << (2 * p) | (s == 0) << (2 * p + 1))


@lru_cache(maxsize=None)
def _pareto_consistent_outputs(pattern: int, m: int) -> tuple[int, ...]:
    """Order indices that keep every unanimous comparison of a unanimity
    pattern, so the cache holds one entry per pattern.  Order o breaks pair
    p's comparison when bit 2p + above[p][o] of the pattern is set."""
    return tuple(
        o
        for o in range(factorial(m))
        if not any((pattern >> (2 * p + bits[o])) & 1 for p, bits in enumerate(pair_above(m)))
    )


def is_pareto(rule: VotingRule) -> bool:
    """True iff every unanimous pairwise comparison is reproduced in the output:
    a profile whose pair signature is all ones outputs the pair's first
    candidate higher, one whose signature is zero outputs it lower."""
    full = (1 << rule.n) - 1
    for column, above in zip(pair_signatures(rule.n, rule.m), pair_above(rule.m)):
        for signature, wanted in ((full, 1), (0, 0)):
            outputs = set(compress(rule.table, map(signature.__eq__, column)))
            if any(above[o] != wanted for o in outputs):
                return False
    return True


def _pair_truth_tables(rule: VotingRule) -> tuple[int, ...] | None:
    """Per pair, the truth table (bit s set when signature s outputs the
    pair's first candidate higher), or None when some pair's output is not a
    function of its signature."""
    tables = []
    for column, above in zip(pair_signatures(rule.n, rule.m), pair_above(rule.m)):
        seen = set(zip(column, map(above.__getitem__, rule.table)))
        if len(seen) != len({s for s, _ in seen}):
            return None
        tables.append(sum(1 << s for s, bit in seen if bit))
    return tuple(tables)


def is_iia(rule: VotingRule) -> bool:
    """True iff the output comparison of any two candidates depends only on the
    voters' comparisons of those two: on each pair, profiles sharing a
    signature share the output comparison."""
    return _pair_truth_tables(rule) is not None


def is_dictatorship(rule: VotingRule) -> int | None:
    """The voter whose ballot the rule always copies, or None."""
    for i, column in enumerate(profile_digit_columns(rule.n, rule.m)):
        if rule.table == column:
            return i
    return None


@lru_cache(maxsize=None)
def _permutation_index_map(n: int, m: int, mapping: tuple[int, ...]) -> tuple[int, ...]:
    """For each profile index k, the index of the relabeled profile."""
    return tuple(seat_map_indices(n, m, mapping))


def compose_voter_permutation(rule: VotingRule, perm: VoterPermutation) -> VotingRule:
    """The rule that first relabels voters, then applies ``rule``."""
    if perm.n != rule.n:
        raise ValueError(f"permutation on {perm.n} voters, rule has {rule.n}")
    index_map = _permutation_index_map(rule.n, rule.m, perm.mapping)
    return VotingRule(rule.n, rule.m, tuple(map(rule.table.__getitem__, index_map)))


def compose_collapse(rule: VotingRule, i: int) -> VotingRule:
    """The rule evaluated on the profile where every seat holds voter i's ballot."""
    if not 0 <= i < rule.n:
        raise ValueError(f"voter {i} out of range for n={rule.n}")
    index_map = seat_map_indices(rule.n, rule.m, (i,) * rule.n)
    return VotingRule(rule.n, rule.m, tuple(map(rule.table.__getitem__, index_map)))


def cylinder_extend(rule: VotingRule) -> VotingRule:
    """Extend a rule by one trailing voter whose ballot is ignored."""
    n = rule.n + 1
    check_scale(n, rule.m)
    mf = factorial(rule.m)
    table = tuple(rule.table[k // mf] for k in range(mf**n))
    return VotingRule(n, rule.m, table)


def random_pareto_rule(n: int, m: int, seed: int) -> VotingRule:
    """A seeded rule drawn profile by profile, uniformly among the outputs
    consistent with that profile's unanimous pairwise comparisons.

    Deterministic in the seed; the result always satisfies ``is_pareto``.
    """
    patterns = _unanimity_patterns(n, m)
    outputs = {u: _pareto_consistent_outputs(u, m) for u in set(patterns)}
    randrange = random.Random(seed).randrange
    table = [allowed[randrange(len(allowed))] for allowed in map(outputs.__getitem__, patterns)]
    return VotingRule(n, m, tuple(table))


def pairwise_majority_rule(
    n: int,
    m: int,
    tiebreak_order: LinearOrder | None = None,
    tiebreak_voter: int | None = None,
) -> VotingRule:
    """Majority comparison per candidate pair, ties broken by a fixed ranking
    or by a designated voter's ballot.

    Profiles whose majority tournament is cyclic fall back to the first
    ranking consistent with all unanimous comparisons, which keeps the rule
    total and unanimity-respecting everywhere.
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
            return (margin > 0) << p
        if tiebreak_voter is not None:
            return ((s >> tiebreak_voter) & 1) << p
        return tiebreak_order.prefers(*pairs[p]) << p

    codes = signature_codes(n, m, first_wins)
    table = list(map(tournament_orders(m).__getitem__, codes))
    if None in table:
        for k, u in enumerate(_unanimity_patterns(n, m)):
            if table[k] is None:
                table[k] = _pareto_consistent_outputs(u, m)[0]
    return VotingRule(n, m, tuple(table))


def borda_rule(n: int, m: int, tiebreak_order: LinearOrder | None = None) -> VotingRule:
    """Rank candidates by total positional score, ties broken by a fixed ranking.

    A score sums the candidate's votes over its pairs, so the ranking is
    computed once per distinct vector of pair vote counts (signature popcounts).
    """
    if tiebreak_order is None:
        tiebreak_order = enumerate_orders(m)[0]
    pairs = candidate_pairs(m)
    radix = n + 1
    counts = signature_codes(n, m, lambda p, s: s.bit_count() * radix**p)
    ranked = {}
    for code in set(counts):
        score = [0] * m
        rest = code
        for a, b in pairs:
            rest, votes = divmod(rest, radix)
            score[a] += votes
            score[b] += n - votes
        ranking = sorted(range(m), key=lambda c: (-score[c], tiebreak_order.ranking.index(c)))
        ranked[code] = order_index(LinearOrder(ranking))
    return VotingRule(n, m, tuple(map(ranked.__getitem__, counts)))


def table_digest(rule: VotingRule) -> str:
    """Stable identifier of a rule: its cached ``VotingRule.digest``."""
    return rule.digest


def save_rule(rule: VotingRule, path: str | Path) -> None:
    record = {
        "format_version": RULE_FORMAT_VERSION,
        "n": rule.n,
        "m": rule.m,
        "table": list(rule.table),
    }
    Path(path).write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")


def load_rule(path: str | Path) -> VotingRule:
    record = read_record(path, "rule", RULE_FORMAT_VERSION)
    n, m, table = (record.get(key) for key in ("n", "m", "table"))
    for key, value in (("n", n), ("m", m)):
        if type(value) is not int:
            raise ValueError(f"rule field {key!r} is missing or not an integer")
    if not isinstance(table, list) or not {*map(type, table)} <= {int}:
        raise ValueError("rule field 'table' is missing or not a list of integers")
    return VotingRule(n, m, tuple(table))
