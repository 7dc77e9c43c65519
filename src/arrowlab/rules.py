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
from math import factorial
from pathlib import Path

from .orders import (
    LinearOrder,
    Profile,
    VoterPermutation,
    check_scale,
    enumerate_orders,
    order_index,
    profile_digit_columns,
    profile_digit_tuples,
    profile_index,
    seat_map_indices,
    tournament_order,
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


@lru_cache(maxsize=None)
def _prefers_matrix(m: int) -> tuple[tuple[tuple[bool, ...], ...], ...]:
    """pref[order_index][a][b]: does that order rank a above b (False on the diagonal)."""
    orders = enumerate_orders(m)
    return tuple(
        tuple(tuple(False if a == b else o.prefers(a, b) for b in range(m)) for a in range(m))
        for o in orders
    )


@lru_cache(maxsize=None)
def _pareto_consistent_outputs(ballots: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Order indices consistent with every unanimous pairwise comparison of the given
    ballots, passed as their sorted distinct indices so the cache holds one entry per set."""
    pref = _prefers_matrix(m)
    forced = [
        (a, b)
        for a in range(m)
        for b in range(m)
        if a != b and all(pref[d][a][b] for d in ballots)
    ]
    return tuple(
        oi for oi in range(factorial(m)) if all(pref[oi][a][b] for a, b in forced)
    )


def is_pareto(rule: VotingRule) -> bool:
    """True iff every unanimous pairwise comparison is reproduced in the output."""
    pref = _prefers_matrix(rule.m)
    for k, digits in enumerate(profile_digit_tuples(rule.n, rule.m)):
        out = pref[rule.table[k]]
        for a in range(rule.m):
            for b in range(rule.m):
                if a == b:
                    continue
                if not out[a][b] and all(pref[d][a][b] for d in digits):
                    return False
    return True


def is_iia(rule: VotingRule) -> bool:
    """True iff the output comparison of any two candidates depends only on the
    voters' comparisons of those two.

    Equivalent to the exhaustive scan over profile pairs: profiles sharing a
    per-voter comparison signature for a pair must share the output comparison,
    so the output comparison is checked to be constant on each signature bucket.
    """
    pref = _prefers_matrix(rule.m)
    digit_tuples = profile_digit_tuples(rule.n, rule.m)
    for a in range(rule.m):
        for b in range(a + 1, rule.m):
            seen: dict[int, bool] = {}
            for k, digits in enumerate(digit_tuples):
                sig = 0
                for i, d in enumerate(digits):
                    if pref[d][a][b]:
                        sig |= 1 << i
                out = pref[rule.table[k]][a][b]
                if seen.setdefault(sig, out) != out:
                    return False
    return True


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
    rng = random.Random(seed)
    table = []
    for digits in profile_digit_tuples(n, m):
        allowed = _pareto_consistent_outputs(tuple(sorted(set(digits))), m)
        table.append(allowed[rng.randrange(len(allowed))])
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
    pref = _prefers_matrix(m)
    table = []
    for digits in profile_digit_tuples(n, m):
        outdeg = [0] * m
        for a in range(m):
            for b in range(a + 1, m):
                votes_a = sum(1 for d in digits if pref[d][a][b])
                if 2 * votes_a > n:
                    a_beats_b = True
                elif 2 * votes_a < n:
                    a_beats_b = False
                elif tiebreak_voter is not None:
                    a_beats_b = pref[digits[tiebreak_voter]][a][b]
                else:
                    a_beats_b = tiebreak_order.prefers(a, b)
                outdeg[a if a_beats_b else b] += 1
        order = tournament_order(outdeg)
        if order is None:
            order = _pareto_consistent_outputs(tuple(sorted(set(digits))), m)[0]
        table.append(order)
    return VotingRule(n, m, tuple(table))


def borda_rule(n: int, m: int, tiebreak_order: LinearOrder | None = None) -> VotingRule:
    """Rank candidates by total positional score, ties broken by a fixed ranking."""
    if tiebreak_order is None:
        tiebreak_order = enumerate_orders(m)[0]
    pref = _prefers_matrix(m)
    table = []
    for digits in profile_digit_tuples(n, m):
        score = [0] * m
        for d in digits:
            for a in range(m):
                score[a] += sum(1 for b in range(m) if a != b and pref[d][a][b])
        ranking = tuple(
            sorted(range(m), key=lambda c: (-score[c], tiebreak_order.ranking.index(c)))
        )
        table.append(order_index(LinearOrder(ranking)))
    return VotingRule(n, m, tuple(table))


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
    record = json.loads(Path(path).read_text())
    if not isinstance(record, dict):
        raise ValueError("rule file does not hold a JSON object")
    if record.get("format_version") != RULE_FORMAT_VERSION:
        raise ValueError(f"unsupported rule format_version {record.get('format_version')!r}")
    n, m, table = (record.get(key) for key in ("n", "m", "table"))
    for key, value in (("n", n), ("m", m)):
        if type(value) is not int:
            raise ValueError(f"rule field {key!r} is missing or not an integer")
    if not isinstance(table, list) or not {*map(type, table)} <= {int}:
        raise ValueError("rule field 'table' is missing or not a list of integers")
    return VotingRule(n, m, tuple(table))
