"""Brute-force verification of Arrow's impossibility theorem at desk scale.

Any rule satisfying independence of irrelevant alternatives decomposes into
one Boolean aggregator per candidate pair, mapping the voters' pairwise
comparisons to the societal comparison; unanimity pins the all-agree rows.
Enumerating every pinned aggregator combination and keeping the combinations
whose per-profile tournament is acyclic therefore enumerates exactly the
rules that satisfy both unanimity and independence.  Arrow's theorem predicts
that only the n dictatorships survive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .dynamics import force, force_profile, force_transfer
from .measures import (
    has_full_support,
    is_permutation_invariant,
    lift_distribution,
    star_distribution,
)
from .orders import (
    LinearOrder,
    candidate_pairs,
    check_scale,
    pair_signatures,
    signature_codes,
    tournament_orders,
)
from .rules import (
    VotingRule,
    cylinder_extend,
    is_dictatorship,
    is_pareto,
    table_digest,
    _pair_truth_tables,
)

MAX_CANDIDATE_COMBINATIONS = 20_000_000


@dataclass(frozen=True)
class PairwiseAggregator:
    """One Boolean function per candidate pair, from the n voters' pairwise
    comparisons (bit i = voter i prefers the pair's first candidate) to the
    societal comparison.  The all-true and all-false input rows are pinned to
    true and false respectively."""

    n: int
    m: int
    tables: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "tables", tuple(self.tables))
        if len(self.tables) != comb(self.m, 2):
            raise ValueError(
                f"{len(self.tables)} pair tables, expected {comb(self.m, 2)} for m={self.m}"
            )
        rows = 1 << self.n
        for t in self.tables:
            if not 0 <= t < (1 << rows):
                raise ValueError(f"truth table {t} out of range for n={self.n}")
            if t & 1:
                raise ValueError("all-false input row must output false")
            if not (t >> (rows - 1)) & 1:
                raise ValueError("all-true input row must output true")


def free_bits_per_pair(n: int) -> int:
    return (1 << n) - 2


def candidates_total(n: int, m: int) -> int:
    return (1 << free_bits_per_pair(n)) ** comb(m, 2)


def _table_from_free(free: int, n: int) -> int:
    """Expand a free-bit integer into a full truth table with pinned rows.

    Free rows are the inputs 1 .. 2^n - 2 in increasing order; bit r-1 of
    ``free`` is the output at row r.
    """
    return (1 << ((1 << n) - 1)) | (free << 1)


def aggregator_from_candidate_index(index: int, n: int, m: int) -> PairwiseAggregator:
    """Decode the lexicographic enumeration counter (pair 0 most significant,
    free truth-table bits within each pair)."""
    pair_count = comb(m, 2)
    per_pair = 1 << free_bits_per_pair(n)
    if not 0 <= index < per_pair**pair_count:
        raise ValueError(f"candidate index {index} out of range for (n={n}, m={m})")
    digits = []
    for _ in range(pair_count):
        index, d = divmod(index, per_pair)
        digits.append(d)
    digits.reverse()
    return PairwiseAggregator(n, m, tuple(_table_from_free(d, n) for d in digits))


def projection_aggregator(n: int, m: int, voter: int) -> PairwiseAggregator:
    """The aggregator that copies one voter's comparison on every pair."""
    if not 0 <= voter < n:
        raise ValueError(f"voter {voter} out of range for n={n}")
    rows = 1 << n
    table = 0
    for r in range(rows):
        if (r >> voter) & 1:
            table |= 1 << r
    return PairwiseAggregator(n, m, (table,) * comb(m, 2))


def assemble_rule(agg: PairwiseAggregator, n: int, m: int) -> VotingRule | None:
    """Evaluate the aggregator on every profile; the rule exists iff every
    profile's outcome tournament is acyclic."""
    if agg.n != n or agg.m != m:
        raise ValueError(f"aggregator ({agg.n}, {agg.m}) does not match (n={n}, m={m})")
    codes = signature_codes(n, m, lambda p, s: ((agg.tables[p] >> s) & 1) << p)
    table = list(map(tournament_orders(m).__getitem__, codes))
    if None in table:
        return None
    return VotingRule(n, m, bytes(table))


def aggregator_from_rule(rule: VotingRule) -> PairwiseAggregator | None:
    """Recover the per-pair aggregator of a rule, or None when some pair's
    outcome is not a function of the voters' comparisons on that pair."""
    tables = _pair_truth_tables(rule)
    try:
        return None if tables is None else PairwiseAggregator(rule.n, rule.m, tables)
    except ValueError:  # a pinned all-agree row is violated
        return None


@lru_cache(maxsize=None)
def _pair_output_masks(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """masks[pair_idx][free_bits]: outcome bits of that pair function, packed
    across all profiles into one integer (bit k = profile k)."""
    tables = [_table_from_free(free, n) for free in range(1 << free_bits_per_pair(n))]
    return tuple(
        tuple(sum(1 << k for k, s in enumerate(column) if (t >> s) & 1) for t in tables)
        for column in pair_signatures(n, m)
    )


def _survivors(n: int, m: int) -> list[int]:
    """Candidate indices, in increasing order, whose every profile tournament
    is acyclic.

    A tournament is transitive exactly when each candidate triple is.  For a
    triple a < b < c with pair outcome masks A = (a,b), B = (a,c), C = (b,c),
    a profile cycles exactly when A and C agree while B disagrees with them,
    that is when both differ from B: ``(A ^ B) & (C ^ B)`` tests the triple
    on every profile at once.
    """
    slot = {pair: p for p, pair in enumerate(candidate_pairs(m))}
    triples = [
        (slot[a, b], slot[a, c], slot[b, c]) for a, b, c in itertools.combinations(range(m), 3)
    ]
    survivors = []
    for index, masks in enumerate(itertools.product(*_pair_output_masks(n, m))):
        for ab, ac, bc in triples:
            a_over_c = masks[ac]
            if (masks[ab] ^ a_over_c) & (masks[bc] ^ a_over_c):
                break
        else:
            survivors.append(index)
    return survivors


@dataclass(frozen=True)
class ArrowReport:
    """Outcome of the exhaustive scan: every total rule found, with its
    candidate index and dictatorship status."""

    n: int
    m: int
    candidates_scanned: int
    found: tuple[tuple[int, VotingRule], ...]
    dictators: tuple[int | None, ...]

    @property
    def all_dictators(self) -> bool:
        return all(d is not None for d in self.dictators)


def verify_arrow(n: int, m: int) -> ArrowReport:
    """Enumerate every pinned aggregator combination, assemble each into a
    rule where possible, and report the survivors.

    The enumeration order is lexicographic in the truth-table bits, so the
    report is reproducible byte for byte.
    """
    if m < 3:
        raise ValueError(f"the theorem needs at least three candidates, got m={m}")
    check_scale(n, m)
    total = candidates_total(n, m)
    if total > MAX_CANDIDATE_COMBINATIONS:
        raise ValueError(
            f"{total} aggregator combinations at (n={n}, m={m}) exceed the "
            f"supported bound of {MAX_CANDIDATE_COMBINATIONS}"
        )
    survivors = _survivors(n, m)
    found = []
    for c in survivors:
        rule = assemble_rule(aggregator_from_candidate_index(c, n, m), n, m)
        if rule is None:
            raise RuntimeError(f"scan accepted candidate {c} but assembly found a cycle")
        found.append((c, rule))
    dictators = tuple(is_dictatorship(rule) for _, rule in found)
    return ArrowReport(n, m, total, tuple(found), dictators)


@dataclass(frozen=True)
class ReplayReport:
    """End-to-end record of extending a rule by a powerless trailing voter and
    watching the transfer map fix it under the lifted near-unanimous
    distribution.

    ``last_force_bound_ok`` tests the spec's ceiling ``2/(n*m!)`` on the
    ignored voter's force.  That ceiling is false for n >= 3 (the lift of the
    uniform base already gives that voter 1/m!); at (3, 3) with epsilon 1/2
    the flag is False for every Pareto base rule, whose ignored voter keeps
    at least 1/6.
    ``kept_force_bounds_ok`` tests the sound bound that each kept voter
    retains at least 1/n of their base force.
    """

    n: int
    m: int
    epsilon: Fraction
    base_rule_digest: str
    extended_rule_digest: str
    full_support: bool
    permutation_invariant: bool
    forces: tuple[Fraction, ...]
    base_forces: tuple[Fraction, ...]
    last_voter_unique_least: bool
    transfer_fixed: bool
    dictator_voter: int | None
    last_force_bound_ok: bool
    kept_force_bounds_ok: bool


def replay_contradiction(g: VotingRule, epsilon: Fraction, y: LinearOrder) -> ReplayReport:
    """Extend ``g`` by one ignored trailing voter, lift the near-unanimous
    distribution over the original electorate to the extended one, and report
    the force structure, the exact fixedness of the extended rule under the
    transfer map, and its dictatorship status.

    For a non-dictatorial unanimity-respecting ``g`` this exhibits a
    non-dictatorial rule that the transfer map fixes exactly.
    """
    if not is_pareto(g):
        raise ValueError("the base rule must respect unanimous comparisons")
    nu = star_distribution(g.n, g.m, epsilon, y)
    mu = lift_distribution(nu, g.n)
    f = cylinder_extend(g)
    n = f.n
    fp = force_profile(mu, f)
    base_forces = tuple(force(nu, g, i) for i in range(g.n))
    bound = Fraction(2, n * factorial(f.m))
    return ReplayReport(
        n=n,
        m=f.m,
        epsilon=Fraction(epsilon),
        base_rule_digest=table_digest(g),
        extended_rule_digest=table_digest(f),
        full_support=has_full_support(mu),
        permutation_invariant=is_permutation_invariant(mu),
        forces=fp.forces,
        base_forces=base_forces,
        last_voter_unique_least=fp.least_forceful == (n - 1,),
        transfer_fixed=force_transfer(mu, f) == f,
        dictator_voter=is_dictatorship(f),
        last_force_bound_ok=fp.forces[n - 1] <= bound,
        kept_force_bounds_ok=all(
            fp.forces[i] >= base_forces[i] / n for i in range(g.n)
        ),
    )
