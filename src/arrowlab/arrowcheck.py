"""Exhaustive verification of Arrow's impossibility theorem at desk scale.

Any rule satisfying independence of irrelevant alternatives decomposes into
one Boolean aggregator per candidate pair, mapping the voters' pairwise
comparisons to the societal comparison; unanimity pins the all-agree rows.
The aggregator makes a rule exactly when every candidate triple's outcome is
transitive on every profile (Tang & Lin, Artif. Intell. 173, 2009), and on a
triple the profiles reduce to the 6^n combinations of the voters' six
transitive patterns.  A search over the truth-table rows under those
constraints finds every pinned aggregator that makes a rule; Arrow's theorem
predicts that only the n dictatorships do.
"""

from __future__ import annotations

import itertools
import operator
from math import comb
from typing import NamedTuple

from .orders import Frozen, candidate_pairs, check_scale, signature_columns
from .rules import VotingRule, _pair_truth_tables, is_dictatorship, tournament_table

# A voter's comparisons on a triple a < b < c, as (a over b, a over c, b over c):
# all but the two cycles, where the first and last agree and the middle differs.
_TRANSITIVE = tuple(bits for bits in itertools.product((0, 1), repeat=3) if bits[1] in bits[::2])


class PairwiseAggregator(Frozen):
    """One Boolean function per candidate pair, from the n voters' pairwise
    comparisons (bit i = voter i prefers the pair's first candidate) to the
    societal comparison.  The all-true and all-false input rows are pinned to
    true and false respectively."""

    _fields = ("n", "m", "tables")

    def __init__(self, n: int, m: int, tables: tuple[int, ...]):
        tables = tuple(tables)
        if len(tables) != comb(m, 2):
            raise ValueError(f"{len(tables)} pair tables, expected {comb(m, 2)} for m={m}")
        rows = 1 << n
        for t in tables:
            if not 0 <= t < (1 << rows):
                raise ValueError(f"truth table {t} out of range for n={n}")
            if t & 1:
                raise ValueError("all-false input row must output false")
            if not (t >> (rows - 1)) & 1:
                raise ValueError("all-true input row must output true")
        self._set(n=n, m=m, tables=tables)


def candidates_total(n: int, m: int) -> int:
    """The number of pinned aggregators: 2^n - 2 free rows per pair."""
    return 1 << ((1 << n) - 2) * comb(m, 2)


def assemble_rule(agg: PairwiseAggregator, n: int, m: int) -> VotingRule | None:
    """Evaluate the aggregator on every profile; the rule exists iff every
    profile's outcome tournament is acyclic.  Pair p's outcome at signature s
    is bit s of its truth table, read through ``rules.tournament_table``."""
    if agg.n != n or agg.m != m:
        raise ValueError(f"aggregator ({agg.n}, {agg.m}) does not match (n={n}, m={m})")
    table = tournament_table(n, m, lambda p, s: agg.tables[p] >> s & 1)
    return None if 255 in table else VotingRule(n, m, table)


def aggregator_from_rule(rule: VotingRule) -> PairwiseAggregator | None:
    """Recover the per-pair aggregator of a rule, or None when some pair's
    outcome is not a function of the voters' comparisons on that pair."""
    tables = _pair_truth_tables(rule)
    try:
        return None if tables is None else PairwiseAggregator(rule.n, rule.m, tables)
    except ValueError:  # a pinned all-agree row is violated
        return None


def _search(n: int, m: int) -> tuple[list[list[list[int]]], int]:
    """Every assignment of the pairs' truth-table rows, the all-agree rows
    pinned, that keeps every candidate triple transitive, and the number of
    search nodes visited.

    Each node sets the outcomes its assignment forces, then branches on the
    first unset row.  A triple's outcomes (A, B, C) on its pairs (a, b),
    (a, c), (b, c) cycle exactly when A == C != B, so A == C forces B = A,
    and A != B or B != C forces the third outcome to equal B."""
    slot = {pair: p for p, pair in enumerate(candidate_pairs(m))}
    triples = [
        (slot[a, b], slot[a, c], slot[b, c]) for a, b, c in itertools.combinations(range(m), 3)
    ]
    columns = signature_columns(n, zip(*_TRANSITIVE))
    solutions, nodes, stack = [], 0, [[[0] + [None] * ((1 << n) - 2) + [1] for _ in slot]]
    while stack:
        outputs, changed, consistent = stack.pop(), True, True
        nodes += 1
        while changed and consistent:
            changed = False
            for ab, ac, bc in triples:
                tab, tac, tbc = outputs[ab], outputs[ac], outputs[bc]
                for x, y, z in zip(*columns):
                    a, b, c = tab[x], tac[y], tbc[z]
                    if b is None:
                        if a is not None and a == c:
                            tac[y], changed = a, True
                    elif a is None:
                        if c is not None and c != b:
                            tab[x], changed = b, True
                    elif c is None:
                        if a != b:
                            tbc[z], changed = b, True
                    elif a == c != b:
                        consistent = False
        unset = [(p, r) for p, t in enumerate(outputs) for r, v in enumerate(t) if v is None]
        if consistent and not unset:
            solutions.append(outputs)
        elif consistent:
            p, r = unset[0]
            for bit in (0, 1):
                child = [list(table) for table in outputs]
                child[p][r] = bit
                stack.append(child)
    return solutions, nodes


class ArrowReport(NamedTuple):
    """Outcome of the exhaustive search: every total rule found, with its
    candidate index among the ``candidates_scanned`` pinned aggregators and
    its dictatorship status, and the number of search nodes visited."""

    n: int
    m: int
    candidates_scanned: int
    found: tuple[tuple[int, VotingRule], ...]
    dictators: tuple[int | None, ...]
    search_nodes: int

    @property
    def all_dictators(self) -> bool:
        return all(d is not None for d in self.dictators)


def verify_arrow(n: int, m: int) -> ArrowReport:
    """Search every pinned aggregator combination, assemble each solution into
    a rule, and report the rules in increasing candidate index: the
    lexicographic counter with pair 0 most significant and, within a pair,
    bit r - 1 the output at row r."""
    if m < 3:
        raise ValueError(f"the theorem needs at least three candidates, got m={m}")
    check_scale(n, m)
    solutions, nodes = _search(n, m)
    found = []
    for outputs in solutions:
        agg = PairwiseAggregator(n, m, [sum(v << r for r, v in enumerate(t)) for t in outputs])
        index = int("0" + "".join(str(v) for t in outputs for v in reversed(t[1:-1])), 2)
        rule = assemble_rule(agg, n, m)
        if rule is None:
            raise RuntimeError(f"search accepted candidate {index} but assembly found a cycle")
        found.append((index, rule))
    found.sort(key=operator.itemgetter(0))
    dictators = tuple(is_dictatorship(rule) for _, rule in found)
    return ArrowReport(n, m, candidates_total(n, m), tuple(found), dictators, nodes)
