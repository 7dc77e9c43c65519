"""Seeded rule tables for the benchmark, made without calling arrowlab.

Both commits of a comparison get byte-identical rule files for the same seed,
whatever the program's own rule constructors do.  Tables follow arrowlab's
conventions: an order's index is its lexicographic rank among the
permutations of ``range(m)``, and a profile's index is the base-``m!`` number
of its ballot indices with voter 0 most significant.
"""

from __future__ import annotations

import itertools
import json
from math import factorial
from pathlib import Path

import numpy as np


def orders(m: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(m)))


def pairs(m: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(m) for b in range(a + 1, m)]


def above_matrix(m: int) -> np.ndarray:
    """above[o, p]: order ``o`` ranks the first candidate of pair ``p`` higher."""
    return np.array(
        [[o.index(a) < o.index(b) for a, b in pairs(m)] for o in orders(m)], dtype=bool
    )


def digit_matrix(n: int, m: int) -> np.ndarray:
    """digits[k, i]: ballot index of voter ``i`` in the profile with index ``k``."""
    mf = factorial(m)
    k = np.arange(mf**n, dtype=np.int64)
    return np.stack([(k // mf ** (n - 1 - i)) % mf for i in range(n)], axis=1)


def pareto_allowed(n: int, m: int) -> np.ndarray:
    """allowed[k, o]: output ``o`` keeps every unanimous comparison of profile ``k``."""
    above = above_matrix(m)
    ballots = above[digit_matrix(n, m)]  # (size, n, pairs)
    all_above = ballots.all(axis=1)
    all_below = (~ballots).all(axis=1)
    allowed = np.ones((ballots.shape[0], above.shape[0]), dtype=bool)
    for p in range(above.shape[1]):
        allowed &= ~all_above[:, p, None] | above[None, :, p]
        allowed &= ~all_below[:, p, None] | ~above[None, :, p]
    return allowed


def random_pareto_table(n: int, m: int, seed: int) -> np.ndarray:
    """Each profile's output drawn uniformly among its Pareto-consistent orders."""
    allowed = pareto_allowed(n, m)
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, allowed.sum(axis=1))
    return (allowed.cumsum(axis=1) > pick[:, None]).argmax(axis=1)


def majority_table(n: int, m: int, tiebreak: tuple[int, ...] | None = None) -> np.ndarray:
    """Pairwise majority, a tied pair won by the candidate ranked higher in
    ``tiebreak`` (default ``0, 1, ..., m-1``); a profile whose majority
    tournament cycles gets its lowest-index Pareto-consistent order."""
    tiebreak = tuple(range(m)) if tiebreak is None else tiebreak
    above = above_matrix(m)
    votes = above[digit_matrix(n, m)].sum(axis=1)  # (size, pairs)
    outdeg = np.zeros((votes.shape[0], m), dtype=np.int64)
    for p, (a, b) in enumerate(pairs(m)):
        tie_to_a = tiebreak.index(a) < tiebreak.index(b)
        a_wins = (2 * votes[:, p] > n) | ((2 * votes[:, p] == n) & tie_to_a)
        outdeg[:, a] += a_wins
        outdeg[:, b] += ~a_wins
    # A tournament is transitive iff its out-degrees are 0..m-1; the order then
    # lists candidates by falling out-degree, and its index is looked up by
    # the out-degree vector.
    place = m ** np.arange(m, dtype=np.int64)
    lookup = np.full(m**m, -1, dtype=np.int64)
    for i, o in enumerate(orders(m)):
        lookup[sum((m - 1 - o.index(c)) * place[c] for c in range(m))] = i
    ranked = lookup[outdeg @ place]
    fallback = pareto_allowed(n, m).argmax(axis=1)
    return np.where(ranked >= 0, ranked, fallback)


def cylinder_table(base: np.ndarray, m: int) -> np.ndarray:
    """The rule on one more voter that ignores the trailing voter: ``base[k // m!]``."""
    return np.repeat(base, factorial(m))


def write_rule(path: Path, n: int, m: int, table: np.ndarray) -> None:
    record = {"format_version": 1, "n": n, "m": m, "table": table.tolist()}
    path.write_text(json.dumps(record, sort_keys=True) + "\n")
