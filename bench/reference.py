"""An exact reference for arrowlab's outputs, written apart from the program.

Distributions are integer numerators over one denominator, in closed form;
forces are integer sums of those numerators over the profiles where a
voter's ballot equals the outcome; a transfer step rewrites ballots on the
digit matrix and gathers.  Nothing here imports arrowlab.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

import numpy as np

from inputs import digit_matrix, pareto_allowed


@dataclass(frozen=True)
class Weights:
    """Profile weights ``num[k] / den``."""

    num: np.ndarray
    den: int


def _check_int64(size: int, den: int) -> None:
    # Every force is a sum of at most ``size`` numerators, each at most ``den``.
    if size * den >= 2**62:
        raise OverflowError(f"denominator {den} over {size} profiles may overflow int64")


def uniform(n: int, m: int) -> Weights:
    size = factorial(m) ** n
    return Weights(np.ones(size, dtype=np.int64), size)


def unanimous_index(n: int, m: int, y: int) -> int:
    mf = factorial(m)
    return y * (mf**n - 1) // (mf - 1)


def star(n: int, m: int, epsilon: Fraction, y: int) -> Weights:
    """``1 - epsilon`` on the profile where everyone casts order ``y``, the rest
    of the mass spread evenly."""
    size = factorial(m) ** n
    top, spread = 1 - epsilon, epsilon / (size - 1)
    den = lcm(top.denominator, spread.denominator)
    _check_int64(size, den)
    num = np.full(size, spread.numerator * (den // spread.denominator), dtype=np.int64)
    num[unanimous_index(n, m, y)] = top.numerator * (den // top.denominator)
    return Weights(num, den)


def lift(base: Weights, n: int, m: int) -> Weights:
    """The permutation-averaged lift of a relabeling-invariant ``(n-1)``-voter
    distribution: ``w(x) = (1/(n*m!)) * sum_j base(x without seat j)``."""
    mf = factorial(m)
    digits = digit_matrix(n, m)
    powers = mf ** np.arange(n - 2, -1, -1, dtype=np.int64)
    num = np.zeros(len(digits), dtype=np.int64)
    for j in range(n):
        num += base.num[np.delete(digits, j, axis=1) @ powers]
    den = base.den * n * mf
    _check_int64(len(num), den)
    return Weights(num, den)


def distribution(name: str, n: int, m: int, epsilon: Fraction, y: int) -> Weights:
    if name == "uniform":
        return uniform(n, m)
    if name == "star":
        return star(n, m, epsilon, y)
    if name == "lift-star":
        return lift(star(n - 1, m, epsilon, y), n, m)
    raise ValueError(f"unknown distribution {name!r}")


def rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def digest(n: int, m: int, table: np.ndarray) -> str:
    """SHA-256 over ``"{n}:{m}:" + comma-joined table entries`` (README spec)."""
    payload = f"{n}:{m}:" + ",".join(map(str, table.tolist()))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def dictatorship(table: np.ndarray, digits: np.ndarray) -> int | None:
    for i in range(digits.shape[1]):
        if np.array_equal(table, digits[:, i]):
            return i
    return None


@dataclass(frozen=True)
class Forces:
    values: tuple[Fraction, ...]
    most: tuple[int, ...]
    least: tuple[int, ...]


def forces(table: np.ndarray, digits: np.ndarray, w: Weights) -> Forces:
    values = tuple(
        Fraction(int(w.num[table == digits[:, i]].sum()), w.den) for i in range(digits.shape[1])
    )
    top, bottom = max(values), min(values)
    return Forces(
        values,
        tuple(i for i, v in enumerate(values) if v == top),
        tuple(i for i, v in enumerate(values) if v == bottom),
    )


def transfer(table: np.ndarray, digits: np.ndarray, m: int, fp: Forces) -> np.ndarray:
    """Every least-forceful voter's ballot becomes the first most-forceful
    voter's ballot; the rule is read at the rewritten profile."""
    n = digits.shape[1]
    rewritten = digits.copy()
    rewritten[:, list(fp.least)] = digits[:, [min(fp.most)]]
    powers = factorial(m) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return table[rewritten @ powers]


@dataclass(frozen=True)
class Replay:
    steps: tuple[tuple[str, Forces], ...]
    terminated_by: str
    fixpoint_is_dictatorship: bool


def replay(table: np.ndarray, n: int, m: int, w: Weights, max_steps: int) -> Replay:
    """The transfer map iterated to a fixpoint or the step limit, keeping the
    distinct iterates."""
    digits = digit_matrix(n, m)
    current, fp = table, forces(table, digits, w)
    steps = [(digest(n, m, current), fp)]
    terminated = "step-limit"
    for _ in range(max_steps):
        nxt = transfer(current, digits, m, fp)
        if np.array_equal(nxt, current):
            terminated = "fixpoint"
            break
        current, fp = nxt, forces(nxt, digits, w)
        steps.append((digest(n, m, current), fp))
    is_dict = terminated == "fixpoint" and dictatorship(current, digits) is not None
    return Replay(tuple(steps), terminated, is_dict)


def program_pareto_rule(n: int, m: int, seed: int) -> np.ndarray:
    """arrowlab's seeded Pareto population, redrawn here: profile by profile,
    ``random.Random(seed).randrange`` over the consistent orders in index order."""
    rng = random.Random(seed)
    allowed = pareto_allowed(n, m)
    choices = [np.flatnonzero(row).tolist() for row in allowed]
    return np.array([c[rng.randrange(len(c))] for c in choices], dtype=np.int64)


def collapse_entry(table: np.ndarray, n: int, m: int, w: Weights) -> dict:
    """n transfer steps, then: does the iterate equal the rule read at the
    profile where everyone casts voter i's ballot, for some voter i?"""
    digits = digit_matrix(n, m)
    iterate = table
    for _ in range(n):
        iterate = transfer(iterate, digits, m, forces(iterate, digits, w))
    unit = (factorial(m) ** n - 1) // (factorial(m) - 1)
    passed = any(np.array_equal(iterate, table[digits[:, i] * unit]) for i in range(n))
    return {
        "passed": passed,
        "rule_table_digest": digest(n, m, table),
        "iterate_equals_rule": bool(np.array_equal(iterate, table)),
        "iterate_is_dictatorship": dictatorship(iterate, digits) is not None,
    }
