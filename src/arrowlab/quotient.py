"""Finite metric spaces, quotient distances, and exact metric-axiom certification.

Two routes to the quotient distance live side by side: the chain route
(Dijkstra over the points, with free moves inside equivalence classes and
ties settled lowest index first) and the orbit route (minimum distance over
class representatives).  The orbit route is only valid when the classes are
orbits of a group of distance-preserving permutations; a brute-force
diagnostic verifies that hypothesis on demand.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .measures import Distribution, format_rational, parse_rational
from .orders import Frozen, read_record
from .rules import VotingRule

FIXTURE_FORMAT_VERSION = 1


class FiniteMetricSpace(Frozen):
    """A finite point set with a dense, exact distance matrix.

    Construction does not enforce the metric axioms; ``check_metric_axioms``
    exists precisely to certify or refute them.
    """

    _fields = ("points", "dist")

    def __init__(self, points: tuple, dist: tuple[tuple[Fraction, ...], ...]):
        points = tuple(points)
        matrix = tuple(tuple(Fraction(v) for v in row) for row in dist)
        size = len(points)
        if len(matrix) != size or any(len(row) != size for row in matrix):
            raise ValueError("distance matrix shape does not match point count")
        self._set(points=points, dist=matrix)

    @property
    def size(self) -> int:
        return len(self.points)

    @staticmethod
    def from_function(points: Sequence, fn: Callable) -> "FiniteMetricSpace":
        """Build the matrix by calling ``fn(p, q)`` once per unordered pair,
        i < j in row-major order; the matrix is symmetric with a zero diagonal."""
        pts = tuple(points)
        matrix = [[0] * len(pts) for _ in pts]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                matrix[i][j] = matrix[j][i] = fn(pts[i], pts[j])
        return FiniteMetricSpace(pts, matrix)


class EquivalencePartition(Frozen):
    """A partition of point indices, stored as a class id per point."""

    _fields = ("class_of",)

    def __init__(self, class_of: tuple[int, ...]):
        self._set(class_of=tuple(class_of))

    def same_class(self, i: int, j: int) -> bool:
        return self.class_of[i] == self.class_of[j]

    def classes(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for i, c in enumerate(self.class_of):
            out.setdefault(c, []).append(i)
        return {c: tuple(members) for c, members in out.items()}


class MetricCheckReport(NamedTuple):
    ok: bool
    violation: str | None = None
    witness: tuple[int, ...] = ()


def rule_distance(mu: Distribution, f: VotingRule, g: VotingRule) -> Fraction:
    """Probability under ``mu`` that two rules elect different rankings."""
    if not (mu.n == f.n == g.n and mu.m == f.m == g.m):
        raise ValueError("distribution and rules disagree on (n, m)")
    return Fraction(mu.denominator - mu.agreement_mass(f.table, g.table)[0], mu.denominator)


def space_from_rules(mu: Distribution, rules: Sequence[VotingRule]) -> FiniteMetricSpace:
    """The finite space of the given rules under the election-disagreement distance."""
    return FiniteMetricSpace.from_function(tuple(rules), lambda f, g: rule_distance(mu, f, g))


def check_metric_axioms(space: FiniteMetricSpace) -> MetricCheckReport:
    """Exhaustively certify nonnegativity, zero diagonal, identity of
    indiscernibles, symmetry, and the triangle inequality; stop at the first
    violation.  The matrix is compared as integer numerators over the lcm of
    its denominators, which orders sums as the ``Fraction``s do."""
    n = space.size
    scale = lcm(*(v.denominator for row in space.dist for v in row))
    d = [[v.numerator * (scale // v.denominator) for v in row] for row in space.dist]
    for i in range(n):
        if d[i][i] != 0:
            return MetricCheckReport(False, "nonzero-self-distance", (i,))
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] < 0:
                return MetricCheckReport(False, "negative-distance", (i, j))
            if d[i][j] != d[j][i]:
                return MetricCheckReport(False, "asymmetry", (i, j))
            if d[i][j] == 0 and space.points[i] != space.points[j]:
                return MetricCheckReport(False, "zero-distance-distinct-points", (i, j))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if d[i][k] > d[i][j] + d[j][k]:
                    return MetricCheckReport(False, "triangle", (i, j, k))
                if d[i][j] > d[i][k] + d[k][j]:
                    return MetricCheckReport(False, "triangle", (i, k, j))
                if d[j][k] > d[j][i] + d[i][k]:
                    return MetricCheckReport(False, "triangle", (j, i, k))
    return MetricCheckReport(True)


def quotient_distance_chain(
    space: FiniteMetricSpace, part: EquivalencePartition, x: int, y: int
) -> Fraction:
    """Minimum total length over chains from x to y, where moving inside an
    equivalence class is free and hopping between points costs their distance.

    Dijkstra with in-class moves at cost 0: the unsettled point of least
    tentative length, lowest index first among ties, is settled next, up to
    y.  The minimum is attained, so the result is exact, not an infimum.
    """
    if x == y:
        return Fraction(0)
    cls, row = part.class_of, space.dist[x]
    tentative = {v: row[v] if cls[v] != cls[x] else Fraction(0) for v in range(space.size)}
    del tentative[x]  # x is settled first; the graph is complete, so all else is reached
    while True:
        u = min(tentative, key=lambda v: (tentative[v], v))
        length = tentative.pop(u)
        if u == y:
            return length
        row = space.dist[u]
        for v, best in tentative.items():
            through = length if cls[v] == cls[u] else length + row[v]
            if through < best:
                tentative[v] = through


def quotient_distance_orbit(
    space: FiniteMetricSpace, part: EquivalencePartition, x: int, y: int
) -> Fraction:
    """Minimum distance over all representatives of the two classes.

    Only agrees with the chain construction when the classes are orbits of a
    group of isometries; that hypothesis is the caller's obligation (see
    ``verify_orbit_partition``).
    """
    if part.same_class(x, y):
        return Fraction(0)
    xs = [i for i in range(space.size) if part.same_class(i, x)]
    ys = [j for j in range(space.size) if part.same_class(j, y)]
    return min(space.dist[i][j] for i in xs for j in ys)


def _find_class_preserving_isometry(
    space: FiniteMetricSpace, part: EquivalencePartition, src: int, dst: int
) -> bool:
    """Backtracking search for a distance-preserving permutation that maps
    every class into itself and sends ``src`` to ``dst``.  ``image`` maps a
    prefix of ``order``; each next point tries its class's unused points in
    index order, keeping one whose distances to the mapped points match."""
    d, cls = space.dist, part.class_of
    order = [src, *(p for p in range(space.size) if p != src)]

    def extend(image: tuple[int, ...]) -> bool:
        if len(image) == len(order):
            return True
        p = order[len(image)]
        return any(
            q not in image
            and cls[q] == cls[p]
            and all(d[p][r] == d[q][s] for r, s in zip(order, image))
            and extend((*image, q))
            for q in range(space.size)
        )

    return cls[src] == cls[dst] and extend((dst,))


def verify_orbit_partition(space: FiniteMetricSpace, part: EquivalencePartition) -> bool:
    """Brute-force check that the partition's classes are the orbits of some
    group of isometries of the space.

    Holds iff, within each class, every point is reachable from the class
    representative by a class-preserving isometry.
    """
    for members in part.classes().values():
        rep = members[0]
        for other in members[1:]:
            if not _find_class_preserving_isometry(space, part, rep, other):
                return False
    return True


def random_orbit_fixture(
    n_points: int, seed: int
) -> tuple[FiniteMetricSpace, EquivalencePartition]:
    """A seeded synthetic space whose partition is an isometry-orbit partition
    by construction.

    A random point permutation generates a cyclic group; its cycles become the
    classes, and each orbit of unordered pairs receives one random distance in
    [1, 2].  Distances in that band satisfy the triangle inequality outright,
    and constancy on pair orbits makes every group element an isometry.
    """
    if n_points < 1:
        raise ValueError("need at least one point")
    rng = random.Random(seed)
    perm = list(range(n_points))
    rng.shuffle(perm)

    class_of = [-1] * n_points
    for start in range(n_points):
        label, p = max(class_of) + 1, start
        while class_of[p] == -1:
            class_of[p] = label
            p = perm[p]

    pair_value: dict[tuple[int, int], Fraction] = {}
    for i in range(n_points):
        for j in range(i + 1, n_points):
            if (i, j) in pair_value:
                continue
            value = Fraction(16 + rng.randrange(17), 16)
            a, b = i, j
            while (min(a, b), max(a, b)) not in pair_value:
                pair_value[min(a, b), max(a, b)] = value
                a, b = perm[a], perm[b]
    space = FiniteMetricSpace.from_function(range(n_points), lambda i, j: pair_value[i, j])
    return space, EquivalencePartition(tuple(class_of))


def save_fixture(
    space: FiniteMetricSpace, part: EquivalencePartition, path: str | Path
) -> None:
    upper = [
        format_rational(space.dist[i][j])
        for i in range(space.size)
        for j in range(i + 1, space.size)
    ]
    record = {
        "format_version": FIXTURE_FORMAT_VERSION,
        "points": space.size,
        "dist": upper,
        "classes": list(part.class_of),
    }
    Path(path).write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")


def load_fixture(path: str | Path) -> tuple[FiniteMetricSpace, EquivalencePartition]:
    record = read_record(Path(path).read_text(), "fixture", FIXTURE_FORMAT_VERSION)
    n, dist, classes = (record.get(key) for key in ("points", "dist", "classes"))
    if type(n) is not int or n < 0:
        raise ValueError("fixture field 'points' is missing or not a non-negative integer")
    if not isinstance(dist, list) or not {*map(type, dist)} <= {str}:
        raise ValueError("fixture field 'dist' is missing or not a list of 'p/q' strings")
    if not isinstance(classes, list) or not {*map(type, classes)} <= {int}:
        raise ValueError("fixture field 'classes' is missing or not a list of integers")
    if len(classes) != n:
        raise ValueError(f"fixture has {len(classes)} class ids for {n} points")
    values = [parse_rational(v) for v in dist]
    if len(values) != n * (n - 1) // 2:
        raise ValueError("upper-triangular distance array has the wrong length")
    upper = iter(values)  # ``from_function`` asks for the pairs in this i < j order
    space = FiniteMetricSpace.from_function(range(n), lambda i, j: next(upper))
    return space, EquivalencePartition(tuple(classes))
