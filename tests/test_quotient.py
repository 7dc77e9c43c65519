import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_kernels as ref
from arrowlab.measures import Distribution, star_distribution, uniform_distribution
from arrowlab.orders import enumerate_orders
from arrowlab.quotient import (
    EquivalencePartition,
    FiniteMetricSpace,
    MetricCheckReport,
    _find_class_preserving_isometry,
    check_metric_axioms,
    load_fixture,
    quotient_distance_chain,
    quotient_distance_orbit,
    random_orbit_fixture,
    rule_distance,
    save_fixture,
    space_from_rules,
    verify_orbit_partition,
)
from arrowlab.rules import dictator, random_pareto_rule


def chain_length_oracle(space, part, x, y):
    """Exhaustive enumeration over simple class paths.

    Moves inside a class are free, so a chain's cost decomposes into one
    minimum-distance hop per consecutive class pair, and an optimal chain
    never revisits a class.
    """
    classes = part.classes()
    ids = list(classes)

    def hop(p, q):
        return min(space.dist[b][a] for b in classes[p] for a in classes[q])

    target = part.class_of[y]
    best = [None]

    def dfs(cur, seen, acc):
        if cur == target:
            if best[0] is None or acc < best[0]:
                best[0] = acc
            return
        for nxt in ids:
            if nxt not in seen:
                dfs(nxt, seen | {nxt}, acc + hop(cur, nxt))

    dfs(part.class_of[x], {part.class_of[x]}, Fraction(0))
    return best[0]


def _four_point_fixture():
    # points: a, b, b', c with b ~ b'
    d = {
        (0, 1): Fraction(3),   # a-b
        (0, 2): Fraction(7),   # a-b'
        (0, 3): Fraction(10),  # a-c
        (1, 2): Fraction(5),   # b-b'
        (1, 3): Fraction(8),   # b-c
        (2, 3): Fraction(4),   # b'-c
    }
    matrix = [[Fraction(0)] * 4 for _ in range(4)]
    for (i, j), v in d.items():
        matrix[i][j] = v
        matrix[j][i] = v
    space = FiniteMetricSpace(("a", "b", "b2", "c"), tuple(tuple(r) for r in matrix))
    part = EquivalencePartition((0, 1, 1, 2))
    return space, part


def test_rule_distance_self_is_zero():
    mu = uniform_distribution(2, 3)
    f = random_pareto_rule(2, 3, 0)
    assert rule_distance(mu, f, f) == 0


def test_rule_distance_dictators():
    mu = uniform_distribution(2, 3)
    assert rule_distance(mu, dictator(2, 3, 0), dictator(2, 3, 1)) == Fraction(5, 6)


def test_rule_distance_symmetric():
    mu = uniform_distribution(2, 3)
    for seed in range(5):
        f = random_pareto_rule(2, 3, seed)
        g = random_pareto_rule(2, 3, seed + 100)
        assert rule_distance(mu, f, g) == rule_distance(mu, g, f)


def test_rule_distance_rejects_mismatch():
    with pytest.raises(ValueError):
        rule_distance(uniform_distribution(2, 3), dictator(2, 3, 0), dictator(3, 3, 0))


def test_chain_distance_zero_within_class():
    space, part = _four_point_fixture()
    assert quotient_distance_chain(space, part, 1, 2) == 0


def test_chain_distance_with_singleton_partition_is_plain_distance():
    space, _ = _four_point_fixture()
    part = EquivalencePartition(range(4))
    for i in range(4):
        for j in range(4):
            assert quotient_distance_chain(space, part, i, j) == space.dist[i][j]


def test_chain_distance_four_point_fixture():
    space, part = _four_point_fixture()
    assert check_metric_axioms(space).ok
    # a -> b (3), free hop b ~ b', b' -> c (4)
    assert quotient_distance_chain(space, part, 0, 3) == Fraction(7)
    assert chain_length_oracle(space, part, 0, 3) == Fraction(7)


def test_chain_never_exceeds_plain_distance():
    for seed in range(10):
        space, part = random_orbit_fixture(8, seed)
        for i in range(8):
            for j in range(8):
                assert quotient_distance_chain(space, part, i, j) <= space.dist[i][j]


def test_chain_matches_oracle_on_random_partitions():
    rng = random.Random(5)
    for seed in range(10):
        space, _ = random_orbit_fixture(7, seed)
        part = EquivalencePartition(tuple(rng.randrange(3) for _ in range(7)))
        for i in range(7):
            for j in range(7):
                assert quotient_distance_chain(space, part, i, j) == chain_length_oracle(
                    space, part, i, j
                )


def test_chain_satisfies_pseudometric_axioms():
    rng = random.Random(11)
    space, _ = random_orbit_fixture(7, 42)
    part = EquivalencePartition(tuple(rng.randrange(3) for _ in range(7)))
    d = [[quotient_distance_chain(space, part, i, j) for j in range(7)] for i in range(7)]
    for i in range(7):
        assert d[i][i] == 0
        for j in range(7):
            assert d[i][j] == d[j][i]
            for k in range(7):
                assert d[i][k] <= d[i][j] + d[j][k]


def test_orbit_distance_examples():
    space, part = _four_point_fixture()
    assert quotient_distance_orbit(space, part, 1, 2) == 0
    singles = EquivalencePartition(range(4))
    assert quotient_distance_orbit(space, singles, 0, 3) == Fraction(10)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000))
def test_chain_equals_orbit_on_isometry_orbit_fixtures(n_points, seed):
    space, part = random_orbit_fixture(n_points, seed)
    assert verify_orbit_partition(space, part)
    for x in range(n_points):
        for y in range(n_points):
            assert quotient_distance_chain(space, part, x, y) == quotient_distance_orbit(
                space, part, x, y
            )


def test_verify_orbit_partition_rejects_non_orbit_classes():
    # d(x,z) != d(y,z) makes x and y non-exchangeable, so {x, y} is not an orbit.
    matrix = (
        (Fraction(0), Fraction(1), Fraction(2)),
        (Fraction(1), Fraction(0), Fraction(3)),
        (Fraction(2), Fraction(3), Fraction(0)),
    )
    space = FiniteMetricSpace((0, 1, 2), matrix)
    part = EquivalencePartition((0, 0, 1))
    assert not verify_orbit_partition(space, part)


def _has_class_preserving_isometry(space, part, src, dst):
    """Enumerate every permutation: one that keeps each point in its class,
    preserves every distance and sends ``src`` to ``dst``."""
    n, d, cls = space.size, space.dist, part.class_of
    return any(
        sigma[src] == dst
        and all(cls[sigma[p]] == cls[p] for p in range(n))
        and all(d[p][q] == d[sigma[p]][sigma[q]] for p in range(n) for q in range(n))
        for sigma in itertools.permutations(range(n))
    )


def test_orbit_verdicts_match_permutation_enumeration():
    """Symmetric spaces of 1-6 points with distances in {1, 2} and random
    labels in 3 classes: the search's verdict for every ordered pair of one
    class, and the partition's, equal those of enumerating permutations."""
    verdicts = []
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randrange(1, 7)
        space = FiniteMetricSpace.from_function(range(n), lambda i, j: rng.randrange(1, 3))
        part = EquivalencePartition(tuple(rng.randrange(3) for _ in range(n)))
        pairs = [(p, q) for p, q in itertools.product(range(n), repeat=2) if part.same_class(p, q)]
        truth = [_has_class_preserving_isometry(space, part, p, q) for p, q in pairs]
        assert [_find_class_preserving_isometry(space, part, p, q) for p, q in pairs] == truth, seed
        assert verify_orbit_partition(space, part) is all(truth), seed
        verdicts.append(all(truth))
    assert (verdicts.count(True), verdicts.count(False)) == (196, 204)


def test_from_function_calls_once_per_pair_in_row_major_order():
    calls = []

    def fn(p, q):
        calls.append((p, q))
        return len(calls)

    space = FiniteMetricSpace.from_function("abcd", fn)
    assert calls == [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    assert space.points == tuple("abcd")
    assert space.dist == (
        (Fraction(0), Fraction(1), Fraction(2), Fraction(3)),
        (Fraction(1), Fraction(0), Fraction(4), Fraction(5)),
        (Fraction(2), Fraction(4), Fraction(0), Fraction(6)),
        (Fraction(3), Fraction(5), Fraction(6), Fraction(0)),
    )
    assert all(type(v) is Fraction for row in space.dist for v in row)


def test_metric_axioms_pass_for_full_support_rule_space():
    mu = uniform_distribution(2, 3)
    rules = [random_pareto_rule(2, 3, seed) for seed in range(12)]
    rules += [dictator(2, 3, 0), dictator(2, 3, 1)]
    assert check_metric_axioms(space_from_rules(mu, rules)).ok


def test_metric_axioms_detect_identity_violation_off_support():
    weights = [Fraction(0)] * 36
    weights[0] = Fraction(1)
    mu = Distribution(2, 3, tuple(weights))
    f = dictator(2, 3, 0)
    table = list(f.table)
    table[7] = (table[7] + 1) % 6  # differs only off the support
    g = type(f)(2, 3, tuple(table))
    report = check_metric_axioms(space_from_rules(mu, (f, g)))
    assert not report.ok
    assert report.violation == "zero-distance-distinct-points"


def test_metric_axioms_single_point_space():
    space = FiniteMetricSpace(("p",), ((Fraction(0),),))
    assert check_metric_axioms(space).ok


def test_metric_axioms_detect_asymmetry_and_triangle():
    asym = FiniteMetricSpace(
        (0, 1), ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0)))
    )
    assert check_metric_axioms(asym).violation == "asymmetry"
    tri = FiniteMetricSpace(
        (0, 1, 2),
        (
            (Fraction(0), Fraction(1), Fraction(5)),
            (Fraction(1), Fraction(0), Fraction(1)),
            (Fraction(5), Fraction(1), Fraction(0)),
        ),
    )
    assert check_metric_axioms(tri).violation == "triangle"


def _matrix(rows):
    return FiniteMetricSpace(tuple(range(len(rows))), tuple(tuple(map(Fraction, r)) for r in rows))


# One matrix per violation kind and triangle orientation, and one that ties
# the triangle inequality, with the report the ``Fraction`` loops give it; the
# mixed denominators make the integer check scale every entry.
VIOLATIONS = [
    ([["0", "1/3"], ["1/3", "1/7"]], MetricCheckReport(False, "nonzero-self-distance", (1,))),
    (
        [["0", "-1/6", "1/2"], ["-1/6", "0", "1/3"], ["1/2", "1/3", "0"]],
        MetricCheckReport(False, "negative-distance", (0, 1)),
    ),
    (
        [["0", "1/2", "1/3"], ["1/2", "0", "1/5"], ["1/3", "2/9", "0"]],
        MetricCheckReport(False, "asymmetry", (1, 2)),
    ),
    (
        [["0", "1/4", "0"], ["1/4", "0", "1/4"], ["0", "1/4", "0"]],
        MetricCheckReport(False, "zero-distance-distinct-points", (0, 2)),
    ),
    (
        [["0", "1/3", "6/7"], ["1/3", "0", "1/2"], ["6/7", "1/2", "0"]],
        MetricCheckReport(False, "triangle", (0, 1, 2)),
    ),
    (
        [["0", "6/7", "1/3"], ["6/7", "0", "1/2"], ["1/3", "1/2", "0"]],
        MetricCheckReport(False, "triangle", (0, 2, 1)),
    ),
    (
        [["0", "1/3", "1/2"], ["1/3", "0", "6/7"], ["1/2", "6/7", "0"]],
        MetricCheckReport(False, "triangle", (1, 0, 2)),
    ),
    ([["0", "1/3", "1/2"], ["1/3", "0", "5/6"], ["1/2", "5/6", "0"]], MetricCheckReport(True)),
]


@pytest.mark.parametrize(
    "rows, expected", VIOLATIONS, ids=[f"{r.violation}{r.witness}" for _, r in VIOLATIONS]
)
def test_integer_metric_check_reports_each_violation_as_the_fraction_check(rows, expected):
    space = _matrix(rows)
    assert check_metric_axioms(space) == expected == ref.check_metric_axioms(space)


def test_integer_metric_check_equals_the_fraction_check_on_seeded_spaces():
    """Rule spaces under uniform, star and an off-support distribution, and
    random matrices of mixed denominators, some of them negative, asymmetric
    or short of the triangle inequality."""
    spaces = []
    for n, m in ((2, 3), (3, 3)):
        rules = [random_pareto_rule(n, m, seed) for seed in range(10)]
        rules += [dictator(n, m, i) for i in range(n)]
        star = star_distribution(n, m, Fraction(1, 3), enumerate_orders(m)[1])
        weights = [Fraction(0)] * 6**n
        weights[:2] = Fraction(1, 2), Fraction(1, 2)
        for mu in (uniform_distribution(n, m), star, Distribution(n, m, tuple(weights))):
            spaces.append(space_from_rules(mu, rules))
    rng = random.Random(7)
    for _ in range(300):
        size = rng.randrange(1, 6)
        rows = [[Fraction(rng.randrange(-1, 9), rng.randrange(1, 7)) for _ in range(size)] for _ in range(size)]
        for i in range(size):
            rows[i][i] = Fraction(0) if rng.random() < 0.9 else rows[i][i]
            for j in range(i):
                if rng.random() < 0.9:
                    rows[i][j] = rows[j][i]
        spaces.append(_matrix(rows))
    reports = [check_metric_axioms(space) for space in spaces]
    assert reports == [ref.check_metric_axioms(space) for space in spaces]
    kinds = {"nonzero-self-distance", "negative-distance", "asymmetry", "zero-distance-distinct-points"}
    assert {r.violation for r in reports} == {None, "triangle", *kinds}


def test_fixture_file_round_trip(tmp_path):
    space, part = random_orbit_fixture(6, 9)
    path = tmp_path / "fixture.json"
    save_fixture(space, part, path)
    loaded_space, loaded_part = load_fixture(path)
    assert loaded_space.dist == space.dist
    assert loaded_part == part


@pytest.mark.parametrize(
    "n_points, seed, prefix", [(7, 42, "014f52c8f6302dfd"), (12, 3, "742129558e5950f7")]
)
def test_fixture_bytes_are_pinned(tmp_path, n_points, seed, prefix):
    # The SHA-256 prefixes pin the seeded draw order and the saved bytes; a
    # loaded fixture saves back to the same bytes.
    path, again = tmp_path / "fixture.json", tmp_path / "again.json"
    save_fixture(*random_orbit_fixture(n_points, seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == prefix
    save_fixture(*load_fixture(path), again)
    assert again.read_bytes() == path.read_bytes()


_FIXTURE = {"format_version": 1, "points": 3, "dist": ["1/2", "1/3", "1/4"], "classes": [0, 0, 2]}


def test_load_fixture_accepts_well_formed_record(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(_FIXTURE))
    space, part = load_fixture(path)
    assert space.dist[0][2] == Fraction(1, 3) == space.dist[2][0]
    assert part.class_of == (0, 0, 2)


@pytest.mark.parametrize(
    "record",
    [
        [_FIXTURE],
        {key: v for key, v in _FIXTURE.items() if key != "points"},
        {**_FIXTURE, "points": 3.0},
        {**_FIXTURE, "points": -1},
        {key: v for key, v in _FIXTURE.items() if key != "dist"},
        {**_FIXTURE, "dist": "1/2"},
        {**_FIXTURE, "dist": ["1/2", "1/3", 0.25]},
        {**_FIXTURE, "dist": ["1/2", "1/3", "1/0"]},
        {**_FIXTURE, "dist": ["1/2", "1/3", "1e10000000"]},
        {key: v for key, v in _FIXTURE.items() if key != "classes"},
        {**_FIXTURE, "classes": {"0": 0}},
        {**_FIXTURE, "classes": [0, 0, "2"]},
        {**_FIXTURE, "classes": [0, 0]},
    ],
    ids=[
        "not-object",
        "missing-points",
        "float-points",
        "negative-points",
        "missing-dist",
        "dist-not-list",
        "float-distance",
        "zero-denominator",
        "exponent-distance",
        "missing-classes",
        "classes-not-list",
        "string-class",
        "short-classes",
    ],
)
def test_load_fixture_schema(record, tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(record))
    with pytest.raises(ValueError):
        load_fixture(path)
