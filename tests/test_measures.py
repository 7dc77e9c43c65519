import json
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowlab.measures import (
    Distribution,
    format_rational,
    has_full_support,
    is_permutation_invariant,
    lift_distribution,
    load_distribution,
    parse_rational,
    save_distribution,
    star_distribution,
    uniform_distribution,
)
from arrowlab.orders import encode_digits, enumerate_orders

ORDERS3 = enumerate_orders(3)


def test_uniform_two_voters():
    mu = uniform_distribution(2, 3)
    assert len(mu.weights) == 36
    assert all(w == Fraction(1, 36) for w in mu.weights)
    assert has_full_support(mu)
    assert is_permutation_invariant(mu)


def test_uniform_one_voter():
    mu = uniform_distribution(1, 3)
    assert mu.weights == (Fraction(1, 6),) * 6


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(1, 3, (Fraction(1, 6),) * 5)
    with pytest.raises(ValueError):
        Distribution(1, 3, (Fraction(1, 3),) * 6)
    with pytest.raises(ValueError):
        Distribution(1, 3, (Fraction(-1, 6), Fraction(2, 6)) + (Fraction(1, 6),) * 4)
    with pytest.raises(TypeError):
        Distribution(1, 3, (1 / 6,) * 6)


def test_star_weights():
    mu = star_distribution(2, 3, Fraction(1, 2), ORDERS3[0])
    assert mu.weights[encode_digits((0, 0), 3)] == Fraction(1, 2)
    others = [w for k, w in enumerate(mu.weights) if k != 0]
    assert others == [Fraction(1, 70)] * 35
    assert has_full_support(mu)


def test_star_epsilon_bound_is_strict():
    with pytest.raises(ValueError):
        star_distribution(2, 3, Fraction(2, 3), ORDERS3[0])
    with pytest.raises(ValueError):
        star_distribution(2, 3, Fraction(3, 4), ORDERS3[0])
    with pytest.raises(ValueError):
        star_distribution(2, 3, Fraction(0), ORDERS3[0])
    star_distribution(2, 3, Fraction(2, 3) - Fraction(1, 1000), ORDERS3[0])


def test_star_needs_three_candidates():
    with pytest.raises(ValueError):
        star_distribution(2, 2, Fraction(1, 4), enumerate_orders(2)[0])


def test_star_is_permutation_invariant():
    mu = star_distribution(2, 3, Fraction(1, 2), ORDERS3[0])
    assert is_permutation_invariant(mu)


def test_star_unanimous_weight_dominates():
    for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(13, 20)):
        mu = star_distribution(2, 3, eps, ORDERS3[1])
        top = encode_digits((1, 1), 3)
        assert all(mu.weights[top] > w for k, w in enumerate(mu.weights) if k != top)


def test_lift_of_uniform_single_voter_is_uniform():
    mu = lift_distribution(uniform_distribution(1, 3), 1)
    assert mu.n == 2
    assert mu.weights == (Fraction(1, 36),) * 36


def test_lift_mass_is_exactly_one():
    nu = star_distribution(2, 3, Fraction(1, 2), ORDERS3[0])
    mu = lift_distribution(nu, 2)
    assert sum(mu.weights) == 1


def test_lift_of_star_full_support_and_invariant():
    nu = star_distribution(2, 3, Fraction(1, 2), ORDERS3[0])
    mu = lift_distribution(nu, 2)
    assert mu.n == 3 and len(mu.weights) == 216
    assert has_full_support(mu)
    assert is_permutation_invariant(mu)


def test_lift_is_independent_of_dropped_seat():
    nu = star_distribution(2, 3, Fraction(1, 3), ORDERS3[2])
    lifts = [lift_distribution(nu, i) for i in range(3)]
    assert lifts[0] == lifts[1] == lifts[2]


def test_lift_rejects_bad_seat():
    with pytest.raises(ValueError):
        lift_distribution(uniform_distribution(1, 3), 2)


@st.composite
def _distributions(draw, n=2, m=3):
    size = factorial(m) ** n
    raw = draw(st.lists(st.integers(0, 8), min_size=size, max_size=size))
    total = sum(raw)
    if total == 0:
        raw[0] = 1
        total = 1
    return Distribution(n, m, tuple(Fraction(v, total) for v in raw))


@settings(max_examples=25, deadline=None)
@given(_distributions(n=1, m=3))
def test_lift_invariants_on_random_inputs(nu):
    mu = lift_distribution(nu, 1)
    assert sum(mu.weights) == 1
    assert is_permutation_invariant(mu)
    if has_full_support(nu):
        assert has_full_support(mu)


def test_point_mass_properties():
    weights = [Fraction(0)] * 36
    weights[1] = Fraction(1)  # a non-unanimous profile
    mu = Distribution(2, 3, tuple(weights))
    assert not has_full_support(mu)
    assert not is_permutation_invariant(mu)


def test_rational_formatting_round_trip():
    for q in (Fraction(1, 2), Fraction(0), Fraction(3), Fraction(22, 7)):
        text = format_rational(q)
        assert "/" in text
        assert parse_rational(text) == q


@pytest.mark.parametrize("text", ["1e-1000", "1E5", "2/1e3", "1e-1000000"])
def test_parse_rational_refuses_exponent_notation(text):
    with pytest.raises(ValueError, match="exponent notation"):
        parse_rational(text)


def test_exponent_weight_is_refused_in_milliseconds(tmp_path):
    """``Fraction("1e10000000")`` expands ten million digits before any
    range check; the loader refuses the notation itself."""
    path = tmp_path / "dist.json"
    weights = ["1e10000000"] + ["1/6"] * 5
    path.write_text(json.dumps({"format_version": 1, "n": 1, "m": 3, "weights": weights}))
    started = time.perf_counter()
    with pytest.raises(ValueError, match="exponent notation"):
        load_distribution(path)
    assert time.perf_counter() - started < 1.0


def test_distribution_file_round_trip(tmp_path):
    mu = star_distribution(2, 3, Fraction(1, 2), ORDERS3[0])
    path = tmp_path / "dist.json"
    save_distribution(mu, path)
    assert load_distribution(path) == mu
    text = path.read_text()
    assert '"1/2"' in text and '"1/70"' in text


def test_numerator_form_is_lowest_terms_and_value_equal():
    by_fractions = Distribution(1, 3, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), 0, 0, 0))
    by_numerators = Distribution.from_numerators(1, 3, (4, 2, 2, 0, 0, 0), 8)
    assert by_fractions == by_numerators
    assert by_numerators.numerators == (2, 1, 1, 0, 0, 0)
    assert by_numerators.denominator == 4
    assert not has_full_support(by_numerators)
    assert "weights" not in vars(by_numerators)
    assert by_numerators.weights == by_fractions.weights


def test_numerator_form_validation():
    with pytest.raises(ValueError):
        Distribution.from_numerators(1, 3, (1,) * 5, 5)
    with pytest.raises(ValueError):
        Distribution.from_numerators(1, 3, (2, -1, 1, 1, 1, 1), 5)
    with pytest.raises(ValueError):
        Distribution.from_numerators(1, 3, (1,) * 6, 7)
    with pytest.raises(TypeError):
        Distribution.from_numerators(1, 3, (1.0,) * 6, 6)


@pytest.mark.parametrize(
    "record",
    [
        {"format_version": 1, "n": 1, "m": 3},
        {"format_version": 1, "n": 1, "m": 3, "weights": ["1/6"] * 5 + [1 / 6]},
        {"format_version": 1, "n": 1.0, "m": 3, "weights": ["1/6"] * 6},
        {"format_version": 1, "n": 1, "weights": ["1/6"] * 6},
        {"format_version": 1, "n": 1, "m": 3, "weights": "1/6"},
        ["1/6"] * 6,
        {"format_version": 1, "n": 1, "m": 3, "weights": ["1/6"] * 5 + ["1/0"]},
    ],
    ids=[
        "missing-weights",
        "float-weight",
        "float-n",
        "missing-m",
        "weights-not-list",
        "not-object",
        "zero-denominator",
    ],
)
def test_load_distribution_schema(record, tmp_path):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(record))
    with pytest.raises(ValueError):
        load_distribution(path)
