import itertools
from math import factorial

import pytest

from arrowlab.orders import (
    LinearOrder,
    VoterPermutation,
    all_voter_permutations,
    check_scale,
    encode_digits,
    enumerate_orders,
    order_index,
    profile_digit_tuples,
    tournament_orders,
)
from arrowlab.rules import compose_voter_permutation, dictator, random_pareto_rule


def test_enumerate_orders_single_candidate():
    orders = enumerate_orders(1)
    assert len(orders) == 1
    assert orders[0].ranking == (0,)


def test_enumerate_orders_three_candidates():
    orders = enumerate_orders(3)
    assert len(orders) == 6
    assert orders[0].ranking == (0, 1, 2)
    assert len(set(orders)) == 6


def test_enumerate_orders_four_candidates():
    assert len(enumerate_orders(4)) == 24


def test_enumerate_orders_rejects_zero():
    with pytest.raises(ValueError):
        enumerate_orders(0)


def test_prefers():
    o = LinearOrder((0, 1, 2))
    assert o.prefers(0, 2)
    assert not o.prefers(2, 0)
    assert LinearOrder((2, 0, 1)).prefers(2, 1)


def test_prefers_rejects_bad_candidates():
    o = LinearOrder((0, 1, 2))
    with pytest.raises(ValueError):
        o.prefers(1, 1)
    with pytest.raises(ValueError):
        o.prefers(0, 3)


def test_linear_order_rejects_non_permutations():
    with pytest.raises(ValueError):
        LinearOrder((0, 0, 1))
    with pytest.raises(ValueError):
        LinearOrder((0, 2))
    with pytest.raises(ValueError):
        LinearOrder(())


def test_profile_index_examples():
    assert encode_digits((0, 0), 3) == 0
    assert encode_digits((0, 1), 3) == 1
    assert encode_digits((5, 5), 3) == 35


def test_profile_index_round_trip():
    """``encode_digits`` of the k-th digit tuple is k: voter 0's ballot is the
    most significant digit, the convention of every table and file format."""
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            digits = profile_digit_tuples(n, m)
            assert len(digits) == factorial(m) ** n
            assert all(encode_digits(d, m) == k for k, d in enumerate(digits))


def test_group_action_law():
    """Composing a rule with pi, then sigma, is composing it once with the
    permutation whose seat i holds ``sigma.mapping[pi.mapping[i]]``; the
    seeded rule is asymmetric enough that the other order fails."""
    rule = random_pareto_rule(3, 3, 5)
    perms = all_voter_permutations(3)
    for pi in perms:
        for sigma in perms:
            stepwise = compose_voter_permutation(compose_voter_permutation(rule, pi), sigma)
            once = VoterPermutation(tuple(sigma.mapping[j] for j in pi.mapping))
            assert stepwise == compose_voter_permutation(rule, once)


def test_compose_voter_permutation_rejects_a_wrong_size():
    with pytest.raises(ValueError, match="permutation on 2 voters, rule has 3"):
        compose_voter_permutation(dictator(3, 3, 0), VoterPermutation((1, 0)))


def test_order_index_is_lexicographic_rank():
    for m in (1, 2, 3, 4):
        for i, o in enumerate(enumerate_orders(m)):
            assert order_index(o) == i


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_tournament_order_on_every_tournament(m):
    pairs = list(itertools.combinations(range(m), 2))
    table = tournament_orders(m)
    assert len(table) == 2 ** len(pairs)
    for outcomes in itertools.product((True, False), repeat=len(pairs)):
        beats = {(a, b) if first else (b, a) for (a, b), first in zip(pairs, outcomes)}
        cyclic = any(
            {(a, b), (b, c), (c, a)} <= beats or {(b, a), (c, b), (a, c)} <= beats
            for a, b, c in itertools.combinations(range(m), 3)
        )
        index = table[sum(first << p for p, first in enumerate(outcomes))]
        if cyclic:
            assert index is None
        else:
            order = enumerate_orders(m)[index]
            assert all(order.prefers(a, b) == ((a, b) in beats) for a, b in pairs)


def test_scale_guard(monkeypatch):
    monkeypatch.delenv("ARROWLAB_SCALE_OVERRIDE", raising=False)
    with pytest.raises(ValueError):
        check_scale(5, 3)
    with pytest.raises(ValueError):
        check_scale(2, 5)
    check_scale(4, 4)
    monkeypatch.setenv("ARROWLAB_SCALE_OVERRIDE", "1")
    check_scale(5, 3)


@pytest.mark.parametrize("n,m", [(1, 6), (2, 9), (8, 2)])
def test_scale_override_keeps_the_one_byte_limit(n, m, monkeypatch):
    """6! = 720 rankings do not fit in a byte, nor does a doubled 8-voter
    pair signature; the override lifts the desk bound only."""
    monkeypatch.setenv("ARROWLAB_SCALE_OVERRIDE", "1")
    message = f"^scale \\(n={n}, m={m}\\) exceeds the one-byte table limit \\(n <= 7, m <= 5\\)"
    with pytest.raises(ValueError, match=message) as exc:
        check_scale(n, m)
    assert "\n" not in str(exc.value)
    check_scale(7, 2)
    check_scale(1, 5)
