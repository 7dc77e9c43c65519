import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowlab.orders import (
    LinearOrder,
    Profile,
    VoterPermutation,
    all_voter_permutations,
    apply_voter_permutation,
    check_scale,
    enumerate_orders,
    order_index,
    profile_from_index,
    profile_index,
    tournament_orders,
)


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
    orders = enumerate_orders(3)
    assert profile_index(Profile((orders[0], orders[0]))) == 0
    assert profile_index(Profile((orders[0], orders[1]))) == 1
    assert profile_index(Profile((orders[5], orders[5]))) == 35


@settings(max_examples=60)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_profile_index_round_trip(n, m, data):
    import math

    index = data.draw(st.integers(0, math.factorial(m) ** n - 1))
    profile = profile_from_index(index, n, m)
    assert profile_index(profile) == index
    assert profile_from_index(profile_index(profile), n, m) == profile


def _profiles(n, m):
    orders = enumerate_orders(m)
    ballots = st.sampled_from(orders)
    return st.tuples(*[ballots] * n).map(Profile)


def _perms(n):
    return st.sampled_from(all_voter_permutations(n))


def test_apply_identity_and_swap():
    orders = enumerate_orders(3)
    p = Profile((orders[0], orders[3]))
    assert apply_voter_permutation(p, VoterPermutation.identity(2)) == p
    swapped = apply_voter_permutation(p, VoterPermutation((1, 0)))
    assert swapped.ballots == (orders[3], orders[0])


def test_cycle_twice_equals_squared_permutation():
    orders = enumerate_orders(3)
    p = Profile((orders[0], orders[1], orders[2]))
    cycle = VoterPermutation((1, 2, 0))
    twice = apply_voter_permutation(apply_voter_permutation(p, cycle), cycle)
    assert twice == apply_voter_permutation(p, cycle.compose(cycle))


@settings(max_examples=60)
@given(_profiles(3, 3), _perms(3), _perms(3))
def test_group_action_law(p, pi, sigma):
    stepwise = apply_voter_permutation(apply_voter_permutation(p, pi), sigma)
    assert stepwise == apply_voter_permutation(p, pi.compose(sigma))


def test_apply_rejects_length_mismatch():
    orders = enumerate_orders(3)
    with pytest.raises(ValueError):
        apply_voter_permutation(Profile((orders[0],)), VoterPermutation((0, 1)))


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
