import contextlib
import signal
from fractions import Fraction

import pytest

import fraction_kernels as ref
from arrowlab.arrowcheck import (
    PairwiseAggregator,
    aggregator_from_rule,
    assemble_rule,
    candidates_total,
    verify_arrow,
)
from arrowlab.dynamics import replay_contradiction
from arrowlab.orders import enumerate_orders
from arrowlab.rules import (
    cylinder_extend,
    dictator,
    is_dictatorship,
    is_iia,
    is_pareto,
    pairwise_majority_rule,
)
from fraction_kernels import aggregator_from_candidate_index, projection_aggregator

ORDERS3 = enumerate_orders(3)


def test_projection_aggregators_assemble_to_dictators():
    for n in (1, 2, 3):
        for voter in range(n):
            rule = assemble_rule(projection_aggregator(n, 3, voter), n, 3)
            assert rule == dictator(n, 3, voter)


def test_aggregator_round_trip_on_dictators():
    for n in (1, 2, 3):
        for voter in range(n):
            rule = dictator(n, 3, voter)
            agg = aggregator_from_rule(rule)
            assert agg is not None
            assert assemble_rule(agg, n, 3) == rule


def test_aggregator_from_non_iia_rule_is_none():
    assert aggregator_from_rule(pairwise_majority_rule(2, 3)) is None
    assert aggregator_from_rule(ref.borda_rule(2, 3)) is None


def test_aggregator_pinning_enforced():
    rows = 1 << 2
    with pytest.raises(ValueError):
        PairwiseAggregator(2, 3, (1,) * 3)  # all-false row outputs true
    with pytest.raises(ValueError):
        PairwiseAggregator(2, 3, (0,) * 3)  # all-true row outputs false
    ok = (1 << (rows - 1),) * 3
    PairwiseAggregator(2, 3, ok)


def test_majority_pair_tables_with_voter_zero_tiebreak_assemble_to_that_voter():
    # On two voters, agreement keeps the shared direction and a split defers
    # to voter 0, so every pair function is voter 0's projection.
    agg = projection_aggregator(2, 3, 0)
    rule = assemble_rule(agg, 2, 3)
    assert rule == dictator(2, 3, 0)
    assert rule == pairwise_majority_rule(2, 3, tiebreak_voter=0)


def test_mixed_projection_aggregator_hits_a_cycle():
    proj0 = projection_aggregator(2, 3, 0).tables[0]
    proj1 = projection_aggregator(2, 3, 1).tables[0]
    mixed = PairwiseAggregator(2, 3, (proj0, proj1, proj0))
    assert assemble_rule(mixed, 2, 3) is None


def test_candidate_index_decode():
    # index 0 leaves every free row false: only the pinned all-true row outputs true
    agg0 = aggregator_from_candidate_index(0, 2, 3)
    assert agg0.tables == (0b1000,) * 3
    # the least significant free bit belongs to the last pair's first free row
    agg1 = aggregator_from_candidate_index(1, 2, 3)
    assert agg1.tables == (0b1000, 0b1000, 0b1010)
    with pytest.raises(ValueError):
        aggregator_from_candidate_index(candidates_total(2, 3), 2, 3)


def test_verify_arrow_one_voter():
    report = verify_arrow(1, 3)
    assert report.candidates_scanned == 1
    assert len(report.found) == 1
    assert report.dictators == (0,)


def test_verify_arrow_two_voters():
    report = verify_arrow(2, 3)
    assert report.candidates_scanned == 64
    assert len(report.found) == 2
    assert report.all_dictators
    assert sorted(report.dictators) == [0, 1]
    for _, rule in report.found:
        assert is_pareto(rule) and is_iia(rule)


def test_verify_arrow_rejects_bad_scales():
    with pytest.raises(ValueError):
        verify_arrow(2, 2)
    with pytest.raises(ValueError):
        verify_arrow(0, 3)


@pytest.mark.parametrize("n, m, stride", [(2, 3, 1), (2, 4, 1), (3, 3, 97)])
def test_scan_agrees_with_assembly(n, m, stride):
    # Assembly walks every profile's whole tournament, so it is an oracle for
    # the per-triple bitmask scan.
    survivors = set(ref.survivors(n, m))
    for c in range(0, candidates_total(n, m), stride):
        assembled = assemble_rule(aggregator_from_candidate_index(c, n, m), n, m)
        assert (c in survivors) == (assembled is not None), c


@pytest.mark.parametrize("n, m", [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4)])
def test_search_finds_what_the_scan_finds(n, m):
    report = verify_arrow(n, m)
    scanned = [
        (c, ref.assemble_rule(aggregator_from_candidate_index(c, n, m), n, m).digest)
        for c in ref.survivors(n, m)
    ]
    assert [(c, rule.digest) for c, rule in report.found] == scanned
    assert report.candidates_scanned == candidates_total(n, m)


def _candidate_index(agg):
    """The enumeration counter of an aggregator, read off its free rows."""
    free = (1 << agg.n) - 2
    digits = [(table >> 1) % (1 << free) for table in agg.tables]
    return sum(d << free * (len(digits) - 1 - p) for p, d in enumerate(digits))


SEARCH_DEADLINE_S = 5


@contextlib.contextmanager
def deadline(seconds):
    """Fail, rather than hang the run, when the block outlives ``seconds``: a
    search that lets too many aggregators through enumerates all of them."""

    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError:
        # Raised afresh: the frame the signal interrupted may carry no line
        # number, which pytest cannot format.
        raise AssertionError(f"still running after {seconds} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("n, m", [(n, m) for m in (3, 4) for n in (1, 2, 3, 4)])
def test_search_finds_exactly_the_dictators_beyond_the_scan(n, m):
    """At every desk scale, exactly the n dictators in 2n - 1 search nodes: a
    binary tree whose n leaves are the dictators, so no branch dead-ends."""
    with deadline(SEARCH_DEADLINE_S):
        report = verify_arrow(n, m)
    assert report.candidates_scanned == candidates_total(n, m)
    assert report.dictators == tuple(range(n))
    indices = [_candidate_index(projection_aggregator(n, m, i)) for i in range(n)]
    assert list(report.found) == [(c, dictator(n, m, i)) for i, c in enumerate(indices)]
    assert report.search_nodes == 2 * n - 1


def test_verify_arrow_four_candidates_two_voters():
    report = verify_arrow(2, 4)
    assert report.candidates_scanned == 4096
    assert len(report.found) == 2
    assert report.all_dictators


def test_replay_with_dictator_base():
    report = replay_contradiction(dictator(2, 3, 0), Fraction(1, 2), ORDERS3[0])
    assert report.transfer_fixed
    assert report.dictator_voter == 0
    assert report.full_support and report.permutation_invariant


def test_replay_with_majority_base_exhibits_non_dictatorial_fixpoint():
    report = replay_contradiction(pairwise_majority_rule(2, 3), Fraction(1, 2), ORDERS3[0])
    assert report.full_support
    assert report.permutation_invariant
    assert report.last_voter_unique_least
    assert report.transfer_fixed
    assert report.dictator_voter is None
    assert report.kept_force_bounds_ok
    # the spec ceiling 2/(n*m!) = 1/9 is false at n = 3: 55/126 > 1/9
    assert report.forces == (Fraction(383, 630), Fraction(383, 630), Fraction(55, 126))
    assert report.last_force_bound_ok is False


def test_replay_rejects_inadmissible_epsilon():
    with pytest.raises(ValueError):
        replay_contradiction(pairwise_majority_rule(2, 3), Fraction(3, 4), ORDERS3[0])
    with pytest.raises(ValueError):
        replay_contradiction(pairwise_majority_rule(2, 3), Fraction(2, 3), ORDERS3[0])


def test_replay_rejects_non_pareto_base():
    from arrowlab.rules import constant_rule

    with pytest.raises(ValueError):
        replay_contradiction(constant_rule(2, 3, ORDERS3[0]), Fraction(1, 2), ORDERS3[0])


def test_every_survivor_is_reconstructible():
    report = verify_arrow(2, 3)
    for index, rule in report.found:
        agg = aggregator_from_rule(rule)
        assert agg is not None
        assert assemble_rule(agg, 2, 3) == rule
        assert is_dictatorship(rule) is not None


def test_cylinder_of_survivors_stays_in_the_family():
    report = verify_arrow(2, 3)
    for _, rule in report.found:
        extended = cylinder_extend(rule)
        assert is_pareto(extended) and is_iia(extended)
