"""Every record and value type of the package is immutable and compares,
hashes and prints by its fields: ``Name(field=value, ...)``, equal when the
class and the fields are, with equal hashes, also across a pickle."""

import pickle
from fractions import Fraction

import pytest

from arrowlab.arrowcheck import ArrowReport, PairwiseAggregator
from arrowlab.dynamics import (
    CollapseEntry,
    CollapseReport,
    ForceProfile,
    IterationTrace,
    OrbitClass,
    ReplayReport,
)
from arrowlab.measures import Distribution
from arrowlab.orders import LinearOrder, VoterPermutation
from arrowlab.quotient import EquivalencePartition, FiniteMetricSpace, MetricCheckReport
from arrowlab.rules import VotingRule

RULE = VotingRule(1, 2, [1, 0])
RULE_REPR = r"VotingRule(n=1, m=2, table=b'\x01\x00')"
HALF = Fraction(1, 2)

# Per class: constructor arguments, the repr, and the first field.
CASES = {
    "LinearOrder": (LinearOrder, ((1, 0, 2),), "LinearOrder(ranking=(1, 0, 2))", "ranking"),
    "VoterPermutation": (VoterPermutation, ([1, 0],), "VoterPermutation(mapping=(1, 0))", "mapping"),
    "VotingRule": (VotingRule, (1, 2, [1, 0]), RULE_REPR, "n"),
    "Distribution": (Distribution, (1, 2, ["1/4", "3/4"]), "Distribution(n=1, m=2, denominator=4)", "n"),
    "OrbitClass": (OrbitClass, ([RULE, RULE],), f"OrbitClass(members=({RULE_REPR},))", "members"),
    "FiniteMetricSpace": (
        FiniteMetricSpace,
        (("a", "b"), ((0, HALF), (HALF, 0))),
        "FiniteMetricSpace(points=('a', 'b'), dist=((Fraction(0, 1), Fraction(1, 2)), "
        "(Fraction(1, 2), Fraction(0, 1))))",
        "points",
    ),
    "EquivalencePartition": (
        EquivalencePartition, ([0, 0, 1],), "EquivalencePartition(class_of=(0, 0, 1))", "class_of"
    ),
    "PairwiseAggregator": (
        PairwiseAggregator, (1, 3, [2, 2, 2]), "PairwiseAggregator(n=1, m=3, tables=(2, 2, 2))", "n"
    ),
    "ForceProfile": (
        ForceProfile,
        ((HALF, HALF), (0, 1), (0, 1)),
        "ForceProfile(forces=(Fraction(1, 2), Fraction(1, 2)), most_forceful=(0, 1), "
        "least_forceful=(0, 1))",
        "forces",
    ),
    "IterationTrace": (
        IterationTrace,
        ((("ab", None),), RULE, "fixpoint", False),
        f"IterationTrace(steps=(('ab', None),), last={RULE_REPR}, terminated_by='fixpoint', "
        "fixpoint_is_dictatorship=False)",
        "steps",
    ),
    "CollapseEntry": (
        CollapseEntry,
        (True, 0, True, False),
        "CollapseEntry(passed=True, collapse_voter=0, iterate_is_dictatorship=True, "
        "iterate_equals_rule=False)",
        "passed",
    ),
    "CollapseReport": (CollapseReport, (1, 2, 1, ()), "CollapseReport(n=1, m=2, steps=1, entries=())", "n"),
    "ReplayReport": (
        ReplayReport,
        (2, 3, HALF, "ab", "cd", True, True, (HALF,), (HALF,), True, True, None, False, True),
        "ReplayReport(n=2, m=3, epsilon=Fraction(1, 2), base_rule_digest='ab', "
        "extended_rule_digest='cd', full_support=True, permutation_invariant=True, "
        "forces=(Fraction(1, 2),), base_forces=(Fraction(1, 2),), last_voter_unique_least=True, "
        "transfer_fixed=True, dictator_voter=None, last_force_bound_ok=False, "
        "kept_force_bounds_ok=True)",
        "n",
    ),
    "MetricCheckReport": (
        MetricCheckReport, (True,), "MetricCheckReport(ok=True, violation=None, witness=())", "ok"
    ),
    "ArrowReport": (
        ArrowReport,
        (1, 3, 1, ((0, RULE),), (0,), 1),
        f"ArrowReport(n=1, m=3, candidates_scanned=1, found=((0, {RULE_REPR}),), dictators=(0,), "
        "search_nodes=1)",
        "n",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_value_type_eq_hash_repr_and_immutability(name):
    cls, args, shown, first = CASES[name]
    value, twin = cls(*args), cls(*args)
    assert value is not twin and value == twin and hash(value) == hash(twin)
    assert repr(value) == shown
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and hash(copy) == hash(value)
    if cls is Distribution:  # equality reads the stored weights, not the repr fields
        assert value != Distribution(1, 2, ["3/4", "1/4"])
    before = getattr(value, first)
    for change in (lambda: setattr(value, first, 0), lambda: delattr(value, first)):
        with pytest.raises(AttributeError):
            change()
    with pytest.raises(AttributeError):
        value.unlisted = 0
    assert getattr(value, first) == before and value == twin


def test_value_types_of_different_classes_are_unequal():
    order, perm = LinearOrder((1, 0)), VoterPermutation((1, 0))
    assert order.ranking == perm.mapping and order != perm and perm != order
    assert RULE != (1, 2, b"\x01\x00")
