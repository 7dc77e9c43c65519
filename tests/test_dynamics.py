import warnings
from fractions import Fraction

import pytest

from arrowlab.dynamics import (
    check_collapse_conjecture,
    force,
    force_profile,
    force_transfer,
    force_transfer_class,
    iterate_force_transfer,
    orbit_class,
    write_trace,
)
from arrowlab.measures import (
    Distribution,
    has_full_support,
    is_permutation_invariant,
    lift_distribution,
    star_distribution,
    uniform_distribution,
)
from arrowlab.orders import all_voter_permutations, encode_digits, enumerate_orders
from arrowlab.quotient import rule_distance
from arrowlab.rules import (
    VotingRule,
    compose_collapse,
    compose_voter_permutation,
    cylinder_extend,
    dictator,
    is_dictatorship,
    is_pareto,
    pairwise_majority_rule,
    random_pareto_rule,
)

ORDERS3 = enumerate_orders(3)
UNIFORM23 = uniform_distribution(2, 3)


def near_dictator():
    """Copies voter 0 except on one non-unanimous profile, where voter 1 wins."""
    table = list(dictator(2, 3, 0).table)
    table[1] = 1
    return VotingRule(2, 3, tuple(table))


def lifted_star(eps=Fraction(1, 2)):
    return lift_distribution(star_distribution(2, 3, eps, ORDERS3[0]), 2)


def unanimous_only_distribution():
    weights = [Fraction(0)] * 36
    for d in range(6):
        weights[encode_digits((d, d), 3)] = Fraction(1, 6)
    return Distribution(2, 3, tuple(weights))


def test_force_of_dictator_on_self_is_one():
    for mu in (UNIFORM23, star_distribution(2, 3, Fraction(1, 3), ORDERS3[0])):
        for i in range(2):
            assert force(mu, dictator(2, 3, i), i) == 1


def test_force_of_dictator_on_other_voter():
    assert force(UNIFORM23, dictator(2, 3, 0), 1) == Fraction(1, 6)


def test_force_on_unanimous_only_support_is_one_for_pareto_rules():
    mu = unanimous_only_distribution()
    for rule in (pairwise_majority_rule(2, 3), random_pareto_rule(2, 3, 4)):
        for i in range(2):
            assert force(mu, rule, i) == 1


def test_force_rejects_mismatch():
    with pytest.raises(ValueError):
        force(UNIFORM23, dictator(3, 3, 0), 0)
    with pytest.raises(ValueError):
        force(UNIFORM23, dictator(2, 3, 0), 2)


def test_force_profile_dictator_unique_most():
    fp = force_profile(UNIFORM23, dictator(2, 3, 1))
    assert fp.most_forceful == (1,)
    assert fp.forces == (Fraction(1, 6), Fraction(1))


def test_force_profile_collapse_has_unique_most():
    for seed in range(10):
        rule = random_pareto_rule(2, 3, seed)
        for i in range(2):
            fp = force_profile(UNIFORM23, compose_collapse(rule, i))
            assert fp.most_forceful == (i,)


def test_force_profile_symmetric_rule_all_equal():
    fp = force_profile(UNIFORM23, pairwise_majority_rule(2, 3))
    assert fp.forces[0] == fp.forces[1]
    assert fp.most_forceful == (0, 1)
    assert fp.least_forceful == (0, 1)


def test_transfer_fixes_dictators():
    for i in range(2):
        d = dictator(2, 3, i)
        assert force_transfer(UNIFORM23, d) == d
    for i in range(3):
        d = dictator(3, 3, i)
        assert force_transfer(uniform_distribution(3, 3), d) == d


def test_transfer_on_near_dictator():
    nd = near_dictator()
    fp = force_profile(UNIFORM23, nd)
    assert fp.forces == (Fraction(35, 36), Fraction(7, 36))
    assert force_transfer(UNIFORM23, nd) == dictator(2, 3, 0)


def test_transfer_requires_full_support():
    with pytest.raises(ValueError):
        force_transfer(unanimous_only_distribution(), dictator(2, 3, 0))


def test_transfer_preserves_pareto():
    for seed in range(10):
        rule = random_pareto_rule(2, 3, seed)
        assert is_pareto(force_transfer(UNIFORM23, rule))


def test_transfer_all_tied_branch_collapses_to_first_voter():
    rule = pairwise_majority_rule(2, 3)
    image = force_transfer(UNIFORM23, rule)
    assert image == compose_collapse(rule, 0)
    assert image == dictator(2, 3, 0)


def test_transfer_fixes_cylinder_under_lifted_star():
    f = cylinder_extend(pairwise_majority_rule(2, 3))
    assert force_transfer(lifted_star(), f) == f


def equivalent(mu: Distribution, f: VotingRule, g: VotingRule) -> bool:
    """Rules are equivalent when equal, or when one is a voter relabeling of
    the other and has a unique most-forceful voter.

    The relabeling case is only sound when ``mu`` is permutation-invariant;
    exercising it under a non-invariant distribution raises a warning.
    """
    if not has_full_support(mu):
        raise ValueError("equivalence is defined relative to a full-support distribution")
    if f == g:
        return True
    if f.n != g.n or f.m != g.m:
        return False
    for perm in all_voter_permutations(f.n):
        if f == compose_voter_permutation(g, perm):
            if len(force_profile(mu, f).most_forceful) == 1:
                if not is_permutation_invariant(mu):
                    warnings.warn(
                        "relabeling equivalence used under a distribution that is "
                        "not permutation-invariant; the force structure need not transfer",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                return True
            return False
    return False


def test_equivalent_dictators():
    assert equivalent(UNIFORM23, dictator(2, 3, 0), dictator(2, 3, 1))
    assert equivalent(UNIFORM23, dictator(2, 3, 0), dictator(2, 3, 0))


def test_equivalent_symmetric_rule_only_by_equality():
    rule = pairwise_majority_rule(2, 3)
    swapped = compose_voter_permutation(rule, all_voter_permutations(2)[1])
    assert swapped == rule
    assert equivalent(UNIFORM23, rule, swapped)
    assert orbit_class(UNIFORM23, rule).members == (rule,)


def test_equivalent_warns_under_non_invariant_distribution():
    weights = [Fraction(1, 37)] * 36
    weights[1] = Fraction(2, 37)
    mu = Distribution(2, 3, tuple(weights))
    with pytest.warns(RuntimeWarning):
        assert equivalent(mu, dictator(2, 3, 1), dictator(2, 3, 0))


def test_orbit_class_of_dictators_is_the_dictator_set():
    mu3 = uniform_distribution(3, 3)
    expected = tuple(sorted((dictator(3, 3, i) for i in range(3)), key=lambda r: r.table))
    for i in range(3):
        assert orbit_class(mu3, dictator(3, 3, i)).members == expected


def test_orbit_class_of_collapse_is_the_dictator_set():
    expected = orbit_class(UNIFORM23, dictator(2, 3, 0))
    for seed in range(5):
        rule = random_pareto_rule(2, 3, seed)
        for i in range(2):
            assert orbit_class(UNIFORM23, compose_collapse(rule, i)) == expected


def test_orbit_class_membership_is_consistent():
    for seed in range(20):
        rule = random_pareto_rule(2, 3, seed)
        cls = orbit_class(UNIFORM23, rule)
        for member in cls.members:
            assert orbit_class(UNIFORM23, member) == cls


def test_class_transfer_fixes_the_dictator_class():
    dict_class = orbit_class(UNIFORM23, dictator(2, 3, 0))
    assert force_transfer_class(UNIFORM23, dict_class) == dict_class


def test_class_transfer_sends_near_dictator_class_to_dictators():
    cls = orbit_class(UNIFORM23, near_dictator())
    assert force_transfer_class(UNIFORM23, cls) == orbit_class(UNIFORM23, dictator(2, 3, 0))


def test_class_transfer_representative_independent():
    for seed in range(25):
        cls = orbit_class(UNIFORM23, random_pareto_rule(2, 3, seed))
        force_transfer_class(UNIFORM23, cls)


def test_class_transfer_requires_invariant_distribution():
    weights = [Fraction(1, 37)] * 36
    weights[1] = Fraction(2, 37)
    mu = Distribution(2, 3, tuple(weights))
    with pytest.raises(ValueError):
        force_transfer_class(mu, orbit_class(UNIFORM23, dictator(2, 3, 0)))


def test_class_transfer_is_not_well_defined_at_three_voters():
    # The spec's partition is not closed under the transfer map.  Seed 6 at
    # (3, 3) has a unique top voter, so its class is a six-rule orbit; the
    # image of its canonical representative has tied top voters, so that
    # image is a singleton class and the other members' images miss it.
    mu = uniform_distribution(3, 3)
    cls = orbit_class(mu, random_pareto_rule(3, 3, 6))
    assert len(cls.members) == 6
    image = force_transfer(mu, cls.members[0])
    assert len(force_profile(mu, image).most_forceful) > 1
    assert orbit_class(mu, image).members == (image,)
    with pytest.raises(RuntimeError, match="depends on the representative"):
        force_transfer_class(mu, cls)


@pytest.mark.parametrize("n, seeds", [(3, range(200)), (4, range(10))])
def test_transfer_commutes_with_relabeling(n, seeds):
    # T(f o sigma) == T(f) o sigma for every rule with a unique top voter
    # under a permutation-invariant distribution: the implementation is
    # equivariant even where the class map above is not well defined.
    mu = uniform_distribution(n, 3)
    rules = [random_pareto_rule(n, 3, seed) for seed in seeds]
    rules = [f for f in rules if len(force_profile(mu, f).most_forceful) == 1]
    assert len(rules) == (191 if n == 3 else 10)
    for f in rules:
        image = force_transfer(mu, f)
        for perm in all_voter_permutations(n):
            relabeled = force_transfer(mu, compose_voter_permutation(f, perm))
            assert relabeled == compose_voter_permutation(image, perm)


def test_transfer_respects_equivalence():
    for seed in range(20):
        f = random_pareto_rule(2, 3, seed)
        cls = orbit_class(UNIFORM23, f)
        fi = force_transfer(UNIFORM23, f)
        for g in cls.members:
            assert equivalent(UNIFORM23, fi, force_transfer(UNIFORM23, g))


def test_iterate_dictator_is_immediate_fixpoint():
    trace = iterate_force_transfer(UNIFORM23, dictator(2, 3, 1), 10)
    assert trace.terminated_by == "fixpoint"
    assert len(trace.steps) == 1
    assert trace.fixpoint_is_dictatorship


def test_iterate_near_dictator_reaches_dictator_in_one_step():
    trace = iterate_force_transfer(UNIFORM23, near_dictator(), 10)
    assert trace.terminated_by == "fixpoint"
    assert len(trace.steps) == 2
    assert trace.last == dictator(2, 3, 0)
    assert [digest for digest, _ in trace.steps] == [None, None]
    assert trace.fixpoint_is_dictatorship


def test_iterate_cylinder_under_lifted_star_fixes_non_dictator():
    f = cylinder_extend(pairwise_majority_rule(2, 3))
    trace = iterate_force_transfer(lifted_star(), f, 10)
    assert trace.terminated_by == "fixpoint"
    assert len(trace.steps) == 1
    assert not trace.fixpoint_is_dictatorship


def test_iterate_zero_steps_hits_step_limit():
    trace = iterate_force_transfer(UNIFORM23, dictator(2, 3, 0), 0)
    assert trace.terminated_by == "step-limit"
    assert len(trace.steps) == 1
    assert not trace.fixpoint_is_dictatorship


def test_relabeling_is_an_isometry():
    for mu in (UNIFORM23,):
        for seed in range(10):
            f = random_pareto_rule(2, 3, seed)
            g = random_pareto_rule(2, 3, seed + 50)
            base = rule_distance(mu, f, g)
            for perm in all_voter_permutations(2):
                assert (
                    rule_distance(
                        mu,
                        compose_voter_permutation(f, perm),
                        compose_voter_permutation(g, perm),
                    )
                    == base
                )


def test_force_relabeling_lemma():
    for seed in range(10):
        g = random_pareto_rule(2, 3, seed)
        for perm in all_voter_permutations(2):
            f = compose_voter_permutation(g, perm)
            for i in range(2):
                assert force(UNIFORM23, g, i) == force(UNIFORM23, f, perm.mapping[i])


def test_collapsed_rules_meet_at_distance_zero():
    for seed in range(5):
        f = random_pareto_rule(2, 3, seed)
        g = random_pareto_rule(2, 3, seed + 500)
        dists = [
            rule_distance(UNIFORM23, compose_collapse(f, k), compose_collapse(g, l))
            for k in range(2)
            for l in range(2)
        ]
        assert min(dists) == 0


def test_cylinder_kept_voter_force_lower_bound():
    """Lifting preserves at least 1/n of each kept voter's force, for any base
    distribution that is invariant under base-voter relabelings."""
    for nu in (uniform_distribution(2, 3), star_distribution(2, 3, Fraction(1, 2), ORDERS3[0])):
        mu = lift_distribution(nu, 2)
        for seed in range(30):
            g = random_pareto_rule(2, 3, seed)
            fp = force_profile(mu, cylinder_extend(g))
            for i in range(2):
                assert fp.forces[i] >= force(nu, g, i) / 3


def test_cylinder_last_voter_bound_holds_with_equality_at_two_voters():
    for nu in (uniform_distribution(1, 3), star_distribution(1, 3, Fraction(1, 2), ORDERS3[0])):
        mu = lift_distribution(nu, 1)
        g = random_pareto_rule(1, 3, 0)
        assert force(mu, cylinder_extend(g), 1) == Fraction(1, 6)


def test_cylinder_last_voter_bound_fails_at_three_voters():
    """The claimed ceiling of 2/(n*m!) on the ignored voter's force is false
    once n = 3: the lift of the uniform base is uniform, where that force is
    exactly 1/m! = 1/6 > 1/9 for every base rule."""
    mu = lift_distribution(uniform_distribution(2, 3), 2)
    bound = Fraction(2, 3 * 6)
    g = pairwise_majority_rule(2, 3)
    value = force(mu, cylinder_extend(g), 2)
    assert value == Fraction(1, 6)
    assert value > bound
    star_value = force(lifted_star(), cylinder_extend(g), 2)
    assert star_value == Fraction(55, 126)
    assert star_value > bound


def test_last_voter_uniquely_least_forceful_for_non_dictatorial_bases():
    mu = lifted_star()
    nu = star_distribution(2, 3, Fraction(1, 2), ORDERS3[0])
    checked = 0
    for seed in range(50):
        g = random_pareto_rule(2, 3, seed)
        if is_dictatorship(g) is not None:
            continue
        fp = force_profile(mu, cylinder_extend(g))
        assert fp.least_forceful == (2,)
        checked += 1
    assert checked >= 45
    fp = force_profile(mu, cylinder_extend(pairwise_majority_rule(2, 3)))
    assert fp.least_forceful == (2,)


def test_last_voter_force_ties_for_dictatorial_bases():
    # cylinder(Dict_i) = Dict_i, and exchangeability ties the non-dictator forces.
    mu = lifted_star()
    fp = force_profile(mu, cylinder_extend(dictator(2, 3, 0)))
    assert fp.forces[1] == fp.forces[2]
    assert fp.least_forceful == (1, 2)


def test_collapse_check_passes_on_dictators():
    report = check_collapse_conjecture(UNIFORM23, [dictator(2, 3, i) for i in range(2)])
    assert report.failed_count == 0
    assert all(e.collapse_voter == i for i, e in enumerate(report.entries))


def test_collapse_check_reports_cylinder_witness():
    mu = lifted_star()
    f = cylinder_extend(pairwise_majority_rule(2, 3))
    report = check_collapse_conjecture(mu, [f])
    entry = report.entries[0]
    assert not entry.passed
    assert entry.iterate_equals_rule
    assert not entry.iterate_is_dictatorship


def test_collapse_check_tally_on_random_rules():
    rules = [random_pareto_rule(2, 3, seed) for seed in range(100)]
    report = check_collapse_conjecture(UNIFORM23, rules)
    assert report.passed_count + report.failed_count == 100
    assert report.passed_count == 100


def test_collapse_check_requires_invariant_distribution():
    weights = [Fraction(1, 37)] * 36
    weights[1] = Fraction(2, 37)
    mu = Distribution(2, 3, tuple(weights))
    with pytest.raises(ValueError):
        check_collapse_conjecture(mu, [dictator(2, 3, 0)])


def test_trace_file_format(tmp_path):
    import json

    trace = iterate_force_transfer(UNIFORM23, near_dictator(), 10, digests=True)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path, {"voters": 2})
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format_version"] == 1
    assert header["config"] == {"voters": 2}
    records = [json.loads(line) for line in lines[1:-1]]
    assert [r["step"] for r in records] == [0, 1]
    assert records[0]["forces"] == ["35/36", "7/36"]
    assert records[0]["most_forceful"] == [0]
    footer = json.loads(lines[-1])
    assert footer["terminated_by"] == "fixpoint"
    assert footer["fixpoint_is_dictatorship"] is True
    assert footer["steps"] == 2


def test_trace_file_needs_the_digests_of_its_steps(tmp_path):
    """A trace iterated without digests keeps no rule but the last, so it
    cannot be written: ``write_trace`` refuses it before writing a file."""
    trace = iterate_force_transfer(UNIFORM23, near_dictator(), 10)
    with pytest.raises(ValueError, match="digests"):
        write_trace(trace, tmp_path / "trace.jsonl", {})
    assert not (tmp_path / "trace.jsonl").exists()
