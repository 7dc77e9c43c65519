"""Exact finite laboratory for voting-rule dynamics.

Rules are dense lookup tables, probabilities are rationals, and every claim
about forces, distances, orbits, and fixpoints is checked by exhaustive
computation rather than sampling error bars.
"""

from .orders import (
    LinearOrder,
    Profile,
    VoterPermutation,
    all_voter_permutations,
    apply_voter_permutation,
    enumerate_orders,
    order_index,
    profile_from_index,
    profile_index,
    unanimous_profile,
)
from .rules import (
    VotingRule,
    borda_rule,
    compose_collapse,
    compose_voter_permutation,
    constant_rule,
    cylinder_extend,
    dictator,
    evaluate,
    is_dictatorship,
    is_iia,
    is_pareto,
    load_rule,
    pairwise_majority_rule,
    random_pareto_rule,
    save_rule,
    table_digest,
)
from .measures import (
    Distribution,
    has_full_support,
    is_permutation_invariant,
    lift_distribution,
    load_distribution,
    save_distribution,
    star_distribution,
    uniform_distribution,
    weight_of,
)
from .quotient import (
    EquivalencePartition,
    FiniteMetricSpace,
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
from .dynamics import (
    CollapseReport,
    ForceProfile,
    IterationTrace,
    OrbitClass,
    check_collapse_conjecture,
    force,
    force_profile,
    force_transfer,
    force_transfer_class,
    iterate_force_transfer,
    orbit_class,
    write_trace,
)
from .arrowcheck import (
    ArrowReport,
    PairwiseAggregator,
    ReplayReport,
    aggregator_from_rule,
    assemble_rule,
    replay_contradiction,
    verify_arrow,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
