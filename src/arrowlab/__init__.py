"""Exact finite laboratory for voting-rule dynamics.

Rules are dense lookup tables, probabilities are rationals, and every claim
about forces, distances, orbits, and fixpoints is checked by exhaustive
computation rather than sampling error bars.

``import arrowlab`` loads no submodule: each public name is imported from
its module on first access (PEP 562), so a command pays only for the
modules it runs.
"""

import importlib

_EXPORTS = {
    "orders": """LinearOrder VoterPermutation all_voter_permutations
        enumerate_orders order_index""",
    "rules": """VotingRule compose_collapse compose_voter_permutation constant_rule
        cylinder_extend dictator is_dictatorship is_iia is_pareto load_rule
        pairwise_majority_rule random_pareto_rule save_rule table_digest""",
    "measures": """Distribution has_full_support is_permutation_invariant
        lift_distribution load_distribution save_distribution star_distribution
        uniform_distribution""",
    "quotient": """EquivalencePartition FiniteMetricSpace check_metric_axioms
        load_fixture quotient_distance_chain quotient_distance_orbit
        random_orbit_fixture rule_distance save_fixture space_from_rules
        verify_orbit_partition""",
    "dynamics": """CollapseReport ForceProfile IterationTrace OrbitClass
        ReplayReport check_collapse_conjecture force force_profile force_transfer
        force_transfer_class iterate_force_transfer orbit_class
        replay_contradiction write_trace""",
    "arrowcheck": """ArrowReport PairwiseAggregator aggregator_from_rule
        assemble_rule verify_arrow""",
}
# Each public name, the six submodules included, and the module defining it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_MODULE_OF.update({module: module for module in _EXPORTS})

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    return module if name in _EXPORTS else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
