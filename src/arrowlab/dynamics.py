"""Voter force and the ballot-transfer dynamics on spaces of voting rules.

The force of a voter is the probability that the election outcome equals that
voter's own ballot.  The transfer map rewrites every least-forceful voter's
ballot with the ballot of the first most-forceful voter before applying the
rule; iterating it drives rules toward dictatorships under many distributions,
and the machinery here makes each step, its force vector, and its fixpoint
status inspectable with exact arithmetic.  The replay of the final proof step
exhibits a non-dictatorial rule that the map fixes exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Iterable, Literal, NamedTuple

from .measures import (
    Distribution,
    format_rational,
    has_full_support,
    is_permutation_invariant,
    lift_distribution,
    star_distribution,
)
from .orders import Frozen, LinearOrder, all_voter_permutations, seat_gather
from .rules import (
    VotingRule,
    compose_collapse,
    compose_voter_permutation,
    cylinder_extend,
    is_dictatorship,
    is_pareto,
    table_digest,
)

TRACE_FORMAT_VERSION = 1


class ForceProfile(NamedTuple):
    """All voters' forces plus the exact argmax and argmin voter sets."""

    forces: tuple[Fraction, ...]
    most_forceful: tuple[int, ...]
    least_forceful: tuple[int, ...]


class OrbitClass(Frozen):
    """An equivalence class of rules: a singleton, or the full relabeling
    orbit of a rule with a unique most-forceful voter."""

    _fields = ("members",)

    def __init__(self, members: tuple[VotingRule, ...]):
        members = tuple(sorted(set(members), key=lambda r: r.table))
        if not members:
            raise ValueError("an orbit class cannot be empty")
        self._set(members=members)

    def __contains__(self, rule: VotingRule) -> bool:
        return rule in self.members


class IterationTrace(NamedTuple):
    """The successive distinct iterates of the transfer map, with their force
    data.  Each step is the table digest of its iterate, or None when the
    iteration took no digests, and the iterate's force profile.  Only the
    last iterate's rule is kept, as ``last``."""

    steps: tuple[tuple[str | None, ForceProfile], ...]
    last: VotingRule
    terminated_by: Literal["fixpoint", "step-limit"]
    fixpoint_is_dictatorship: bool


class CollapseEntry(NamedTuple):
    passed: bool
    collapse_voter: int | None
    iterate_is_dictatorship: bool
    iterate_equals_rule: bool


class CollapseReport(NamedTuple):
    """Per-rule outcomes of the n-step collapse check.  Informational only:
    the check records findings and never asserts."""

    n: int
    m: int
    steps: int
    entries: tuple[CollapseEntry, ...]

    @property
    def passed_count(self) -> int:
        return sum(1 for e in self.entries if e.passed)

    @property
    def failed_count(self) -> int:
        return len(self.entries) - self.passed_count


def _check_dims(mu: Distribution, rule: VotingRule) -> None:
    if mu.n != rule.n or mu.m != rule.m:
        raise ValueError(
            f"distribution ({mu.n}, {mu.m}) incompatible with rule ({rule.n}, {rule.m})"
        )


def _require(mu: Distribution, invariant: str = "") -> None:
    """Refuse a ``mu`` without full support, or not permutation-invariant where ``invariant`` names a use."""
    if not has_full_support(mu):
        raise ValueError("the transfer map requires a full-support distribution")
    if invariant and not is_permutation_invariant(mu):
        raise ValueError(f"{invariant} requires a permutation-invariant distribution")


def force(mu: Distribution, rule: VotingRule, i: int) -> Fraction:
    """Probability under ``mu`` that the outcome equals voter i's ballot."""
    _check_dims(mu, rule)
    if not 0 <= i < rule.n:
        raise ValueError(f"voter {i} out of range for n={rule.n}")
    return Fraction(mu.agreement_mass(rule.table)[i], mu.denominator)


def force_profile(mu: Distribution, rule: VotingRule) -> ForceProfile:
    """Forces of all voters in one sweep, with exact argmax/argmin sets."""
    _check_dims(mu, rule)
    totals = mu.agreement_mass(rule.table)
    top = max(totals)
    bottom = min(totals)
    most = tuple(i for i, v in enumerate(totals) if v == top)
    least = tuple(i for i, v in enumerate(totals) if v == bottom)
    return ForceProfile(tuple(Fraction(v, mu.denominator) for v in totals), most, least)


def _transfer(rule: VotingRule, fp: ForceProfile) -> VotingRule:
    source = fp.most_forceful[0]
    seats = tuple(source if i in fp.least_forceful else i for i in range(rule.n))
    return VotingRule(rule.n, rule.m, seat_gather(rule.table, rule.n, rule.m, seats))


def force_transfer(mu: Distribution, rule: VotingRule) -> VotingRule:
    """One application of the transfer map: every least-forceful voter's ballot
    is replaced by the ballot of the first (lowest-index) most-forceful voter,
    and the rule is evaluated on the rewritten profile.

    Requires a full-support distribution.  Preserves the unanimity property:
    rewriting ballots with another ballot of the same profile cannot create a
    new unanimous comparison that the original profile lacked.
    """
    _require(mu)
    return _transfer(rule, force_profile(mu, rule))


def _orbit(rule: VotingRule, fp: ForceProfile) -> OrbitClass:
    if len(fp.most_forceful) != 1:
        return OrbitClass((rule,))
    members = {compose_voter_permutation(rule, perm) for perm in all_voter_permutations(rule.n)}
    return OrbitClass(tuple(members))


def orbit_class(mu: Distribution, rule: VotingRule) -> OrbitClass:
    """The equivalence class of a rule: its full relabeling orbit when its
    most-forceful voter is unique, else the singleton."""
    _require(mu)
    return _orbit(rule, force_profile(mu, rule))


def force_transfer_class(mu: Distribution, cls: OrbitClass) -> OrbitClass:
    """The transfer map on equivalence classes: the class of the canonical
    representative's image, checked against the image of every member.

    Requires a permutation-invariant full-support distribution.  A member's
    image ``T(member)`` agrees when it lies in the first image's class and its
    top voter is unique exactly when the first image's is.  That is the same
    test as ``orbit_class(mu, T(member)) == image`` without rebuilding an
    orbit: a class with a unique top voter is an orbit, and the orbit of any
    member of an orbit is that orbit; a class with tied top voters is the
    singleton of its rule.  Raises ``RuntimeError`` at the first member whose
    image disagrees.
    """
    return _class_transfer(mu, cls)[0]


def _class_transfer(mu: Distribution, cls: OrbitClass, known=None) -> tuple[OrbitClass, tuple]:
    """``force_transfer_class`` and the force profile of every member, in
    member order.  Each member's and each image's profile is read once, and
    not at all for the member of a ``known`` pair of a rule and its profile."""
    _require(mu, "the class-level transfer map")
    profiles, image, unique = [], None, None
    for member in cls.members:
        profiles.append(known[1] if known and member == known[0] else force_profile(mu, member))
        other = _transfer(member, profiles[-1])
        other_fp = force_profile(mu, other)
        if image is None:
            image, unique = _orbit(other, other_fp), len(other_fp.most_forceful) == 1
        elif other not in image or (len(other_fp.most_forceful) == 1) != unique:
            raise RuntimeError(
                "transfer map image depends on the representative; "
                f"{table_digest(cls.members[0])} vs {table_digest(member)}"
            )
    return image, tuple(profiles)


def class_transfer_holds(mu: Distribution, rule: VotingRule) -> bool:
    """Whether the transfer map is well defined on the class of ``rule`` and
    that class is closed: the orbit of each member is the class, which holds
    when the class is a singleton or every member's top voter is unique."""
    fp = force_profile(mu, rule)  # finds the class, then serves as the rule's member profile
    try:
        _, profiles = _class_transfer(mu, _orbit(rule, fp), (rule, fp))
    except RuntimeError:
        return False
    return len(profiles) == 1 or all(len(p.most_forceful) == 1 for p in profiles)


def iterate_force_transfer(
    mu: Distribution, rule: VotingRule, max_steps: int, digests: bool = False
) -> IterationTrace:
    """Apply the transfer map until the newly computed rule equals the current
    one (a fixpoint) or ``max_steps`` applications have been spent.

    The trace lists the distinct iterates only; on fixpoint termination the
    next computed rule equaled the last listed one.  It keeps only the last
    iterate's rule: each earlier one is dropped once its successor differs
    from it, so the input's table is freed then unless the caller holds it.
    With ``digests``, each step records its iterate's table digest, which
    ``write_trace`` writes; without, no digest is computed.
    """
    _check_dims(mu, rule)
    _require(mu)
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    steps = []
    while True:
        fp = force_profile(mu, rule)
        steps.append((table_digest(rule) if digests else None, fp))
        if len(steps) > max_steps:
            return IterationTrace(tuple(steps), rule, "step-limit", False)
        nxt = _transfer(rule, fp)
        if nxt == rule:
            return IterationTrace(tuple(steps), rule, "fixpoint", is_dictatorship(rule) is not None)
        rule = nxt  # the superseded iterate is dropped here


def check_collapse_conjecture(mu: Distribution, rules: Iterable[VotingRule]) -> CollapseReport:
    """For each rule, test whether n transfer steps land on the rule composed
    with some voter's self-collapse (equivalently, on a dictatorship for
    unanimity-respecting rules).

    ``rules`` may be any iterable, read once in order; each rule is checked
    as it comes and kept by no entry, so a generator that draws the rules
    holds one at a time.  The steps take no digests.

    This is a reporting operation: some distributions fix non-dictatorial
    rules exactly, so outcomes are findings, not assertions.
    """
    _require(mu, "the collapse check")
    entries = tuple(_collapse_entry(mu, rule) for rule in rules)
    return CollapseReport(mu.n, mu.m, mu.n, entries)


def _collapse_entry(mu: Distribution, rule: VotingRule) -> CollapseEntry:
    # The n-th iterate: a fixpoint reached sooner is its own image.
    iterate = iterate_force_transfer(mu, rule, rule.n).last
    collapse_voter = None
    for i in range(rule.n):
        if iterate == compose_collapse(rule, i):
            collapse_voter = i
            break
    return CollapseEntry(
        passed=collapse_voter is not None,
        collapse_voter=collapse_voter,
        iterate_is_dictatorship=is_dictatorship(iterate) is not None,
        iterate_equals_rule=iterate == rule,
    )


def write_trace(trace: IterationTrace, path: str | Path, config: dict) -> None:
    """Write a trace as line-delimited JSON: a header record carrying the
    format version and resolved configuration, one record per step with the
    rule's table digest and force data, and a footer with the termination
    status.  The digests are the trace's own, so the trace must come from
    ``iterate_force_transfer`` with ``digests``; else ``ValueError``."""
    lines = [
        json.dumps(
            {"format_version": TRACE_FORMAT_VERSION, "config": config},
            sort_keys=True,
        )
    ]
    for step, (digest, fp) in enumerate(trace.steps):
        if digest is None:
            raise ValueError("the trace has no digests: iterate with digests=True to write it")
        lines.append(
            json.dumps(
                {
                    "step": step,
                    "rule_table_digest": digest,
                    "forces": [format_rational(v) for v in fp.forces],
                    "most_forceful": list(fp.most_forceful),
                    "least_forceful": list(fp.least_forceful),
                },
                sort_keys=True,
            )
        )
    lines.append(
        json.dumps(
            {
                "terminated_by": trace.terminated_by,
                "fixpoint_is_dictatorship": trace.fixpoint_is_dictatorship,
                "steps": len(trace.steps),
            },
            sort_keys=True,
        )
    )
    Path(path).write_text("\n".join(lines) + "\n")


class ReplayReport(NamedTuple):
    """End-to-end record of extending a rule by a powerless trailing voter and
    watching the transfer map fix it under the lifted near-unanimous
    distribution.

    ``last_force_bound_ok`` tests the spec's ceiling ``2/(n*m!)`` on the
    ignored voter's force.  That ceiling is false for n >= 3 (the lift of the
    uniform base already gives that voter 1/m!); at (3, 3) with epsilon 1/2
    the flag is False for every Pareto base rule, whose ignored voter keeps
    at least 1/6.
    ``kept_force_bounds_ok`` tests the sound bound that each kept voter
    retains at least 1/n of their base force.
    """

    n: int
    m: int
    epsilon: Fraction
    base_rule_digest: str
    extended_rule_digest: str
    full_support: bool
    permutation_invariant: bool
    forces: tuple[Fraction, ...]
    base_forces: tuple[Fraction, ...]
    last_voter_unique_least: bool
    transfer_fixed: bool
    dictator_voter: int | None
    last_force_bound_ok: bool
    kept_force_bounds_ok: bool


def replay_contradiction(g: VotingRule, epsilon: Fraction, y: LinearOrder) -> ReplayReport:
    """Extend ``g`` by one ignored trailing voter, lift the near-unanimous
    distribution over the original electorate to the extended one, and report
    the force structure, the exact fixedness of the extended rule under the
    transfer map, and its dictatorship status.

    For a non-dictatorial unanimity-respecting ``g`` this exhibits a
    non-dictatorial rule that the transfer map fixes exactly.
    """
    if not is_pareto(g):
        raise ValueError("the base rule must respect unanimous comparisons")
    nu = star_distribution(g.n, g.m, epsilon, y)
    mu = lift_distribution(nu, g.n)
    f, fp, base_forces, below, kept = cylinder_forces(nu, mu, g)
    return ReplayReport(
        n=f.n,
        m=f.m,
        epsilon=Fraction(epsilon),
        base_rule_digest=table_digest(g),
        extended_rule_digest=table_digest(f),
        full_support=has_full_support(mu),
        permutation_invariant=is_permutation_invariant(mu),
        forces=fp.forces,
        base_forces=base_forces,
        last_voter_unique_least=fp.least_forceful == (f.n - 1,),
        transfer_fixed=_transfer(f, fp) == f,
        dictator_voter=is_dictatorship(f),
        last_force_bound_ok=below,
        kept_force_bounds_ok=kept,
    )


def cylinder_ceiling(n: int, m: int) -> Fraction:
    """The spec's ceiling on a cylinder rule's ignored voter's force; false for n >= 3."""
    return Fraction(2, n * factorial(m))


def cylinder_forces(nu: Distribution, mu: Distribution, g: VotingRule) -> tuple:
    """The extension f of ``g`` by an ignored trailing voter, f's force
    profile under ``mu``, the lift of ``nu``, and ``g``'s forces under
    ``nu``; then whether f's ignored voter is within ``cylinder_ceiling``,
    and whether each kept voter keeps at least 1/n of their base force."""
    f = cylinder_extend(g)
    fp = force_profile(mu, f)
    base = force_profile(nu, g).forces
    kept = all(a >= b / f.n for a, b in zip(fp.forces, base))
    return f, fp, base, fp.forces[-1] <= cylinder_ceiling(f.n, f.m), kept
