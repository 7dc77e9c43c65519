"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

No criterion is expected to fail.  Criterion 6 asserts the exact tight
ceiling on the ignored voter's force under the lifted distribution (1/6 for
the uniform base, 55/126 for the star base at epsilon = 1/2), computed without
the force kernel, and pins the refutation of the claimed ceiling 2/(n*m!):
at three voters every Pareto base rule gives that voter at least 1/6 > 1/9.
"""

import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

from arrowlab.arrowcheck import verify_arrow
from arrowlab.dynamics import (
    check_collapse_conjecture,
    force,
    force_profile,
    force_transfer_class,
    orbit_class,
    replay_contradiction,
)
from arrowlab.measures import (
    has_full_support,
    is_permutation_invariant,
    lift_distribution,
    star_distribution,
    uniform_distribution,
)
from arrowlab.orders import all_voter_permutations, encode_digits, enumerate_orders
from arrowlab.quotient import (
    check_metric_axioms,
    quotient_distance_chain,
    quotient_distance_orbit,
    random_orbit_fixture,
    rule_distance,
    space_from_rules,
    verify_orbit_partition,
)
from arrowlab.rules import (
    VotingRule,
    compose_collapse,
    compose_voter_permutation,
    cylinder_extend,
    dictator,
    pairwise_majority_rule,
    random_pareto_rule,
    save_rule,
)

SRC = Path(__file__).resolve().parents[1] / "src"
ORDERS3 = enumerate_orders(3)
EPS = Fraction(1, 2)


def _report(label: str, failures: list[str]) -> None:
    print(f"[acceptance] {label}: {'PASS' if not failures else 'FAIL'}")
    for item in failures:
        print(f"  - {item}")
    assert not failures, f"{label}: " + "; ".join(failures)


def test_criterion_1_arrow_instance_check():
    failures = []
    start = time.monotonic()
    small = verify_arrow(2, 3)
    small_time = time.monotonic() - start
    if small_time >= 1.0:
        failures.append(f"verify_arrow(2,3) took {small_time:.3f}s, limit 1s")
    if len(small.found) != 2 or not small.all_dictators:
        failures.append(f"verify_arrow(2,3) found {len(small.found)} rules")
    if small.candidates_scanned != 64:
        failures.append(f"scanned {small.candidates_scanned}, expected 64")

    start = time.monotonic()
    large = verify_arrow(3, 3)
    large_time = time.monotonic() - start
    if large_time >= 600.0:
        failures.append(f"verify_arrow(3,3) took {large_time:.1f}s, limit 600s")
    if len(large.found) != 3 or not large.all_dictators:
        failures.append(f"verify_arrow(3,3) found {len(large.found)} rules")
    if large.candidates_scanned != 262_144:
        failures.append(f"scanned {large.candidates_scanned}, expected 262144")
    _report("criterion 1 (exhaustive theorem instances)", failures)


def test_criterion_2_metric_certification():
    failures = []
    mu = uniform_distribution(2, 3)
    rules = [random_pareto_rule(2, 3, seed) for seed in range(50)]
    report = check_metric_axioms(space_from_rules(mu, rules))
    if not report.ok:
        failures.append(f"axiom violation {report.violation} at {report.witness}")

    # independent oracle: count agreeing profiles of the two dictators directly
    agreeing = sum(
        1 for digits in itertools.product(range(6), repeat=2) if digits[0] == digits[1]
    )
    expected = Fraction(36 - agreeing, 36)
    if expected != Fraction(5, 6):
        failures.append(f"oracle arithmetic broken: {expected}")
    actual = rule_distance(mu, dictator(2, 3, 0), dictator(2, 3, 1))
    if actual != expected:
        failures.append(f"distance {actual} != oracle {expected}")
    _report("criterion 2 (metric certification, exact 5/6)", failures)


def test_criterion_3_quotient_equivalence():
    failures = []
    start = time.monotonic()
    for seed in range(100):
        n_points = random.Random(seed).randrange(2, 13)
        space, part = random_orbit_fixture(n_points, seed)
        if not verify_orbit_partition(space, part):
            failures.append(f"fixture seed {seed} is not an isometry-orbit partition")
            continue
        for x in range(n_points):
            for y in range(n_points):
                chain = quotient_distance_chain(space, part, x, y)
                orbit = quotient_distance_orbit(space, part, x, y)
                if chain != orbit:
                    failures.append(
                        f"seed {seed}: chain {chain} != orbit {orbit} at ({x},{y})"
                    )
    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, limit 30s")
    _report("criterion 3 (chain = orbit quotient on 100 fixtures)", failures)


def _isometry_and_relabel_failures(mu, n, m, count, tag):
    failures = []
    rules = [random_pareto_rule(n, m, seed) for seed in range(count)]
    perms = all_voter_permutations(n)
    for f, g in zip(rules[0::2], rules[1::2]):
        base = rule_distance(mu, f, g)
        for perm in perms:
            moved = rule_distance(
                mu, compose_voter_permutation(f, perm), compose_voter_permutation(g, perm)
            )
            if moved != base:
                failures.append(f"{tag}: relabeling changed distance {base} -> {moved}")
                return failures
    for g in rules:
        for perm in perms:
            f = compose_voter_permutation(g, perm)
            for i in range(n):
                if force(mu, g, i) != force(mu, f, perm.mapping[i]):
                    failures.append(f"{tag}: force relabeling mismatch at voter {i}")
                    return failures
    return failures


def test_criterion_4_isometry_and_relabeling():
    failures = []
    failures += _isometry_and_relabel_failures(
        uniform_distribution(2, 3), 2, 3, 200, "uniform(2,3)"
    )
    lifted = lift_distribution(star_distribution(2, 3, EPS, ORDERS3[0]), 2)
    failures += _isometry_and_relabel_failures(lifted, 3, 3, 200, "lifted-star(3,3)")
    _report("criterion 4 (isometry and force relabeling, 200 rules)", failures)


def test_criterion_5_equivalence_machinery():
    failures = []
    start = time.monotonic()
    for n in (2, 3):
        mu = uniform_distribution(n, 3)
        expected = tuple(sorted((dictator(n, 3, i) for i in range(n)), key=lambda r: r.table))
        for i in range(n):
            if orbit_class(mu, dictator(n, 3, i)).members != expected:
                failures.append(f"dictator class broken at n={n}, voter {i}")

    mu2 = uniform_distribution(2, 3)
    for seed in range(100):
        cls = orbit_class(mu2, random_pareto_rule(2, 3, seed))
        try:
            force_transfer_class(mu2, cls)
        except RuntimeError as exc:
            failures.append(f"transfer not class-invariant at seed {seed}: {exc}")
            break

    for seed in range(100):
        f = random_pareto_rule(2, 3, seed)
        collapsed = {compose_collapse(f, k) for k in range(2)}
        for i in range(2):
            fp = force_profile(mu2, compose_collapse(f, i))
            if fp.most_forceful != (i,):
                failures.append(f"collapse of seed {seed} lacks unique top voter {i}")
            cls = orbit_class(mu2, compose_collapse(f, i))
            if set(cls.members) != collapsed:
                failures.append(f"collapse orbit mismatch at seed {seed}")
    elapsed = time.monotonic() - start
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s, limit 120s")
    _report("criterion 5 (equivalence classes and class-level transfer)", failures)


def _pareto_outputs(ballots):
    """Order indices that keep every comparison on which all ballots agree."""
    unanimous = [
        (a, b)
        for a in range(3)
        for b in range(3)
        if a != b and all(ORDERS3[d].prefers(a, b) for d in ballots)
    ]
    return [
        r for r, order in enumerate(ORDERS3) if all(order.prefers(a, b) for a, b in unanimous)
    ]


def _ignored_voter_extremes(mu):
    """Exact floor and ceiling of the ignored voter's force over all Pareto
    base rules for two voters, and a base rule attaining the ceiling.

    The cylinder of g outputs g(y) on every lifted profile (y, d), so the
    ignored voter's force is the sum over base profiles y of mu(y, g(y)).
    Pareto constrains each g(y) on its own, so the extremes are per-profile
    minima and maxima over the Pareto-consistent outputs.
    """
    floor = ceiling = Fraction(0)
    argmax_table = []
    for ballots in itertools.product(range(6), repeat=2):
        weights = {
            r: mu.weights[encode_digits(ballots + (r,), 3)] for r in _pareto_outputs(ballots)
        }
        best = max(weights, key=weights.get)
        argmax_table.append(best)
        ceiling += weights[best]
        floor += min(weights.values())
    return floor, ceiling, VotingRule(2, 3, tuple(argmax_table))


def test_criterion_6_lifting_and_bounds():
    failures = []
    findings = []
    n, m = 3, 3
    spec_bound = Fraction(2, n * factorial(m))
    for label, nu, expected_floor, expected_ceiling in (
        ("uniform", uniform_distribution(2, 3), Fraction(1, 6), Fraction(1, 6)),
        ("star", star_distribution(2, 3, EPS, ORDERS3[0]), Fraction(1, 6), Fraction(55, 126)),
    ):
        mu = lift_distribution(nu, 2)
        if sum(mu.weights) != 1:
            failures.append(f"{label}: lifted mass {sum(mu.weights)} != 1")
        if not has_full_support(mu):
            failures.append(f"{label}: lifted distribution lost full support")
        if not is_permutation_invariant(mu):
            failures.append(f"{label}: lifted distribution not permutation-invariant")

        floor, ceiling, argmax_rule = _ignored_voter_extremes(mu)
        if (floor, ceiling) != (expected_floor, expected_ceiling):
            failures.append(
                f"{label}: ignored-voter range [{floor}, {ceiling}] != "
                f"[{expected_floor}, {expected_ceiling}]"
            )
        attained = force_profile(mu, cylinder_extend(argmax_rule)).forces[n - 1]
        if attained != ceiling:
            failures.append(f"{label}: argmax rule reaches {attained}, ceiling is {ceiling}")

        # The spec claims force <= 2/(n*m!); the floor over every Pareto base
        # rule already exceeds it, so the claim is refuted for all of them.
        if floor <= spec_bound:
            failures.append(f"{label}: floor {floor} no longer exceeds the spec bound {spec_bound}")

        seeded = []
        for seed in range(200):
            g = random_pareto_rule(2, 3, seed)
            fp = force_profile(mu, cylinder_extend(g))
            last = fp.forces[n - 1]
            seeded.append(last)
            # under the uniform base floor == ceiling == 1/m!, pinning each force
            if not floor <= last <= ceiling:
                failures.append(
                    f"{label}: seed {seed} ignored-voter force {last} outside [{floor}, {ceiling}]"
                )
            for i in range(2):
                if fp.forces[i] < force(nu, g, i) / n:
                    failures.append(f"{label}: kept-voter lower bound broken at seed {seed}")
        findings.append(
            f"{label}: spec ceiling 2/(n*m!) = {spec_bound} exceeded by every Pareto base rule "
            f"(floor {floor}, tight ceiling {ceiling}; seed 0: {seeded[0]}, "
            f"seeded max {max(seeded)})"
        )
    for finding in findings:
        print(f"[acceptance] finding: {finding}")
    _report("criterion 6 (lift invariants, exact ignored-voter ceiling)", failures)


def test_criterion_7_final_proof_replay():
    failures = []
    start = time.monotonic()
    report = replay_contradiction(pairwise_majority_rule(2, 3), EPS, ORDERS3[0])
    elapsed = time.monotonic() - start
    if not report.full_support:
        failures.append("lifted distribution lost full support")
    if not report.permutation_invariant:
        failures.append("lifted distribution not permutation-invariant")
    if not report.last_voter_unique_least:
        failures.append(f"last voter not the unique weakest: forces {report.forces}")
    if not report.transfer_fixed:
        failures.append("transfer map moved the extended rule")
    if report.dictator_voter is not None:
        failures.append(f"extended rule is the dictatorship of voter {report.dictator_voter}")
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, limit 10s")
    _report("criterion 7 (non-dictatorial exact fixpoint replay)", failures)


def test_criterion_8_collapse_report():
    failures = []
    start = time.monotonic()
    lifted = lift_distribution(star_distribution(2, 3, EPS, ORDERS3[0]), 2)
    witness_report = check_collapse_conjecture(
        lifted, [cylinder_extend(pairwise_majority_rule(2, 3))]
    )
    entry = witness_report.entries[0]
    if entry.passed or not entry.iterate_equals_rule or entry.iterate_is_dictatorship:
        failures.append("no explicit non-dictatorial transfer-fixed witness")

    mu = uniform_distribution(2, 3)
    rules = [random_pareto_rule(2, 3, seed) for seed in range(1000)]
    tally = check_collapse_conjecture(mu, rules)
    if tally.passed_count + tally.failed_count != 1000:
        failures.append("tally incomplete")
    elapsed = time.monotonic() - start
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.1f}s, limit 300s")
    _report("criterion 8 (collapse findings report)", failures)


def _run_cli(args, out_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "arrowlab.cli", *args, "--out", str(out_dir)],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


def _dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_criterion_9_determinism_across_worker_counts(tmp_path):
    failures = []
    rule_path = tmp_path / "cylinder_rule.json"
    save_rule(cylinder_extend(pairwise_majority_rule(2, 3)), rule_path)
    commands = {
        "verify23": ["verify-arrow", "--voters", "2", "--candidates", "3"],
        "verify33": ["verify-arrow", "--voters", "3", "--candidates", "3"],
        "check-all": ["check", "--suite", "all", "--voters", "2", "--candidates", "3", "--seed", "0"],
        "iterate": ["iterate", "--rule", str(rule_path), "--dist", "lift-star"],
    }
    for name, args in commands.items():
        outputs = {}
        for jobs in (1, 8):
            out_dir = tmp_path / f"{name}-j{jobs}"
            proc = _run_cli(args + ["--jobs", str(jobs)], out_dir)
            if proc.returncode != 0:
                failures.append(f"{name} --jobs {jobs} exited {proc.returncode}: {proc.stderr}")
                continue
            outputs[jobs] = (_dir_bytes(out_dir), proc.stdout)
        if len(outputs) == 2:
            files1, stdout1 = outputs[1]
            files8, stdout8 = outputs[8]
            if stdout1 != stdout8:
                failures.append(f"{name}: stdout differs between worker counts")
            if files1 != files8:
                failures.append(f"{name}: report files differ between worker counts")
    _report("criterion 9 (byte-identical reports across --jobs)", failures)
