import ast
import collections
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowlab import rules as rules_module
from arrowlab.cli import SUITE_NAMES, main
from arrowlab.dynamics import ReplayReport, force_profile, force_transfer, replay_contradiction
from arrowlab.measures import format_rational, uniform_distribution
from arrowlab.orders import enumerate_orders
from arrowlab.rules import (
    compose_collapse,
    cylinder_extend,
    dictator,
    pairwise_majority_rule,
    random_pareto_rule,
    save_rule,
    table_digest,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_arrow_command(tmp_path, capsys):
    code, out, err = run_cli(
        ["verify-arrow", "--voters", "2", "--candidates", "3", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert re.fullmatch(r"verify-arrow: 3 search nodes in \d+\.\d{3}s\n", err)
    payload = json.loads(out)
    assert payload["rules_found_count"] == 2
    assert payload["all_dictators"] is True
    assert payload["candidates_scanned"] == 64
    report = json.loads((tmp_path / "verify_arrow_report.json").read_text())
    assert report == payload
    for entry in payload["rules_found"]:
        assert (tmp_path / entry["file"]).exists()


def test_verify_arrow_rejects_two_candidates(capsys):
    code, _, err = run_cli(["verify-arrow", "--voters", "2", "--candidates", "2"], capsys)
    assert code == 2
    assert "error" in err


def test_iterate_dictator_rule(tmp_path, capsys):
    rule_path = tmp_path / "rule.json"
    save_rule(dictator(2, 3, 0), rule_path)
    code, out, err = run_cli(
        ["iterate", "--rule", str(rule_path), "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert re.fullmatch(r"iterate: 1 steps in \d+\.\d{3}s\n", err)
    payload = json.loads(out)
    assert payload["terminated_by"] == "fixpoint"
    assert payload["steps"] == 1
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert len(lines) == 3  # header, one step, footer
    assert json.loads(lines[1])["step"] == 0


def test_iterate_cylinder_under_lifted_star(tmp_path, capsys):
    rule_path = tmp_path / "cyl.json"
    save_rule(cylinder_extend(pairwise_majority_rule(2, 3)), rule_path)
    code, out, _ = run_cli(
        ["iterate", "--rule", str(rule_path), "--dist", "lift-star"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["terminated_by"] == "fixpoint"
    assert payload["fixpoint_is_dictatorship"] is False


def test_iterate_lift_star_needs_two_voters(tmp_path, capsys):
    rule_path = tmp_path / "rule.json"
    save_rule(dictator(1, 3, 0), rule_path)
    code, out, err = run_cli(["iterate", "--rule", str(rule_path), "--dist", "lift-star"], capsys)
    assert (code, out, err) == (2, "", "error: lift-star needs at least two voters\n")


def test_iterate_zero_steps_exits_with_step_limit_code(tmp_path, capsys):
    rule_path = tmp_path / "rule.json"
    save_rule(dictator(2, 3, 0), rule_path)
    code, out, _ = run_cli(
        ["iterate", "--rule", str(rule_path), "--max-steps", "0"], capsys
    )
    assert code == 3
    assert json.loads(out)["terminated_by"] == "step-limit"


@pytest.mark.parametrize("max_steps", (0, 1))
def test_iterate_step_limit_trace_lists_every_step_with_its_digest(max_steps, tmp_path, capsys):
    """At the step limit the trace lists the input and each iterate, each
    with its table digest and forces, the last listed step included, on a
    rule whose fixpoint takes two steps to reach."""
    rule = random_pareto_rule(3, 3, 0)
    mu = uniform_distribution(3, 3)
    first = force_transfer(mu, rule)
    assert first != rule and force_transfer(mu, first) == first
    save_rule(rule, tmp_path / "rule.json")
    argv = ["iterate", "--rule", str(tmp_path / "rule.json"), "--max-steps", str(max_steps)]
    code, out, _ = run_cli(argv + ["--out", str(tmp_path / "out")], capsys)
    assert code == 3
    lines = (tmp_path / "out" / "trace.jsonl").read_text().splitlines()
    header, *steps, footer = map(json.loads, lines)
    assert header["config"]["rule_table_digest"] == table_digest(rule)
    listed = [rule, first][: max_steps + 1]
    assert steps == [
        {
            "step": k,
            "rule_table_digest": table_digest(r),
            "forces": [format_rational(v) for v in fp.forces],
            "most_forceful": list(fp.most_forceful),
            "least_forceful": list(fp.least_forceful),
        }
        for k, (r, fp) in enumerate((r, force_profile(mu, r)) for r in listed)
    ]
    summary = {"terminated_by": "step-limit", "fixpoint_is_dictatorship": False, "steps": max_steps + 1}
    assert footer == summary
    assert {k: json.loads(out)[k] for k in summary} == summary


def test_iterate_rejects_missing_rule_file(tmp_path, capsys):
    code, _, err = run_cli(["iterate", "--rule", str(tmp_path / "nope.json")], capsys)
    assert code == 2


def test_check_metric_suite(capsys):
    code, out, _ = run_cli(
        ["check", "--suite", "metric", "--seed", "7", "--voters", "2", "--candidates", "3"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["suites"]["metric"]["passed"] is True
    assert payload["all_passed"] is True


def _traced_check_peak(argv: list[str], capsys) -> int:
    """Bytes allocated at the peak of ``main(argv)``, in process.  A full
    collection first empties the interpreter's free lists, which a run's
    small tuples fill, so each peak starts from the same state."""
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        main(argv)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    return peak


@pytest.mark.parametrize("suite", ["collapse", "isometry", "relabel", "welldef"])
def test_check_suite_memory_does_not_grow_with_its_samples(suite, capsys):
    """The traced peak of ``check --suite SUITE`` at (3,4) with 60 samples
    exceeds that with 5 by less than three tables: each seed's rule lives
    for one step of the walk over the seeds (two for an ``isometry`` pair).
    Holding every draw grew by about one table per sample.  ``metric`` is
    left out: it measures distances between all its points at once, so it
    holds every rule it draws."""
    argv = ["check", "--suite", suite, "--voters", "3", "--candidates", "4", "--samples"]
    main(argv + ["5"])  # builds the per-scale draw and gather tables
    capsys.readouterr()
    few, many = (_traced_check_peak(argv + [samples], capsys) for samples in ("5", "60"))
    assert many - few < 3 * 24**3


def _count_draws(monkeypatch) -> collections.Counter:
    """Count every ``random_pareto_rule(n, m, seed)`` call by its key."""
    from arrowlab import rules

    calls = collections.Counter()
    original = rules.random_pareto_rule

    def counted(n, m, seed):
        calls[n, m, seed] += 1
        return original(n, m, seed)

    monkeypatch.setattr(rules, "random_pareto_rule", counted)
    return calls


@pytest.mark.parametrize(("n", "base_seeds"), [(2, 200), (3, 3)])
def test_check_draws_each_seeded_rule_at_most_once(n, base_seeds, monkeypatch, capsys):
    """``check --suite all`` at (n,3) draws each (n, m, seed) at most once:
    each seed's rules are drawn in one step and handed to every suite that
    reads them.  It draws collapse's 1000 seeds and the (n-1)-voter rules of
    the first ``base_seeds`` seeds: at n = 2 cylinder passes all of its 200,
    and collapse's witnesses take theirs from the run's own electorate; at
    n = 3 cylinder stops at seed 0 and the witnesses read three."""
    calls = _count_draws(monkeypatch)
    main(["check", "--suite", "all", "--voters", str(n), "--candidates", "3"])
    capsys.readouterr()
    assert max(calls.values()) == 1
    drawn = {(n, 3, seed) for seed in range(1000)} | {(n - 1, 3, s) for s in range(base_seeds)}
    assert set(calls) == drawn


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "collapse", "--voters", "4", "--candidates", "2"],
        ["--suite", "all", "--voters", "3", "--candidates", "2"],
    ],
)
def test_check_refuses_a_scale_before_drawing(argv, monkeypatch, capsys):
    """A suite that refuses the scale (here the star distribution of
    cylinder and of collapse's witnesses, at m = 2) does so before any
    suite draws a rule."""
    calls = _count_draws(monkeypatch)
    code, out, err = run_cli(["check", *argv], capsys)
    assert (code, out) == (2, "")
    assert err == "error: star distribution needs at least three candidates, got m=2\n"
    assert not calls


def test_check_collapse_suite_reports_witnesses_but_exits_zero(capsys):
    code, out, _ = run_cli(
        ["check", "--suite", "collapse", "--dist", "lift-star", "--samples", "50"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    collapse = payload["suites"]["collapse"]
    assert collapse["asserted"] is False
    assert collapse["lifted_star"]["failed_count"] >= 1
    assert collapse["lifted_star"]["witnesses"]
    assert collapse["uniform"]["rules_checked"] == 50


def test_check_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_check_star_distribution_accepted(capsys):
    code, out, _ = run_cli(
        ["check", "--suite", "relabel", "--dist", "star", "--samples", "20"], capsys
    )
    assert code == 0
    assert json.loads(out)["suites"]["relabel"]["passed"] is True


def test_check_rejects_inadmissible_epsilon(capsys):
    code, _, err = run_cli(
        ["check", "--suite", "relabel", "--dist", "star", "--epsilon", "2/3"], capsys
    )
    assert code == 2


def test_check_reports_are_deterministic(tmp_path, capsys):
    args = [
        "check", "--suite", "isometry", "--seed", "3", "--samples", "30",
        "--voters", "2", "--candidates", "3",
    ]
    _, out_a, _ = run_cli(args + ["--out", str(tmp_path / "a")], capsys)
    _, out_b, _ = run_cli(args + ["--out", str(tmp_path / "b")], capsys)
    assert out_a == out_b
    assert (tmp_path / "a" / "check_report.json").read_bytes() == (
        tmp_path / "b" / "check_report.json"
    ).read_bytes()


def test_module_entry_point_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "arrowlab.cli", "verify-arrow", "--voters", "1", "--candidates", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rules_found_count"] == 1


@pytest.mark.parametrize("samples", ["0", "-3", "abc", "1.5"])
def test_check_rejects_samples_below_one(samples, capsys):
    """--samples is checked when the arguments are parsed: a usage error, exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "metric", "--voters", "3", "--candidates", "3",
              "--samples", samples])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--samples" in err and "Traceback" not in err


def test_check_refuses_a_negative_seed(capsys):
    """``random.Random`` draws the same for a seed and its negation, so a
    negative ``--seed`` would repeat the rules of a positive one: a usage
    error, exit 2, with one line naming ``--seed``."""
    assert random_pareto_rule(3, 3, -2) == random_pareto_rule(3, 3, 2)
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "metric", "--voters", "3", "--candidates", "3",
              "--seed", "-2", "--samples", "5"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    errors = [line for line in err.splitlines() if "error" in line]
    assert errors == [
        "arrowlab check: error: argument --seed: expected an integer of at least 0, got '-2'"
    ]


def test_iterate_refuses_a_negative_max_steps(tmp_path, capsys):
    """A negative ``--max-steps`` is a usage error when the arguments are
    parsed, before the rule is loaded: exit 2, with one line naming
    ``--max-steps``."""
    rule_path = tmp_path / "rule.json"
    save_rule(dictator(2, 3, 0), rule_path)
    with pytest.raises(SystemExit) as exc:
        main(["iterate", "--rule", str(rule_path), "--max-steps", "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    errors = [line for line in err.splitlines() if "error" in line]
    assert errors == [
        "arrowlab iterate: error: argument --max-steps: expected an integer of at least 0, got '-1'"
    ]


@pytest.mark.parametrize("suite, counter", [("isometry", "pairs_checked"), ("relabel", "relabelings_checked")])
def test_a_wrong_relabeling_fails_its_suite(suite, counter, monkeypatch, capsys):
    """A planted relabeling that keeps the identity but collapses a rule
    onto voter 0 under the swap of two voters: the suite fails at the swap,
    having checked the identity, and the command exits 4."""
    relabel = rules_module.compose_voter_permutation

    def planted(rule, perm):
        return relabel(rule, perm) if perm.mapping == (0, 1) else compose_collapse(rule, 0)

    monkeypatch.setattr(rules_module, "compose_voter_permutation", planted)
    code, out, _ = run_cli(["check", "--suite", suite, "--samples", "2"], capsys)
    report = json.loads(out)
    assert report["suites"][suite] == {"asserted": True, "passed": False, counter: 1}
    assert (code, report["all_passed"]) == (4, False)


def test_override_still_refuses_six_candidates_in_one_line(monkeypatch, capsys):
    monkeypatch.setenv("ARROWLAB_SCALE_OVERRIDE", "1")
    code, out, err = run_cli(["check", "--voters", "1", "--candidates", "6"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: scale (n=1, m=6) exceeds the one-byte table limit")
    assert err.count("\n") == 1


def test_check_refuses_a_large_scale_before_listing_rankings(capsys):
    misses = enumerate_orders.cache_info().misses
    code, out, err = run_cli(["check", "--suite", "metric", "--candidates", "9"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: scale (n=2, m=9) exceeds desk bounds") and err.count("\n") == 1
    assert enumerate_orders.cache_info().misses == misses


@pytest.mark.parametrize(
    "text",
    [
        *map(json.dumps, [
            {"format_version": 1, "n": 2, "m": 3},
            {"format_version": 1, "n": 2, "m": 3, "table": "0,1,2"},
            {"format_version": 1, "n": 2, "m": 3, "table": [0.0] * 36},
            {"format_version": 1, "n": "2", "m": 3, "table": [0] * 36},
            {"format_version": 1, "m": 3, "table": [0] * 36},
            [1, 2, 3],
        ]),
        "[" * 200_000,
    ],
    ids=[
        "missing-table", "table-not-list", "float-entries", "string-n", "missing-n",
        "not-object", "deep-nesting",
    ],
)
def test_iterate_rejects_malformed_rule_file(text, tmp_path, capsys):
    rule_path = tmp_path / "rule.json"
    rule_path.write_text(text)
    code, out, err = run_cli(["iterate", "--rule", str(rule_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_cli_import_leaves_numpy_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, arrowlab.cli; print('numpy' in sys.modules, 'multiprocessing' in sys.modules)\n"
            "print(sorted(m for m in sys.modules if m.startswith('arrowlab')))\n"
            "from arrowlab.orders import _profile_blocks, pair_signatures, profile_digit_tuples\n"
            "print([f.cache_info().currsize for f in "
            "(_profile_blocks, pair_signatures, profile_digit_tuples)])",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    # Importing the CLI loads no other arrowlab module and builds no column:
    # start-up stays free of profile-space work.
    assert proc.stdout.splitlines() == [
        "False False",
        "['arrowlab', 'arrowlab.cli']",
        "[0, 0, 0]",
    ]


# Each command and the arrowlab submodules its process loads, past
# ``arrowlab`` and ``arrowlab.cli``; RULE stands for a (2,3) rule file.
# None loads OpenSSL (``_hashlib``), not even those that print a rule digest,
# and none loads ``multiprocessing``, not even ``check --jobs 2``.
COMMAND_MODULES = {
    "help": (["--help"], []),
    "usage-error": (["verify-arrow", "--voters", "2", "--candidates", "3", "--jobs", "0"], []),
    "verify-arrow": (["verify-arrow", "--voters", "2", "--candidates", "3"], ["arrowcheck", "orders", "rules"]),
    "iterate": (["iterate", "--rule", "RULE"], ["dynamics", "measures", "orders", "rules"]),
    "replay": (["replay", "--voters", "2"], ["dynamics", "measures", "orders", "rules"]),
    "metric": (["check", "--suite", "metric", "--samples", "3"], ["measures", "orders", "quotient", "rules"]),
    "relabel": (["check", "--suite", "relabel", "--samples", "2"], ["dynamics", "measures", "orders", "rules"]),
    "collapse": (
        ["check", "--suite", "collapse", "--samples", "2", "--jobs", "2"],
        ["dynamics", "measures", "orders", "rules"],
    ),
}


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_each_command_loads_only_the_modules_it_runs(command, tmp_path):
    argv, modules = COMMAND_MODULES[command]
    rule = tmp_path / "rule.json"
    save_rule(dictator(2, 3, 0), rule)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    script = (
        "import sys, arrowlab.cli\n"
        "try:\n    arrowlab.cli.main(sys.argv[1:])\nexcept SystemExit:\n    pass\n"
        "print(sorted(m for m in sys.modules if m.startswith('arrowlab')))\n"
        "print([m in sys.modules for m in ('dataclasses', 'inspect', '_hashlib', 'multiprocessing')])"
    )
    argv = [str(rule) if a == "RULE" else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    loaded, stdlib = proc.stdout.splitlines()[-2:]
    assert loaded == str(sorted(["arrowlab", "arrowlab.cli"] + [f"arrowlab.{m}" for m in modules]))
    assert stdlib == str([False, False, False, False])


PUBLIC_NAMES = """
    ArrowReport CollapseReport Distribution EquivalencePartition FiniteMetricSpace
    ForceProfile IterationTrace LinearOrder OrbitClass PairwiseAggregator ReplayReport
    VoterPermutation VotingRule aggregator_from_rule all_voter_permutations arrowcheck
    assemble_rule check_collapse_conjecture check_metric_axioms
    compose_collapse compose_voter_permutation constant_rule cylinder_extend dictator
    dynamics enumerate_orders force force_profile force_transfer force_transfer_class
    has_full_support is_dictatorship is_iia is_pareto is_permutation_invariant
    iterate_force_transfer lift_distribution load_distribution load_fixture load_rule
    measures orbit_class order_index orders pairwise_majority_rule quotient
    quotient_distance_chain quotient_distance_orbit random_orbit_fixture
    random_pareto_rule replay_contradiction rule_distance rules save_distribution
    save_fixture save_rule space_from_rules star_distribution table_digest
    uniform_distribution verify_arrow verify_orbit_partition write_trace
""".split()


def test_package_namespace_resolves_every_public_name():
    import arrowlab

    assert arrowlab.__all__ == PUBLIC_NAMES and len(PUBLIC_NAMES) == 63
    listed = dir(arrowlab)
    for name in arrowlab.__all__:
        assert name in listed
        value = getattr(arrowlab, name)
        if name in {"arrowcheck", "dynamics", "measures", "orders", "quotient", "rules"}:
            assert value is importlib.import_module(f"arrowlab.{name}")
        else:
            assert value.__module__.startswith("arrowlab.")
            assert value is getattr(sys.modules[value.__module__], name)
    with pytest.raises(AttributeError, match="no_such_name"):
        arrowlab.no_such_name


# The public names that no other module of the package reads and the bench
# tracer does not follow, each with why it stays public.
KEPT_PUBLIC_NAMES = {
    "ArrowReport": "what verify_arrow returns",
    "CollapseReport": "what check_collapse_conjecture returns",
    "ForceProfile": "what force_profile returns",
    "IterationTrace": "what iterate_force_transfer returns",
    "ReplayReport": "what replay_contradiction returns",
    "FiniteMetricSpace": "what space_from_rules returns",
    "PairwiseAggregator": "what assemble_rule reads",
    "OrbitClass": "what orbit_class returns",
    "orbit_class": "the classes of the transfer map on rules",
    "force_transfer_class": "the transfer map on those classes",
    "dictator": "the rules Arrow's theorem names",
    "constant_rule": "the transfer map on every IIA rule (ROADMAP)",
    "is_iia": "the transfer map on every IIA rule (ROADMAP)",
    "aggregator_from_rule": "the transfer map on every IIA rule (ROADMAP)",
    "load_distribution": "the distribution file format (README)",
    "save_distribution": "the distribution file format (README)",
    "load_fixture": "the metric fixture format (README)",
    "save_fixture": "the metric fixture format (README)",
    "EquivalencePartition": "the quotient of acceptance criterion 3",
    "quotient_distance_chain": "acceptance criterion 3",
    "quotient_distance_orbit": "acceptance criterion 3",
    "verify_orbit_partition": "acceptance criterion 3",
    "random_orbit_fixture": "acceptance criterion 3",
}


def test_every_public_name_has_a_caller_or_a_reason():
    """A public name is read by a package module other than its own (the
    command line included), is followed by the bench tracer, or is kept
    above with its reason; the table lists no name that has a caller."""
    import arrowlab

    read = {}
    for path in sorted((SRC / "arrowlab").glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text())
            read[path.stem] = {
                getattr(node, "id", None) or getattr(node, "attr", None) or node.name
                for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
            }
    followed = {name for names in _bench_tracer().FOLLOWED.values() for name in names}
    uncalled = {
        name
        for name, module in arrowlab._MODULE_OF.items()
        if name != module
        and name not in followed
        and not any(name in names for other, names in read.items() if other != module)
    }
    assert uncalled == set(KEPT_PUBLIC_NAMES)


@pytest.mark.parametrize("command", ["check", "verify-arrow"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_a_usage_error(command, jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--voters", "2", "--candidates", "3", "--jobs", jobs])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--jobs" in err and "Traceback" not in err


@pytest.mark.parametrize("epsilon", ["1/0", "3/2", "0", "abc", "1e-1000"])
def test_epsilon_outside_the_open_unit_interval_is_a_usage_error(epsilon, capsys):
    for command in (["check", "--suite", "metric", "--samples", "2"], ["replay"]):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--epsilon", epsilon])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--epsilon" in err and "Traceback" not in err


def test_replay_default_report(capsys):
    code, out, err = run_cli(["replay"], capsys)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["config"] == {
        "command": "replay", "voters": 3, "candidates": 3, "epsilon": "1/2", "y_index": 0,
    }
    assert report["forces"] == ["383/630", "383/630", "55/126"]
    assert report["transfer_fixed"] is True
    assert report["dictator_voter"] is None
    assert report["last_voter_unique_least"] is True
    assert report["last_force_bound_ok"] is False


@pytest.mark.parametrize("voters,candidates", [(3, 3), (4, 3), (3, 4)])
def test_replay_report_equals_replay_contradiction(voters, candidates, capsys):
    code, out, _ = run_cli(
        ["replay", "--voters", str(voters), "--candidates", str(candidates),
         "--epsilon", "1/3", "--y-index", "1"],
        capsys,
    )
    assert code == 0
    expected = replay_contradiction(
        pairwise_majority_rule(voters - 1, candidates), Fraction(1, 3),
        enumerate_orders(candidates)[1],
    )
    report = json.loads(out)
    for field in ReplayReport._fields:
        value = getattr(expected, field)
        if isinstance(value, Fraction):
            value = f"{value.numerator}/{value.denominator}"
        elif isinstance(value, tuple):
            value = [f"{v.numerator}/{v.denominator}" for v in value]
        assert report.pop(field) == value, field
    assert set(report) == {"format_version", "config"}
    assert (report["format_version"], report["config"]["voters"]) == (1, voters)


def test_replay_out_file_equals_stdout_and_is_deterministic(tmp_path, capsys):
    _, out_a, _ = run_cli(["replay", "--out", str(tmp_path / "a")], capsys)
    _, out_b, _ = run_cli(["replay", "--out", str(tmp_path / "b")], capsys)
    file_a = (tmp_path / "a" / "replay_report.json").read_text()
    assert out_a == out_b == file_a
    assert file_a == (tmp_path / "b" / "replay_report.json").read_text()


@pytest.mark.parametrize(
    "args,message",
    [
        (["--y-index", "9"], "--y-index 9 out of range"),
        (["--candidates", "9"], "exceeds desk bounds"),
        (["--voters", "1"], "at least two voters"),
    ],
    ids=["y-index", "candidates", "voters"],
)
def test_replay_rejects_bad_input_with_one_line(args, message, capsys):
    code, out, err = run_cli(["replay", *args], capsys)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


@pytest.mark.parametrize("epsilon", ["1/0", "3/2"], ids=["zero-denominator", "above-one"])
def test_replay_rejects_bad_epsilon_with_one_error_line(epsilon, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--epsilon", epsilon])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [
        "arrowlab replay: error: argument --epsilon: "
        f"expected a rational strictly between 0 and 1, got '{epsilon}'"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-arrow", "--voters", "2", "--candidates", "3"],
        ["iterate", "--rule", "RULE"],
        ["check", "--suite", "metric", "--samples", "2"],
        ["replay"],
    ],
    ids=["verify-arrow", "iterate", "check", "replay"],
)
@pytest.mark.parametrize("out", ["file", "file/under"])
def test_out_that_is_no_directory_is_refused_before_any_work(argv, out, tmp_path, capsys):
    rule = tmp_path / "rule.json"
    save_rule(dictator(2, 3, 0), rule)
    (tmp_path / "file").write_text("kept")
    argv = [str(rule) if a == "RULE" else a for a in argv]
    code, stdout, err = run_cli([*argv, "--out", str(tmp_path / out)], capsys)
    assert code == 2 and stdout == ""
    assert err == f"error: --out {tmp_path / out}: {tmp_path / 'file'} exists and is not a directory\n"
    assert (tmp_path / "file").read_text() == "kept"


# Each command with ``--jobs 2`` where it takes it (RULE: a (2,3) rule file),
# the file its report goes to under ``--out``, and the keys of its ``config``.
REPORT_CONFIGS = {
    "verify-arrow": (
        ["verify-arrow", "--voters", "2", "--candidates", "3", "--jobs", "2"],
        "verify_arrow_report.json",
        {"command", "voters", "candidates"},
    ),
    "iterate": (
        ["iterate", "--rule", "RULE", "--jobs", "2"],
        "trace.jsonl",
        {"command", "voters", "candidates", "dist", "epsilon", "y_index", "max_steps", "rule_table_digest"},
    ),
    "check": (
        ["check", "--suite", "collapse", "--samples", "2", "--jobs", "2"],
        "check_report.json",
        {"command", "suite", "voters", "candidates", "dist", "epsilon", "y_index", "seed", "samples"},
    ),
    "replay": (["replay"], "replay_report.json", {"command", "voters", "candidates", "epsilon", "y_index"}),
}


@pytest.mark.parametrize("command", list(REPORT_CONFIGS))
def test_report_config_leaves_out_locations_and_workers(command, tmp_path, capsys):
    argv, filename, keys = REPORT_CONFIGS[command]
    rule = tmp_path / "rule.json"
    save_rule(dictator(2, 3, 0), rule)
    argv = [str(rule) if a == "RULE" else a for a in argv]
    code, out, _ = run_cli([*argv, "--out", str(tmp_path / "out")], capsys)
    assert code == 0
    config = json.loads(out)["config"]
    assert set(config) == keys and not {"out", "jobs", "rule", "handler"} & set(config)
    assert config["command"] == command and config.get("epsilon", "1/2") == "1/2"
    written = (tmp_path / "out" / filename).read_text()
    assert json.loads(written.splitlines()[0] if command == "iterate" else written)["config"] == config


def test_verify_arrow_report_loads_no_rationals(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    script = (
        "import sys, arrowlab.cli\n"
        "arrowlab.cli.main(sys.argv[1:])\n"
        "print([m in sys.modules for m in ('arrowlab.measures', 'fractions')])"
    )
    argv = REPORT_CONFIGS["verify-arrow"][0] + ["--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str([False, False])
    assert (tmp_path / "verify_arrow_report.json").exists()


def test_iterate_takes_no_seed(tmp_path, capsys):
    rule_path = tmp_path / "rule.json"
    save_rule(dictator(2, 3, 0), rule_path)
    with pytest.raises(SystemExit) as exc:
        main(["iterate", "--rule", str(rule_path), "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def _bench_tracer():
    path = SRC.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("arrowlab_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_bench_tracer_follows_existing_names():
    tracer = _bench_tracer()
    missing = [
        f"{module}.{name}"
        for module, names in tracer.FOLLOWED.items()
        for name in names
        if not hasattr(importlib.import_module(f"arrowlab.{module}"), name)
    ]
    assert tracer.FOLLOWED and missing == []


# The first rule from seed 0 whose class the transfer map breaks, per n at m = 3.
WELLDEF_WITNESSES = {
    3: (6, "c7211eb9a1d942ffc2b28a42e4062ba901a2c7f749226f5d198ad2ecb9db3920"),
    4: (33, "48b71b246ec96cf9c664bfa314d52b12f0cb7e20114c898d977256606060a1e5"),
}


@pytest.mark.parametrize("n", sorted(WELLDEF_WITNESSES))
def test_welldef_failure_names_its_witness(capsys, n):
    seed, digest = WELLDEF_WITNESSES[n]
    code, out, _ = run_cli(
        ["check", "--suite", "welldef", "--voters", str(n), "--candidates", "3", "--seed", "0"],
        capsys,
    )
    assert code == 4
    report = json.loads(out)["suites"]["welldef"]
    assert report == {
        "passed": False,
        "asserted": True,
        "orbits_checked": seed,
        "witness": {"seed": seed, "rule_table_digest": digest},
    }
    assert table_digest(random_pareto_rule(n, 3, seed)) == digest


def test_cylinder_failure_names_its_witness(capsys):
    code, out, _ = run_cli(
        ["check", "--suite", "cylinder", "--voters", "3", "--candidates", "3", "--seed", "0"],
        capsys,
    )
    assert code == 4
    bases = json.loads(out)["suites"]["cylinder"]["base_distributions"]
    digest = "9188cc484b824a3e9fde127ebef7b1d8fc4694f310b290e6aae90d5e346c9b5f"
    assert table_digest(cylinder_extend(random_pareto_rule(2, 3, 0))) == digest
    forces = {"uniform": ["1/2", "5/12", "1/6"], "star": ["61/105", "23/45", "139/630"]}
    for label, base in bases.items():
        assert base["passed"] is False and base["rules_checked"] == 0
        assert base["witness"] == {"seed": 0, "rule_table_digest": digest, "forces": forces[label]}
    assert set(bases) == set(forces)


def test_suite_populations_and_asserted_flags(capsys):
    """With no ``--samples``, each suite checks its default population, and
    every suite but ``collapse`` is asserted."""
    code, out, _ = run_cli(["check", "--suite", "all", "--voters", "2", "--candidates", "3"], capsys)
    assert code == 0
    suites = json.loads(out)["suites"]
    assert suites["metric"]["points"] == 50
    assert suites["isometry"]["pairs_checked"] == 200
    assert suites["relabel"]["relabelings_checked"] == 400
    assert suites["welldef"]["orbits_checked"] == 100
    bases = suites["cylinder"]["base_distributions"]
    assert {label: base["rules_checked"] for label, base in bases.items()} == {"uniform": 200, "star": 200}
    assert suites["collapse"]["uniform"]["rules_checked"] == 1000
    assert {name: suite["asserted"] for name, suite in suites.items()} == {
        name: name != "collapse" for name in SUITE_NAMES
    }


def test_passing_suites_carry_no_witness(capsys):
    code, out, _ = run_cli(
        ["check", "--suite", "all", "--voters", "2", "--candidates", "3", "--samples", "4"],
        capsys,
    )
    assert code == 0
    suites = json.loads(out)["suites"]
    assert "witness" not in suites["welldef"]
    assert all("witness" not in base for base in suites["cylinder"]["base_distributions"].values())


# Per flag, tokens that argparse accepts, some of which the command refuses,
# and tokens that argparse refuses.  Scales stop at three voters and three
# candidates, where every command finishes in milliseconds.
_SCALE = {
    "--voters": (("-1", "0", "1", "2", "3", "9"), ("x",)),
    "--candidates": (("-1", "0", "1", "2", "3", "9"), ("x",)),
}
_SPREAD = {
    "--epsilon": (("1/2", "1/3"), ("0", "3/2", "1/0", "x")),
    "--y-index": (("-1", "0", "5", "6"), ("x",)),
}
_DIST = {"--dist": (("uniform", "star", "lift-star"), ("cubic",))}
_JOBS = {"--jobs": (("1", "2"), ("-1", "0", "x"))}
_OUT = {"--out": (("dir", "file", "under-file"), ())}
FUZZ_FLAGS = {
    "verify-arrow": {**_SCALE, **_JOBS, **_OUT},
    "iterate": {
        "--rule": (("rule", "missing", "dir", "malformed"), ()),
        "--max-steps": (("0", "1", "64"), ("-1", "x")),
        **_DIST, **_SPREAD, **_JOBS, **_OUT,
    },
    "check": {
        "--suite": ((*SUITE_NAMES, "all"), ("none",)),
        "--samples": (("1", "2"), ("-1", "0", "x")),
        "--seed": (("0", "7"), ("-1", "x")),
        **_SCALE, **_DIST, **_SPREAD, **_JOBS, **_OUT,
    },
    "replay": {**_SCALE, **_SPREAD, **_OUT},
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cli_fuzz_exits_with_a_known_code_and_no_traceback(tmp_path_factory, data):
    """Every command, under any subset of its flags with at most one token
    that argparse refuses, exits 0, 2, 3 or 4 and writes no traceback."""
    root = tmp_path_factory.getbasetemp() / "fuzz"
    paths = {name: root / name for name in ("rule", "missing", "dir", "malformed", "file")}
    paths["under-file"] = paths["file"] / "out"
    if not root.exists():
        paths["dir"].mkdir(parents=True)
        save_rule(random_pareto_rule(2, 3, 0), paths["rule"])
        paths["malformed"].write_text('{"format_version": 1, "n": 2, "m": 3, "table": [')
        paths["file"].write_text("")
    command = data.draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = FUZZ_FLAGS[command]
    refused = data.draw(st.sampled_from([None, *flags]), label="refused flag")
    argv = [command]
    for flag, (good, bad) in flags.items():
        token = data.draw(st.none() | st.sampled_from(bad if flag == refused and bad else good))
        if token is not None:
            argv += [flag, str(paths.get(token, token))]
    if command == "check" and "--samples" not in argv:
        argv += ["--samples", "1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if str(paths["file"]) in argv or str(paths["under-file"]) in argv:
        # An --out that cannot become a directory is refused before any work.
        assert code == 2 and out.getvalue() == "", argv
