"""The benchmark's own tests, at small scales:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import time
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import inputs
import reference
import run
import tracer


@pytest.fixture(scope="module")
def starter():
    launcher = run.Launcher(run.child_env(), time.monotonic() + 600)
    yield launcher
    launcher.close()


@pytest.fixture()
def lift_33(tmp_path: Path) -> run.Command:
    table = inputs.cylinder_table(inputs.random_pareto_table(2, 3, 7), 3)
    rule = tmp_path / "cylinder.json"
    inputs.write_rule(rule, 3, 3, table)
    return run.iterate_command("lift-33", rule, table, 3, 3, "lift-star", 2)


def corrupted(cmd: run.Command, stdout=lambda s: s, trace=lambda s: s) -> run.Command:
    def check(out: Path, so: str, code: int) -> None:
        path = out / "trace.jsonl"
        path.write_text(trace(path.read_text()))
        cmd.check(out, stdout(so), code)

    return run.Command(cmd.name, cmd.argv, check)


def test_correct_iterate_output_passes(tmp_path, starter, lift_33):
    result = run.run_command(lift_33, tmp_path / "runs", starter, traced=False)
    assert result.ok and not result.wrong
    assert result.wall_s > 0 and result.rss_mb > 5


@pytest.mark.parametrize(
    "damage",
    [
        {"trace": lambda s: s.replace('"step": 0', '"step": 1', 1)},
        {"trace": lambda s: s.replace('"1/', '"2/', 1)},
        {"trace": lambda s: "\n".join(s.splitlines()[:-1]) + "\n"},
        {"trace": lambda s: s[: len(s) // 2]},
        {"stdout": lambda s: s.replace('"fixpoint"', '"step-limit"')},
        {"stdout": lambda s: s.replace('"rule_table_digest": "', '"rule_table_digest": "0')},
        {"stdout": lambda s: s[:-3]},
    ],
)
def test_corrupted_trace_or_report_counts_as_failed(tmp_path, starter, lift_33, damage):
    result = run.run_command(corrupted(lift_33, **damage), tmp_path / "runs", starter, traced=False)
    assert not result.ok
    assert result.wrong


def test_failed_command_does_not_stop_the_round(tmp_path, starter, lift_33):
    refused = run.claims_43(0, tmp_path)[-2]  # verify-arrow at (4,3)
    assert refused.name == "verify-arrow-43"
    verify_33 = run.claims_43(0, tmp_path)[-3]
    results = [run.run_command(c, tmp_path / "r", starter, False) for c in (refused, verify_33, lift_33)]
    assert [r.ok for r in results] == [False, True, True]
    assert not results[0].wrong  # a refusal prints no report: failed, not wrong


def test_collapse_suite_matches_reference(tmp_path, starter):
    want = checks.suite_expectation("collapse", 4, 3, 5, 3)
    argv = ["check", "--suite", "collapse", "--voters", "4", "--candidates", "3"]
    argv += ["--samples", "3", "--seed", "5"]
    cmd = run.Command("collapse", argv, lambda out, so, code: checks.check_suite(out, so, code, want))
    assert run.run_command(cmd, tmp_path, starter, False).ok


def test_traced_counts_repeat(tmp_path, starter, lift_33):
    totals = [run.run_command(lift_33, tmp_path / str(i), starter, True).totals for i in range(2)]
    assert totals[0] is not None
    assert set(totals[0]) == set(tracer.SPAN_NAMES)
    counts = [{k: (v["calls"], v["entries"]) for k, v in t.items()} for t in totals]
    assert counts[0] == counts[1]
    assert counts[0]["measures.lift_distribution"] == (1, 216)
    assert counts[0]["dynamics.force_profile"][0] >= 1
    assert counts[0]["cli.main"][0] == 1
    assert all(v["self_s"] >= 0 for v in totals[0].values())


def test_reference_lift_is_a_distribution():
    w = reference.distribution("lift-star", 3, 3, Fraction(1, 2), 4)
    assert int(w.num.sum()) == w.den
    assert (w.num > 0).all()


def test_trace_properties_catch_a_wrong_argmax():
    records = [
        {"format_version": 1, "config": {}},
        {"forces": ["1/2", "1/3"], "most_forceful": [1], "least_forceful": [1], "step": 0},
        {"terminated_by": "fixpoint", "fixpoint_is_dictatorship": False, "steps": 1},
    ]
    with pytest.raises(checks.WrongOutput):
        checks.trace_properties(records, cylinder=False)


def test_inputs_repeat_for_a_seed():
    a, b = inputs.random_pareto_table(3, 3, 11), inputs.random_pareto_table(3, 3, 11)
    assert (a == b).all()
    assert not (a == inputs.random_pareto_table(3, 3, 12)).all()
    allowed = inputs.pareto_allowed(3, 3)
    assert allowed[range(len(a)), a].all()


def test_command_past_the_deadline_is_killed_and_failed(tmp_path):
    starter = run.Launcher(run.child_env(), time.monotonic() + 1.0)
    try:
        argv = ["check", "--suite", "relabel", "--voters", "4", "--candidates", "3", "--samples", "200"]
        cmd = run.Command("slow", argv, lambda out, so, code: checks.expect("exit code", code, 0))
        result = run.run_command(cmd, tmp_path, starter, False)
    finally:
        starter.close()
    assert not result.ok and not result.wrong
    assert result.wall_s < 5
