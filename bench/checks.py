"""What each benchmarked command must print and write, built from the
reference, and the comparisons that decide whether a command's output is
correct.  A check raises ``WrongOutput`` naming the first difference."""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import numpy as np

import reference
from inputs import cylinder_table, digit_matrix, majority_table


class WrongOutput(Exception):
    pass


def expect(what: str, actual, wanted) -> None:
    if actual != wanted:
        raise WrongOutput(f"{what}: got {actual!r}, expected {wanted!r}")


def parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise WrongOutput(f"{what} is not JSON: {exc}") from None


# --- iterate ---------------------------------------------------------------


def iterate_expectation(
    table: np.ndarray, n: int, m: int, dist: str, y_index: int, max_steps: int
) -> dict:
    """Report config and the trace records the iteration must produce."""
    replay = reference.replay(
        table, n, m, reference.distribution(dist, n, m, Fraction(1, 2), y_index), max_steps
    )
    config = {
        "command": "iterate",
        "voters": n,
        "candidates": m,
        "dist": dist,
        "epsilon": "1/2",
        "y_index": y_index,
        "max_steps": max_steps,
        "rule_table_digest": reference.digest(n, m, table),
    }
    steps = [
        {
            "step": s,
            "rule_table_digest": digest,
            "forces": [reference.rational(v) for v in fp.values],
            "most_forceful": list(fp.most),
            "least_forceful": list(fp.least),
        }
        for s, (digest, fp) in enumerate(replay.steps)
    ]
    footer = {
        "terminated_by": replay.terminated_by,
        "fixpoint_is_dictatorship": replay.fixpoint_is_dictatorship,
        "steps": len(steps),
    }
    return {
        "exit": 0 if replay.terminated_by == "fixpoint" else 3,
        "report": {"format_version": 1, "config": config, **footer},
        "trace": [{"format_version": 1, "config": config}, *steps, footer],
        "cylinder": bool(np.array_equal(table, cylinder_table(table[:: factorial(m)], m))),
    }


def trace_properties(records: list[dict], cylinder: bool) -> None:
    """Properties any correct trace has, whatever the rule."""
    steps, footer = records[1:-1], records[-1]
    for record in steps:
        forces = [Fraction(f) for f in record["forces"]]
        top, bottom = max(forces), min(forces)
        expect("most_forceful", record["most_forceful"], [i for i, v in enumerate(forces) if v == top])
        expect("least_forceful", record["least_forceful"], [i for i, v in enumerate(forces) if v == bottom])
    if footer["fixpoint_is_dictatorship"]:
        expect("a dictatorship's forces include 1/1", "1/1" in steps[-1]["forces"], True)
    n = len(steps[0]["forces"])
    if cylinder and steps[0]["least_forceful"] == [n - 1]:
        expect("steps of a cylinder whose ignored voter is the only least forceful", footer["steps"], 1)
        expect("its termination", footer["terminated_by"], "fixpoint")


def check_iterate(out: Path, stdout: str, exit_code: int, want: dict) -> None:
    expect("exit code", exit_code, want["exit"])
    expect("report", parse_json(stdout, "report"), want["report"])
    lines = (out / "trace.jsonl").read_text().splitlines()
    records = [parse_json(line, f"trace line {i}") for i, line in enumerate(lines)]
    expect("trace length", len(records), len(want["trace"]))
    for i, (got, wanted) in enumerate(zip(records, want["trace"])):
        expect(f"trace record {i}", got, wanted)
    trace_properties(records, want["cylinder"])


# --- check suites ----------------------------------------------------------


CHECK_DEFAULTS = {"dist": "uniform", "epsilon": "1/2", "y_index": 0}


def suite_expectation(suite: str, n: int, m: int, seed: int, samples: int) -> dict:
    perms = factorial(n)
    if suite == "metric":
        body = {"passed": True, "points": samples, "violation": None, "witness": []}
    elif suite == "isometry":
        body = {"passed": True, "pairs_checked": samples // 2 * perms}
    elif suite == "relabel":
        body = {"passed": True, "relabelings_checked": samples * perms}
    elif suite == "collapse":
        body = collapse_expectation(n, m, seed, samples)
    else:
        raise ValueError(f"no reference for suite {suite!r}")
    body.setdefault("asserted", suite != "collapse")
    config = {
        "command": "check",
        "suite": suite,
        "voters": n,
        "candidates": m,
        "seed": seed,
        "samples": samples,
        **CHECK_DEFAULTS,
    }
    return {"format_version": 1, "config": config, "suites": {suite: body}, "all_passed": True}


def collapse_expectation(n: int, m: int, seed: int, samples: int) -> dict:
    uniform = reference.uniform(n, m)
    tally = [
        reference.collapse_entry(reference.program_pareto_rule(n, m, seed + i), n, m, uniform)
        for i in range(samples)
    ]
    passed = sum(e["passed"] for e in tally)
    nw = max(n, 3)
    lifted = reference.distribution("lift-star", nw, m, Fraction(1, 2), 0)
    bases = [majority_table(nw - 1, m)]
    bases += [reference.program_pareto_rule(nw - 1, m, seed + i) for i in range(3)]
    witness = [reference.collapse_entry(cylinder_table(b, m), nw, m, lifted) for b in bases]
    return {
        "passed": True,
        "asserted": False,
        "uniform": {"rules_checked": samples, "passed_count": passed, "failed_count": samples - passed},
        "lifted_star": {
            "voters": nw,
            "rules_checked": len(witness),
            "failed_count": sum(not e["passed"] for e in witness),
            "witnesses": [
                {k: e[k] for k in ("rule_table_digest", "iterate_equals_rule", "iterate_is_dictatorship")}
                for e in witness
                if not e["passed"]
            ],
        },
    }


def check_suite(out: Path, stdout: str, exit_code: int, want: dict) -> None:
    expect("exit code", exit_code, 0)
    expect("report", parse_json(stdout, "report"), want)
    expect("report file", (out / "check_report.json").read_text(), stdout)


# --- verify-arrow ----------------------------------------------------------


def check_verify_arrow(out: Path, stdout: str, exit_code: int, n: int, m: int) -> None:
    """Exactly the n dictatorships survive, named by the README digest, and
    the scan covers every pinned aggregator combination."""
    expect("exit code", exit_code, 0)
    report = parse_json(stdout, "report")
    scanned = 2 ** ((2**n - 2) * comb(m, 2))
    digits = digit_matrix(n, m)
    found = report.get("rules_found")
    expect("rules_found is a list", isinstance(found, list), True)
    expect("dictators found", sorted(r.get("dictator_voter") for r in found), list(range(n)))
    indices = [r.get("candidate_index") for r in found]
    expect("candidate indices ascend", indices, sorted(set(indices)))
    expect("candidate indices in range", all(0 <= c < scanned for c in indices), True)
    expect(
        "report",
        report,
        {
            "format_version": 1,
            "config": {"command": "verify-arrow", "voters": n, "candidates": m},
            "n": n,
            "m": m,
            "candidates_scanned": scanned,
            "rules_found": [
                {
                    "candidate_index": r["candidate_index"],
                    "rule_table_digest": reference.digest(n, m, digits[:, r["dictator_voter"]]),
                    "dictator_voter": r["dictator_voter"],
                    "file": f"rule_{r['candidate_index']:06d}.json",
                }
                for r in found
            ],
            "rules_found_count": n,
            "all_dictators": True,
        },
    )
    expect("report file", (out / "verify_arrow_report.json").read_text(), stdout)
    for r in found:
        rule = parse_json((out / r["file"]).read_text(), r["file"])
        expect(
            r["file"],
            rule,
            {"format_version": 1, "n": n, "m": m, "table": digits[:, r["dictator_voter"]].tolist()},
        )
