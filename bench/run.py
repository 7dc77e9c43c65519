"""arrowlab benchmark: the three CLI commands run as a user runs them, one
fresh process per command, one command at a time, every output checked
against an exact reference made apart from the program.

    python3 bench/run.py --workload claims-43 --seed 1 --seconds 25 --trace 0

A run repeats whole rounds of the workload's commands.  Before each round
and after the last, fresh processes time the program's start-up.  It starts
no round that would end after ``--seconds``, but always runs one.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of the traced rounds (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

import checks  # noqa: E402  (BENCH is on sys.path as the script's directory)
import inputs  # noqa: E402
import tracer  # noqa: E402

PROBES_PER_ROUND = 4
# A command still running this long after the run started is killed and
# counts as failed, so that a run ends within three minutes.
DEADLINE_S = 160.0


@dataclass
class Command:
    name: str
    argv: list[str]
    check: Callable[[Path, str, int], None]


@dataclass
class Result:
    name: str
    wall_s: float
    rss_mb: float
    ok: bool
    wrong: bool
    totals: dict | None = None


# --- workloads -------------------------------------------------------------

CLAIMS_SAMPLES = {"metric": 24, "isometry": 16, "relabel": 5, "collapse": 12}


def claims_43(seed: int, inputs_dir: Path) -> list[Command]:
    """The seeded property suites that pass at (4,3), verify-arrow at (3,3),
    and the two verify-arrow scales the program refuses today."""
    commands = []
    for suite, samples in CLAIMS_SAMPLES.items():
        want = checks.suite_expectation(suite, 4, 3, seed, samples)
        argv = ["check", "--suite", suite, "--voters", "4", "--candidates", "3"]
        argv += ["--samples", str(samples), "--seed", str(seed)]
        commands.append(
            Command(f"check-{suite}", argv, lambda out, so, code, w=want: checks.check_suite(out, so, code, w))
        )
    for n, m in ((3, 3), (4, 3), (3, 4)):
        argv = ["verify-arrow", "--voters", str(n), "--candidates", str(m)]
        commands.append(
            Command(
                f"verify-arrow-{n}{m}",
                argv,
                lambda out, so, code, n=n, m=m: checks.check_verify_arrow(out, so, code, n, m),
            )
        )
    return commands


def iterate_command(name: str, rule: Path, table, n: int, m: int, dist: str, y_index: int) -> Command:
    want = checks.iterate_expectation(table, n, m, dist, y_index, 64)
    argv = ["iterate", "--rule", str(rule), "--dist", dist, "--y-index", str(y_index)]
    return Command(name, argv, lambda out, so, code: checks.check_iterate(out, so, code, want))


def iterate_44(seed: int, inputs_dir: Path) -> list[Command]:
    """A random Pareto-consistent rule and majority with a seeded tiebreak,
    each under uniform and star, at (4,4)."""
    rng = random.Random(seed)
    y_index = rng.randrange(24)
    tables = {
        "pareto": inputs.random_pareto_table(4, 4, seed),
        "majority": inputs.majority_table(4, 4, tuple(rng.sample(range(4), 4))),
    }
    commands = []
    for label, table in tables.items():
        rule = inputs_dir / f"{label}.json"
        inputs.write_rule(rule, 4, 4, table)
        for dist in ("uniform", "star"):
            commands.append(iterate_command(f"iterate-{label}-{dist}", rule, table, 4, 4, dist, y_index))
    return commands


def lift_44(seed: int, inputs_dir: Path) -> list[Command]:
    """A rule that ignores its trailing voter, on a random Pareto base at
    (3,4), under the lifted star distribution at (4,4)."""
    y_index = random.Random(seed).randrange(24)
    table = inputs.cylinder_table(inputs.random_pareto_table(3, 4, seed), 4)
    rule = inputs_dir / "cylinder.json"
    inputs.write_rule(rule, 4, 4, table)
    return [iterate_command("iterate-cylinder-lift-star", rule, table, 4, 4, "lift-star", y_index)]


WORKLOADS = {"claims-43": claims_43, "iterate-44": iterate_44, "lift-44": lift_44}


# --- processes -------------------------------------------------------------


class Launcher:
    """The process that starts and times the benchmarked commands (see
    launcher.py)."""

    def __init__(self, env: dict, deadline: float) -> None:
        self.deadline = deadline
        # A session of its own, so that closing can stop the launcher and
        # any command it is still running.
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            env=env,
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> tuple[float, float, int]:
        """Wall time, peak RSS in MB and exit code of one process."""
        timeout = max(1.0, self.deadline - time.monotonic())
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr), "timeout_s": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended")
        reply = json.loads(line)
        return reply["wall_s"], reply["rss_mb"], reply["exit"]

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_command(cmd: Command, directory: Path, starter: Launcher, traced: bool) -> Result:
    out = directory / cmd.name
    out.mkdir(parents=True)
    spans = out / "spans.json"
    prefix = [sys.executable, str(BENCH / "tracer.py"), str(spans), "--"] if traced else [sys.executable, "-m", "arrowlab.cli"]
    wall, rss, code = starter.run(prefix + cmd.argv + ["--out", str(out)], out / "stdout", out / "stderr")
    stdout = (out / "stdout").read_text(errors="replace")
    result = Result(cmd.name, wall, rss, ok=False, wrong=False)
    try:
        cmd.check(out, stdout, code)
        result.ok = True
    except Exception as exc:  # any malformed output counts as this command failing
        result.wrong = bool(stdout.strip())  # a report was printed, and it is wrong
        stderr = (out / "stderr").read_text(errors="replace").strip().splitlines()
        print(f"FAILED {cmd.name} (exit {code}): {type(exc).__name__}: {exc}"[:600], file=sys.stderr)
        if stderr:
            print(f"  stderr: {stderr[-1][:300]}", file=sys.stderr)
    if traced:
        try:
            result.totals = json.loads(spans.read_text())["totals"]
        except (OSError, ValueError, KeyError):  # a killed command leaves no spans
            pass
    shutil.rmtree(out)
    return result


def probe_setup(starter: Launcher, directory: Path, count: int) -> list[float]:
    """Start-up time of fresh processes that import arrowlab's CLI, build its
    parser and print the help, doing no work."""
    times = []
    for _ in range(count):
        wall, _, code = starter.run(
            [sys.executable, "-m", "arrowlab.cli", "--help"], directory / "setup.out", directory / "setup.err"
        )
        if code != 0 or "verify-arrow" not in (directory / "setup.out").read_text():
            raise RuntimeError("arrowlab --help failed: " + (directory / "setup.err").read_text()[-300:])
        times.append(wall)
    return times


# --- metrics ---------------------------------------------------------------


def per_command_median(rounds: list[list[Result]], field: str) -> dict[str, float]:
    names = [r.name for r in rounds[0]]
    return {name: statistics.median(getattr(rd[i], field) for rd in rounds) for i, name in enumerate(names)}


def round_wall(rounds: list[list[Result]]) -> float:
    """The sum over commands of each command's median wall time."""
    return sum(per_command_median(rounds, "wall_s").values())


def end_to_end(rounds: list[list[Result]], setup: list[float]) -> dict:
    return {
        "wall_s": {"value": round_wall(rounds), "unit": "s"},
        "peak_rss_mb": {"value": max(per_command_median(rounds, "rss_mb").values()), "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def per_layer(plain: list[list[Result]], traced: list[list[Result]]) -> dict:
    metrics = {}
    for name in tracer.SPAN_NAMES:
        self_times = [sum(r.totals[name]["self_s"] for r in rd if r.totals) for rd in traced]
        metrics[f"{name}.self_s"] = {"value": statistics.median(self_times), "unit": "s"}
        for count in ("calls", "entries") if name in tracer.KERNELS else ("calls",):
            metrics[f"{name}.{count}"] = {
                "value": sum(r.totals[name][count] for r in traced[0] if r.totals),
                "unit": "count",
            }
    metrics["trace.overhead_s"] = {"value": round_wall(traced) - round_wall(plain), "unit": "s"}
    return metrics


# --- main ------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "arrowlab" / "cli.py").is_file():
        print(f"error: no arrowlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        commands = WORKLOADS[args.workload](args.seed, work / "inputs")
        with Launcher(child_env(), deadline) as starter:
            result = measure(args, work, commands, starter)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args: argparse.Namespace, work: Path, commands: list[Command], starter: Launcher) -> dict:
    probe_setup(starter, work, 1)  # compiles the bytecode cache; not counted
    started = time.perf_counter()
    setup: list[float] = []
    plain: list[list[Result]] = []
    traced: list[list[Result]] = []
    while True:
        round_started = time.perf_counter()
        setup += probe_setup(starter, work, PROBES_PER_ROUND)
        plain.append([run_command(c, work / f"r{len(plain)}", starter, False) for c in commands])
        if args.trace:
            traced.append([run_command(c, work / f"t{len(traced)}", starter, True) for c in commands])
        now = time.perf_counter()
        if now - started + (now - round_started) > args.seconds:
            break
    setup += probe_setup(starter, work, PROBES_PER_ROUND)
    print(
        f"{args.workload} seed {args.seed}: {len(plain)} rounds in {time.perf_counter() - started:.1f} s",
        file=sys.stderr,
    )
    results = [r for rd in plain + traced for r in rd]
    return {
        "correct": not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "metrics": per_layer(plain, traced) if args.trace else end_to_end(plain, setup),
    }


if __name__ == "__main__":
    sys.exit(main())
