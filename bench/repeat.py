"""Repeat benchmark runs over consecutive seeds and print, for every metric,
the median, the quartiles and their spread as a share of the median.

    python3 bench/repeat.py --runs 10 --first-seed 1 --seconds 25 \
        --workload claims-43 --workload iterate-44 --workload lift-44

Seeds are the outer loop and workloads the inner one, so slow spells of
the machine fall on every workload alike.  The last line of stdout is a
JSON object holding every run's result, for the record in README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(workload: str, results: list[dict]) -> list[str]:
    lines = []
    shares = {(r["failed"], r["attempted"]) for r in results}
    ratio = {f"{f}/{a}" for f, a in shares}
    lines.append(
        f"{workload}: {len(results)} runs, correct {all(r['correct'] for r in results)}, "
        f"failed/attempted {sorted(ratio)}, failed share {sorted({f / a for f, a in shares})}"
    )
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / median if median else float("nan")
        lines.append(
            f"  {name:44s} {unit:6s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.2%}"
        )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    results: dict[str, list[dict]] = {w: [] for w in args.workload}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in args.workload:
            argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
            argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[workload].append(result)
            wall = result["metrics"].get("wall_s", {}).get("value")
            print(f"{workload} seed {seed}: wall_s {wall}", file=sys.stderr, flush=True)
    for workload, runs in results.items():
        print("\n".join(summarize(workload, runs)))
    print(json.dumps({"seconds": args.seconds, "trace": args.trace, "first_seed": args.first_seed, "results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
