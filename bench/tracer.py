"""Run one arrowlab command with a span around every call to the public
functions the benchmark follows, and write the spans and their totals.

Usage: python3 tracer.py SPANS.json -- <arrowlab arguments>

The functions are wrapped from outside the program: on their defining
module, in every arrowlab module that imported them by name, and, for the
two table classes, on ``__init__``.  A span is (name, start, end, parent);
a function's self time is its spans' durations minus the durations of
their child spans.  The command's stdout, files and exit code are the
program's own.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from math import factorial

FOLLOWED = {
    "orders": ("profile_digit_tuples",),
    "rules": (
        "VotingRule",
        "random_pareto_rule",
        "compose_voter_permutation",
        "pairwise_majority_rule",
        "cylinder_extend",
        "is_dictatorship",
        "table_digest",
        "load_rule",
        "save_rule",
    ),
    "measures": (
        "Distribution",
        "uniform_distribution",
        "star_distribution",
        "lift_distribution",
        "has_full_support",
        "is_permutation_invariant",
    ),
    "dynamics": (
        "force",
        "force_transfer",
        "check_collapse_conjecture",
        "force_profile",
        "iterate_force_transfer",
        "write_trace",
    ),
    "quotient": ("rule_distance", "space_from_rules", "check_metric_axioms"),
    "arrowcheck": ("verify_arrow", "assemble_rule"),
    "cli": ("main",),
}

# Profile-space kernels: their work grows with the (m!)^n table they touch,
# so each call also counts that table's size in ``entries``.
KERNELS = frozenset(
    {
        "orders.profile_digit_tuples",
        "rules.VotingRule",
        "rules.random_pareto_rule",
        "rules.compose_voter_permutation",
        "rules.pairwise_majority_rule",
        "rules.cylinder_extend",
        "rules.is_dictatorship",
        "rules.table_digest",
        "rules.load_rule",
        "rules.save_rule",
        "measures.Distribution",
        "measures.uniform_distribution",
        "measures.star_distribution",
        "measures.lift_distribution",
        "measures.has_full_support",
        "measures.is_permutation_invariant",
        "dynamics.force",
        "dynamics.force_transfer",
        "dynamics.force_profile",
        "dynamics.iterate_force_transfer",
        "quotient.rule_distance",
        "arrowcheck.assemble_rule",
    }
)

SPAN_NAMES = tuple(f"{module}.{name}" for module, names in FOLLOWED.items() for name in names)


def table_size(args: tuple, kwargs: dict, result) -> int:
    """The largest (m!)^n among the arguments and the result that carry a
    scale; two leading int arguments are read as (n, m)."""
    sizes = [
        factorial(v.m) ** v.n
        for v in (*args, *kwargs.values(), result)
        if isinstance(getattr(v, "n", None), int) and isinstance(getattr(v, "m", None), int)
    ]
    if not sizes and len(args) >= 2 and all(isinstance(a, int) for a in args[:2]):
        sizes.append(factorial(args[1]) ** args[0])
    return max(sizes, default=0)


class Tracer:
    """Spans in memory, in the order they were opened."""

    def __init__(self) -> None:
        self.names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.entries = [0] * len(SPAN_NAMES)
        self.open: list[int] = []

    def wrap(self, name_id: int, fn):
        kernel = SPAN_NAMES[name_id] in KERNELS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.names)
            self.names.append(name_id)
            self.parents.append(self.open[-1] if self.open else -1)
            self.ends.append(0.0)
            self.open.append(span)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[span] = time.perf_counter()
                self.open.pop()
            if kernel:
                self.entries[name_id] += table_size(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        modules = [importlib.import_module(f"arrowlab.{m}") for m in FOLLOWED]
        for name_id, span_name in enumerate(SPAN_NAMES):
            module_name, attr = span_name.split(".")
            original = getattr(importlib.import_module(f"arrowlab.{module_name}"), attr)
            if isinstance(original, type):
                original.__init__ = self.wrap(name_id, original.__init__)
                continue
            wrapped = self.wrap(name_id, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def totals(self) -> dict:
        self_s = [0.0] * len(SPAN_NAMES)
        calls = [0] * len(SPAN_NAMES)
        for span, name_id in enumerate(self.names):
            duration = self.ends[span] - self.starts[span]
            self_s[name_id] += duration
            calls[name_id] += 1
            parent = self.parents[span]
            if parent >= 0:
                self_s[self.names[parent]] -= duration
        return {
            name: {"self_s": self_s[i], "calls": calls[i], "entries": self.entries[i]}
            for i, name in enumerate(SPAN_NAMES)
        }

    def dump(self, path: str) -> None:
        origin = self.starts[0] if self.starts else 0.0
        record = {
            "names": SPAN_NAMES,
            "totals": self.totals(),
            "spans": [
                [self.names[s], self.starts[s] - origin, self.ends[s] - origin, self.parents[s]]
                for s in range(len(self.names))
            ],
        }
        with open(path, "w") as fh:
            json.dump(record, fh)


def run(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    import arrowlab.cli

    try:
        return arrowlab.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: python3 tracer.py SPANS.json -- <arrowlab arguments>")
    sys.exit(run(sys.argv[1], sys.argv[3:]))
