"""Batch command-line front door: exhaustive theorem searches, transfer-map
iterations with trace files, the seeded property suites, and the replay of
the final proof step.

Exit codes: 0 success, 2 precondition or usage error, 3 iteration stopped at
the step limit, 4 an asserted suite failed.  Report and trace files are byte
deterministic for a fixed semantic configuration: ``--jobs`` and output
locations never appear in them (a report's ``config`` is the parsed command
line without the handler, ``--out``, ``--jobs`` and ``--rule``), and timing
goes to stderr only.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
import time
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Generator, NoReturn

# Each command imports the arrowlab modules it runs, and ``json`` and
# ``fractions``, when it runs, so that start-up, ``--help`` and usage errors
# load none of them.
if TYPE_CHECKING:
    from fractions import Fraction

    from .measures import Distribution
    from .orders import LinearOrder
    from .rules import VotingRule

    _Suite = Generator[None, Callable[[int], VotingRule], dict]

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_STEP_LIMIT = 3
EXIT_SUITE_FAILURE = 4

REPORT_FORMAT_VERSION = 1


def _config(args: argparse.Namespace, **extra) -> dict:
    """A report's ``config``: the parsed command line, epsilon as ``p/q``,
    and ``extra``.  The handler, output location, ``--jobs`` and rule path
    are left out, so no report depends on them."""
    config = {k: v for k, v in vars(args).items() if k not in {"handler", "out", "jobs", "rule"}}
    if "epsilon" in config:
        from .measures import format_rational

        config["epsilon"] = format_rational(config["epsilon"])
    return {**config, **extra}


def _report(fields: dict, config: dict, out_dir: Path | None = None, filename: str = "") -> None:
    """Print the report of ``fields`` and ``config`` as canonical JSON, and
    write it to ``out_dir / filename`` when ``out_dir`` is given."""
    import json

    payload = {"format_version": REPORT_FORMAT_VERSION, "config": config, **fields}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / filename).write_text(text)


def _favored_ranking(m: int, y_index: int) -> LinearOrder:
    """The ranking the star distribution favors: number ``--y-index`` of m's."""
    from .orders import enumerate_orders

    orders = enumerate_orders(m)
    if not 0 <= y_index < len(orders):
        raise ValueError(f"--y-index {y_index} out of range for m={m}")
    return orders[y_index]


def _resolve_distribution(
    name: str, n: int, m: int, epsilon: Fraction, y_index: int
) -> Distribution:
    from .measures import lift_distribution, star_distribution, uniform_distribution

    y = _favored_ranking(m, y_index)
    if name == "uniform":
        return uniform_distribution(n, m)
    if name == "star":
        return star_distribution(n, m, epsilon, y)
    if name == "lift-star":
        if n < 2:
            raise ValueError("lift-star needs at least two voters")
        return lift_distribution(star_distribution(n - 1, m, epsilon, y), n - 1)
    raise ValueError(f"unknown distribution spec {name!r}")


def _cmd_verify_arrow(args: argparse.Namespace) -> int:
    from .arrowcheck import verify_arrow
    from .rules import save_rule, table_digest

    started = time.monotonic()
    report = verify_arrow(args.voters, args.candidates)
    elapsed = time.monotonic() - started
    rules_found = [
        {
            "candidate_index": index,
            "rule_table_digest": table_digest(rule),
            "dictator_voter": voter,
            "file": f"rule_{index:06d}.json",
        }
        for (index, rule), voter in zip(report.found, report.dictators)
    ]
    fields = {
        "n": report.n,
        "m": report.m,
        "candidates_scanned": report.candidates_scanned,
        "rules_found": rules_found,
        "rules_found_count": len(rules_found),
        "all_dictators": report.all_dictators,
    }
    _report(fields, _config(args), args.out, "verify_arrow_report.json")
    if args.out is not None:
        for index, rule in report.found:
            save_rule(rule, args.out / f"rule_{index:06d}.json")
    print(f"verify-arrow: {report.search_nodes} search nodes in {elapsed:.3f}s", file=sys.stderr)
    if not report.all_dictators:
        print("verify-arrow: found a non-dictatorial survivor", file=sys.stderr)
        return EXIT_SUITE_FAILURE
    return EXIT_OK


def _cmd_iterate(args: argparse.Namespace) -> int:
    from .dynamics import iterate_force_transfer, write_trace
    from .rules import load_rule, table_digest

    started = time.monotonic()
    rule = load_rule(args.rule)
    mu = _resolve_distribution(args.dist, rule.n, rule.m, args.epsilon, args.y_index)
    config = _config(args, voters=rule.n, candidates=rule.m, rule_table_digest=table_digest(rule))
    # The iteration gets the one reference to the input, so it can drop the
    # input's table once the first iterate differs.  Only a trace file needs
    # the digest of each step.
    held = [rule]
    del rule
    trace = iterate_force_transfer(mu, held.pop(), args.max_steps, digests=args.out is not None)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        write_trace(trace, args.out / "trace.jsonl", config)
    summary = {
        "terminated_by": trace.terminated_by,
        "steps": len(trace.steps),
        "fixpoint_is_dictatorship": trace.fixpoint_is_dictatorship,
    }
    _report(summary, config)
    print(f"iterate: {len(trace.steps)} steps in {time.monotonic() - started:.3f}s", file=sys.stderr)
    return EXIT_OK if trace.terminated_by == "fixpoint" else EXIT_STEP_LIMIT


def _suite_metric(args: argparse.Namespace, mu: Distribution, count: int) -> _Suite:
    from .quotient import check_metric_axioms, space_from_rules

    rules = []
    for _ in range(count):
        rules.append((yield)(args.voters))
    report = check_metric_axioms(space_from_rules(mu, rules))
    return {
        "passed": report.ok,
        "points": len(rules),
        "violation": report.violation,
        "witness": list(report.witness),
    }


def _suite_isometry(args: argparse.Namespace, mu: Distribution, count: int) -> _Suite:
    from .orders import all_voter_permutations
    from .quotient import rule_distance
    from .rules import compose_voter_permutation

    perms = all_voter_permutations(args.voters)
    checked = 0
    for i in range(count):
        g = (yield)(args.voters)
        if i % 2 == 0:  # f, the first of a pair
            f = g
            continue
        base = rule_distance(mu, f, g)
        for perm in perms:
            relabeled = rule_distance(
                mu, compose_voter_permutation(f, perm), compose_voter_permutation(g, perm)
            )
            if relabeled != base:
                return {"passed": False, "pairs_checked": checked}
            checked += 1
    return {"passed": True, "pairs_checked": checked}


def _suite_relabel(args: argparse.Namespace, mu: Distribution, count: int) -> _Suite:
    from .dynamics import force_profile
    from .orders import all_voter_permutations
    from .rules import compose_voter_permutation

    perms = all_voter_permutations(args.voters)
    checked = 0
    for _ in range(count):
        g = (yield)(args.voters)
        forces = force_profile(mu, g).forces
        for perm in perms:
            relabeled = force_profile(mu, compose_voter_permutation(g, perm)).forces
            if any(forces[i] != relabeled[j] for i, j in enumerate(perm.mapping)):
                return {"passed": False, "relabelings_checked": checked}
            checked += 1
    return {"passed": True, "relabelings_checked": checked}


def _suite_welldef(args: argparse.Namespace, mu: Distribution, count: int) -> _Suite:
    from .dynamics import class_transfer_holds
    from .rules import table_digest

    for i in range(count):
        rule = (yield)(args.voters)
        if not class_transfer_holds(mu, rule):
            witness = {"seed": args.seed + i, "rule_table_digest": table_digest(rule)}
            return {"passed": False, "orbits_checked": i, "witness": witness}
    return {"passed": True, "orbits_checked": count}


def _suite_cylinder(args: argparse.Namespace, _mu: Distribution, count: int) -> _Suite:
    from .dynamics import cylinder_ceiling, cylinder_forces
    from .measures import (
        format_rational,
        has_full_support,
        is_permutation_invariant,
        lift_distribution,
    )
    from .rules import table_digest

    if args.voters < 2:
        raise ValueError("the cylinder suite needs at least two voters")
    n, m = args.voters, args.candidates
    k = n - 1
    bound = format_rational(cylinder_ceiling(n, m))
    parts, running = {}, {}
    for label in ("uniform", "star"):
        nu = _resolve_distribution(label, k, m, args.epsilon, args.y_index)
        lifted = lift_distribution(nu, k)
        running[label] = nu, lifted
        support, invariant = has_full_support(lifted), is_permutation_invariant(lifted)
        parts[label] = {
            "full_support": support,
            "permutation_invariant": invariant,
            "passed": support and invariant,
            "rules_checked": count,
        }
    for i in range(count):
        g = (yield)(k)
        for label, (nu, lifted) in list(running.items()):
            f, fp, _, below, kept = cylinder_forces(nu, lifted, g)
            if not (below and kept):
                del running[label]
                witness = {
                    "seed": args.seed + i,
                    "rule_table_digest": table_digest(f),
                    "forces": [format_rational(v) for v in fp.forces],
                }
                parts[label].update(passed=False, rules_checked=i, witness=witness)
        if not running:
            break
    passed = all(part["passed"] for part in parts.values())
    return {"passed": passed, "bound": bound, "base_distributions": parts}


def _suite_collapse(args: argparse.Namespace, _mu: Distribution, count: int) -> _Suite:
    from .dynamics import check_collapse_conjecture
    from .measures import uniform_distribution
    from .rules import cylinder_extend, pairwise_majority_rule, table_digest

    n, m = args.voters, args.candidates
    mu = uniform_distribution(n, m)
    # Witness part: cylinder rules need a non-dictatorial base, so it runs at
    # the smallest electorate with one (three voters) regardless of --voters.
    nw = max(n, 3)
    lifted = _resolve_distribution("lift-star", nw, m, args.epsilon, args.y_index)
    witness_rules = [cylinder_extend(pairwise_majority_rule(nw - 1, m))]
    passed_count = 0
    for i in range(max(count, 3)):
        draw = yield
        if i < count:
            passed_count += check_collapse_conjecture(mu, [draw(n)]).passed_count
        if i < 3:
            witness_rules.append(cylinder_extend(draw(nw - 1)))
    witness_report = check_collapse_conjecture(lifted, witness_rules)
    witnesses = [
        {
            "rule_table_digest": table_digest(rule),
            "iterate_equals_rule": e.iterate_equals_rule,
            "iterate_is_dictatorship": e.iterate_is_dictatorship,
        }
        for rule, e in zip(witness_rules, witness_report.entries)
        if not e.passed
    ]
    return {
        "passed": True,
        "asserted": False,
        "uniform": {
            "rules_checked": count,
            "passed_count": passed_count,
            "failed_count": count - passed_count,
        },
        "lifted_star": {
            "voters": nw,
            "rules_checked": len(witness_report.entries),
            "failed_count": witness_report.failed_count,
            "witnesses": witnesses,
        },
    }


# Each suite, in report order: its runner, a generator sent one seed's draw
# per step until it returns its report, and its default population size.  A
# report counts toward ``all_passed`` unless it says ``"asserted": False``.
_SUITES = {
    "metric": (_suite_metric, 50),
    "isometry": (_suite_isometry, 200),
    "relabel": (_suite_relabel, 200),
    "welldef": (_suite_welldef, 100),
    "cylinder": (_suite_cylinder, 200),
    "collapse": (_suite_collapse, 1000),
}
SUITE_NAMES = tuple(_SUITES)


def _cmd_check(args: argparse.Namespace) -> int:
    from .orders import check_scale
    from .rules import random_pareto_rule

    started = time.monotonic()
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    # Before the m! rankings are listed: m = 12 alone would list 479001600.
    check_scale(args.voters, args.candidates)
    mu = _resolve_distribution(
        args.dist, args.voters, args.candidates, args.epsilon, args.y_index
    )
    running = {}
    for name in names:
        runner, samples = _SUITES[name]
        running[name] = runner(args, mu, args.samples or samples)
        next(running[name])  # its distributions and preconditions, before any draw
    results, seed = {}, args.seed
    while running:
        draw = cache(lambda voters: random_pareto_rule(voters, args.candidates, seed))
        for name, suite in list(running.items()):
            try:
                suite.send(draw)
            except StopIteration as done:
                results[name] = {"asserted": True, **done.value}
                del running[name]
        draw.cache_clear()  # no rule outlives its step
        seed += 1
    all_passed = all(r["passed"] for r in results.values() if r["asserted"])
    fields = {"suites": results, "all_passed": all_passed}
    _report(fields, _config(args), args.out, "check_report.json")
    print(f"check: {', '.join(names)} in {time.monotonic() - started:.2f}s", file=sys.stderr)
    return EXIT_OK if all_passed else EXIT_SUITE_FAILURE


def _cmd_replay(args: argparse.Namespace) -> int:
    from .dynamics import replay_contradiction
    from .measures import format_rational
    from .rules import pairwise_majority_rule

    if args.voters < 2:
        raise ValueError(f"replay needs at least two voters, got --voters {args.voters}")
    base = pairwise_majority_rule(args.voters - 1, args.candidates)
    report = replay_contradiction(
        base, args.epsilon, _favored_ranking(args.candidates, args.y_index)
    )
    rationals = {
        "epsilon": format_rational(report.epsilon),
        "forces": [format_rational(v) for v in report.forces],
        "base_forces": [format_rational(v) for v in report.base_forces],
    }
    _report({**report._asdict(), **rationals}, _config(args), args.out, "replay_report.json")
    return EXIT_OK


def _int_at_least(least: int) -> Callable[[str], int]:
    """argparse type for a decimal integer of at least ``least``: 1 for
    ``--jobs`` and ``--samples``, 0 for ``--max-steps`` and for ``--seed``,
    since ``random.Random`` draws the same for a seed and its negation."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < least:
            message = f"expected an integer of at least {least}, got {text!r}"
            raise argparse.ArgumentTypeError(message)
        return int(text)

    return parse


def _open_unit_rational(text: str) -> Fraction:
    """argparse type for ``--epsilon``: a rational strictly between 0 and 1.
    The star distribution narrows the upper end further, depending on m."""
    from .measures import parse_rational

    try:
        value = parse_rational(text)
    except ValueError:
        value = 0
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a rational strictly between 0 and 1, got {text!r}"
        )
    return value


def _add_common(
    parser: argparse.ArgumentParser,
    *,
    voters: int | None,
    dist: bool = True,
    jobs: str | None = None,
) -> None:
    """Options shared by the subcommands; ``voters`` is the default of
    ``--voters`` (None: no scale options), ``jobs`` the help of ``--jobs``
    (None: no ``--jobs``)."""
    if voters is not None:
        parser.add_argument("--voters", type=int, default=voters, help="electorate size n")
        parser.add_argument("--candidates", type=int, default=3, help="candidate count m")
    if dist:
        parser.add_argument(
            "--dist",
            choices=("uniform", "star", "lift-star"),
            default="uniform",
            help="profile distribution",
        )
    parser.add_argument(
        "--epsilon",
        type=_open_unit_rational,
        default="1/2",  # a string default goes through ``type`` when used
        help="near-unanimous spread mass as p/q (star and lift-star)",
    )
    parser.add_argument(
        "--y-index", type=int, default=0, help="canonical index of the favored ranking"
    )
    if jobs is not None:
        parser.add_argument("--jobs", type=_int_at_least(1), default=1, help=jobs)
    parser.add_argument("--out", type=Path, default=None, help="directory for report files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrowlab",
        description="Exact laboratory for voting-rule dynamics and Arrow-theorem checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify-arrow",
        help="find all unanimity+independence rules and check they are dictatorships",
    )
    p_verify.add_argument("--voters", type=int, required=True)
    p_verify.add_argument("--candidates", type=int, required=True)
    p_verify.add_argument(
        "--jobs", type=_int_at_least(1), default=1, help="accepted for symmetry; the search is serial"
    )
    p_verify.add_argument("--out", type=Path, default=None)
    p_verify.set_defaults(handler=_cmd_verify_arrow)

    p_iter = sub.add_parser("iterate", help="iterate the ballot-transfer map on a rule file")
    p_iter.add_argument("--rule", type=Path, required=True, help="rule file to iterate")
    p_iter.add_argument("--max-steps", type=_int_at_least(0), default=64)
    _add_common(p_iter, voters=None, jobs="accepted for symmetry; the iteration is serial")
    p_iter.set_defaults(handler=_cmd_iterate)

    p_check = sub.add_parser("check", help="run the seeded property suites")
    p_check.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p_check.add_argument(
        "--samples",
        type=_int_at_least(1),
        default=None,
        help="override the per-suite population size",
    )
    p_check.add_argument(
        "--seed", type=_int_at_least(0), default=0, help="base seed for rule populations"
    )
    _add_common(p_check, voters=2, jobs="accepted for symmetry; the suites run serially")
    p_check.set_defaults(handler=_cmd_check)

    p_replay = sub.add_parser(
        "replay",
        help="extend majority by an ignored voter and check the transfer map fixes it",
    )
    _add_common(p_replay, voters=3, dist=False)
    p_replay.set_defaults(handler=_cmd_replay)
    return parser


def _check_out(out: Path) -> None:
    """Before any work runs, refuse an ``--out`` that cannot become a
    directory: the nearest of it and its parents that exists must be one."""
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ValueError(f"--out {out}: {path} exists and is not a directory")
            return


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out is not None:
            _check_out(args.out)
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def _watched() -> bool:
    """True when a trace or profile hook watches this process (``trace``,
    coverage, cProfile), through ``sys.settrace``, ``sys.setprofile`` or a
    ``sys.monitoring`` tool: from Python 3.12 cProfile registers one and
    leaves ``sys.getprofile()`` None."""
    monitoring = getattr(sys, "monitoring", None)
    if monitoring is not None and any(monitoring.get_tool(tool) for tool in range(6)):
        return True
    return bool(sys.gettrace() or sys.getprofile())


def run() -> NoReturn:
    """The process entry of ``python -m arrowlab.cli`` and of the ``arrowlab``
    script: exit with ``main()``'s status (``SystemExit.code`` for ``--help``
    and usage errors) as soon as it is known and the output is flushed.

    The exit functions registered so far run, stdout and stderr are flushed,
    and ``os._exit`` ends the process without the interpreter's teardown (a
    last garbage collection and the unloading of every module).  That skips
    nothing a command needs, because every command closes its files before it
    returns (``write_text``, ``with open``) and no command starts a thread.
    The normal ``sys.exit`` stays when the status is not an int, when a hook
    watches the process (profilers and coverage report at teardown), and
    when a flush fails, so the interpreter reports a closed stream as ever.
    ``main()`` itself never ends the process: tests call it in-process."""
    try:
        status = main()
    except SystemExit as exc:
        status = exc.code
    if not isinstance(status, int) or _watched():
        sys.exit(status)
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed at start-up
                stream.flush()
    except OSError:
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
