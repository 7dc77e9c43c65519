#!/usr/bin/env python3
"""Exhibit a non-dictatorial rule that the ballot-transfer map fixes exactly.

Extends pairwise majority (with a fixed tiebreak ranking) by one ignored
trailing voter, lifts the near-unanimous distribution over the base electorate
to the extended one, and prints the resulting force structure, fixpoint
status, and dictatorship status with exact rationals.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from arrowlab.arrowcheck import replay_contradiction
from arrowlab.measures import format_rational, parse_rational
from arrowlab.orders import enumerate_orders
from arrowlab.rules import pairwise_majority_rule


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base-voters", type=int, default=2, help="voters of the base rule")
    parser.add_argument("--candidates", type=int, default=3)
    parser.add_argument("--epsilon", default="1/2", help="near-unanimous spread mass as p/q")
    parser.add_argument("--y-index", type=int, default=0)
    args = parser.parse_args()
    try:
        return replay(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def replay(args: argparse.Namespace) -> int:
    epsilon = parse_rational(args.epsilon)
    orders = enumerate_orders(args.candidates)
    if not 0 <= args.y_index < len(orders):
        raise ValueError(f"--y-index {args.y_index} out of range for m={args.candidates}")
    base = pairwise_majority_rule(args.base_voters, args.candidates)
    report = replay_contradiction(base, epsilon, orders[args.y_index])

    print(f"base rule: pairwise majority over {args.base_voters} voters, digest {report.base_rule_digest[:16]}")
    print(f"extended rule over {report.n} voters, digest {report.extended_rule_digest[:16]}")
    print(f"epsilon = {format_rational(report.epsilon)}")
    print(f"lifted distribution: full support = {report.full_support}, "
          f"permutation-invariant = {report.permutation_invariant}")
    print("forces:", ", ".join(format_rational(v) for v in report.forces))
    print(f"last voter uniquely least forceful: {report.last_voter_unique_least}")
    print(f"transfer map fixes the extended rule exactly: {report.transfer_fixed}")
    print(f"extended rule is a dictatorship: {report.dictator_voter is not None}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
