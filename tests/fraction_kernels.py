"""Reference kernels in exact ``Fraction`` arithmetic, one profile at a time.

These are the straightforward loops the integer kernels in ``arrowlab``
replaced.  They read a distribution only through its ``weights`` view and
walk the profile space by digit tuples, so they share no arithmetic with the
code under test; ``test_kernels.py`` requires both to agree exactly.  The
ballot rewrites (transfer, relabel, collapse) rewrite each digit tuple and
re-encode it, and the seeded Pareto draw caches its allowed outputs per
digit tuple, as ``random_pareto_rule`` once did.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import factorial

from arrowlab.measures import Distribution
from arrowlab.orders import check_scale, encode_digits, enumerate_orders, profile_digit_tuples
from arrowlab.rules import VotingRule


def force(mu: Distribution, rule: VotingRule, i: int) -> Fraction:
    weights = mu.weights
    total = Fraction(0)
    for k, digits in enumerate(profile_digit_tuples(rule.n, rule.m)):
        if rule.table[k] == digits[i]:
            total += weights[k]
    return total


def force_profile(
    mu: Distribution, rule: VotingRule
) -> tuple[tuple[Fraction, ...], tuple[int, ...], tuple[int, ...]]:
    """Forces, most-forceful voters and least-forceful voters."""
    weights = mu.weights
    totals = [Fraction(0)] * rule.n
    for k, digits in enumerate(profile_digit_tuples(rule.n, rule.m)):
        out = rule.table[k]
        for i in range(rule.n):
            if digits[i] == out:
                totals[i] += weights[k]
    top = max(totals)
    bottom = min(totals)
    most = tuple(i for i, v in enumerate(totals) if v == top)
    least = tuple(i for i, v in enumerate(totals) if v == bottom)
    return tuple(totals), most, least


def rule_distance(mu: Distribution, f: VotingRule, g: VotingRule) -> Fraction:
    total = Fraction(0)
    for w, a, b in zip(mu.weights, f.table, g.table):
        if a != b:
            total += w
    return total


def lift_weights(dist: Distribution, i: int) -> tuple[Fraction, ...]:
    """The lift's weights: for each n-voter profile, the sum over all n!
    relabelings of the input weight of the relabeled profile without seat i,
    divided by n! * m!."""
    n = dist.n + 1
    m = dist.m
    check_scale(n, m)
    weights = dist.weights
    denom = factorial(n) * factorial(m)
    perms = tuple(itertools.permutations(range(n)))
    lifted = []
    for digits in profile_digit_tuples(n, m):
        total = Fraction(0)
        for tau in perms:
            permuted = tuple(digits[tau[j]] for j in range(n))
            dropped = permuted[:i] + permuted[i + 1 :]
            total += weights[encode_digits(dropped, m)]
        lifted.append(total / denom)
    return tuple(lifted)


def is_permutation_invariant(dist: Distribution) -> bool:
    """Checks every one of the n! relabelings, not only a generating set."""
    weights = dist.weights
    digit_tuples = profile_digit_tuples(dist.n, dist.m)
    for mapping in itertools.permutations(range(dist.n)):
        for k, digits in enumerate(digit_tuples):
            permuted = encode_digits(tuple(digits[j] for j in mapping), dist.m)
            if weights[permuted] != weights[k]:
                return False
    return True


def rewrite(rule: VotingRule, seats: tuple[int, ...]) -> VotingRule:
    """The rule evaluated on each profile with seat i holding the ballot at seat ``seats[i]``."""
    table = []
    for digits in profile_digit_tuples(rule.n, rule.m):
        table.append(rule.table[encode_digits(tuple(digits[s] for s in seats), rule.m)])
    return VotingRule(rule.n, rule.m, tuple(table))


def force_transfer(mu: Distribution, rule: VotingRule) -> VotingRule:
    """One transfer step, lowest-index tie-break among the most forceful."""
    _, most, least = force_profile(mu, rule)
    return rewrite(rule, tuple(most[0] if i in least else i for i in range(rule.n)))


def random_pareto_rule(n: int, m: int, seed: int) -> VotingRule:
    """The seeded Pareto draw, its allowed outputs cached per digit tuple."""
    orders = enumerate_orders(m)
    pairs = [(a, b) for a in range(m) for b in range(m) if a != b]
    allowed_by_digits: dict[tuple[int, ...], list[int]] = {}
    rng = random.Random(seed)
    table = []
    for digits in profile_digit_tuples(n, m):
        if digits not in allowed_by_digits:
            forced = [(a, b) for a, b in pairs if all(orders[d].prefers(a, b) for d in digits)]
            allowed_by_digits[digits] = [
                oi for oi, o in enumerate(orders) if all(o.prefers(a, b) for a, b in forced)
            ]
        allowed = allowed_by_digits[digits]
        table.append(allowed[rng.randrange(len(allowed))])
    return VotingRule(n, m, tuple(table))
