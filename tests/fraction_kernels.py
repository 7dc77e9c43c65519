"""Reference kernels in exact ``Fraction`` arithmetic, one profile at a time.

These are the straightforward loops the integer kernels in ``arrowlab``
replaced.  They read a distribution only through its ``weights`` view and
walk the profile space by digit tuples, so they share no arithmetic with the
code under test; ``test_kernels.py`` requires both to agree exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from arrowlab.measures import Distribution
from arrowlab.orders import check_scale, encode_digits, profile_digit_tuples
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
