"""Reference kernels in exact ``Fraction`` arithmetic, one profile at a time.

These are the straightforward loops the integer kernels in ``arrowlab``
replaced.  They read a distribution only through its ``weights`` view and
walk the profile space by digit tuples, so they share no arithmetic with the
code under test; ``test_kernels.py`` requires both to agree exactly.  The
ballot rewrites (transfer, relabel, collapse) rewrite each digit tuple and
re-encode it, and the seeded Pareto draw caches its allowed outputs per
digit tuple, as ``random_pareto_rule`` once did.  The other rule builders and
predicates (majority, Borda, unanimity, independence, the pair rows and the
aggregator round trip) compare each digit tuple's ballots through a 3-D
preference matrix, as ``arrowlab`` did before it read pair signature columns;
``arrowlab`` builds no Borda rule, so the tests that need one take it from here.
The Arrow scan walks every pinned aggregator combination in candidate-index
order and tests each candidate triple on every profile at once, as
``arrowlab`` did before its search over per-voter triple patterns.  The
``welldef`` verdict rebuilds the orbit class of every member and of every
member's image, as ``arrowlab`` did before its membership test; it is a
reference for that orbit logic, so it runs on ``arrowlab``'s own transfer and
relabel kernels, which the tests above pin.  The collapse check is likewise
a reference for its step count: it applies ``arrowlab``'s transfer map n
times, as ``arrowlab`` did before it read the n-th iterate off the transfer
trace.  The seat gather is the one ``arrowlab`` used before it copied whole
progressions into one buffer: a slice per setting of the first n-1 seats,
joined, and a ``memoryview`` piece per slice for records wider than a byte.  The rule-file reader is the one
``arrowlab`` used before it read the table a block at a time from the file's
bytes: ``json.loads`` of the whole text, then the entry-type checks.  The
whole-table agreement kernel is the one ``arrowlab`` used before it read
force and distance a block of profiles at a time: one int per whole table,
cached digit columns and a mask per level over every profile.  The metric
axiom check is the one ``arrowlab`` used before it compared integer
numerators over a common denominator: the same loops on the ``Fraction``s.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from pathlib import Path

from arrowlab.arrowcheck import PairwiseAggregator
from arrowlab.dynamics import CollapseEntry
from arrowlab.dynamics import force_transfer as package_force_transfer
from arrowlab.dynamics import orbit_class
from arrowlab.measures import MAX_LEVELS, Distribution
from arrowlab.orders import (
    LinearOrder,
    check_scale,
    encode_digits,
    enumerate_orders,
    order_index,
    profile_digit_tuples,
    read_record,
)
from arrowlab.quotient import FiniteMetricSpace, MetricCheckReport
from arrowlab.rules import RULE_FORMAT_VERSION, VotingRule, compose_collapse


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


def is_dictatorship(rule: VotingRule) -> int | None:
    for i in range(rule.n):
        if all(out == digits[i] for out, digits in zip(rule.table, profile_digit_tuples(rule.n, rule.m))):
            return i
    return None


@lru_cache(maxsize=None)
def digit_columns(n: int, m: int) -> tuple[bytes, ...]:
    """Column i lists voter i's ballot index for every profile, one byte each."""
    mf = factorial(m)
    return tuple(b"".join(bytes((d,)) * mf ** (n - 1 - i) for d in range(mf)) * mf**i for i in range(n))


def whole_table_agreement(mu: Distribution, f: bytes, g: bytes) -> int:
    """``mu.denominator`` times the weight of the profiles where the one-byte
    tables ``f`` and ``g`` agree, over the two whole tables as ints: adding
    0x7f to each byte of their XOR sets bit 7 where they differ; then a
    popcount per level mask, or past ``MAX_LEVELS`` levels a sum of the
    differing profiles' numerators."""
    size = len(g)
    fill = lambda byte: int.from_bytes(bytes((byte,)) * size, "little")  # noqa: E731
    flags = (int.from_bytes(f, "little") ^ int.from_bytes(g, "little")) + fill(0x7F)
    if len(mu.levels) > MAX_LEVELS:
        differ = (flags & fill(0x80)).to_bytes(size, "little")
        return mu.denominator - sum(itertools.compress(mu.numerators, differ))
    picks = [bytes(0x80 * (b == r) for b in range(256)) for r in range(len(mu.levels))]
    masks = [int.from_bytes(mu.level_index.translate(t), "little") for t in picks]
    return mu.denominator - sum(v * (flags & k).bit_count() for v, k in zip(mu.levels, masks))


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


def seat_gather(values, n: int, m: int, seats: tuple[int, ...], width: int = 1) -> bytes:
    """Rewrite ballots across a whole table: entry k of the result is the
    entry of ``values`` at the profile whose seat i holds the ballot that
    n-voter profile k has at seat ``seats[i]``.

    ``values`` is a ``bytes`` table over the ``len(seats)``-voter profiles
    whose entries are records of ``width`` bytes each: one byte for a rule
    table, a packed integer lane for distribution weights.  The result is
    ``bytes`` of the same record width.  ``seats`` need not be a bijection: a
    voter relabeling is one, copying one voter's ballot onto other seats is
    another, and leaving an n-th seat unread extends a table by an ignored
    voter.

    The ballot of profile k at seat j moves the source index by ``coeff[j]`` per
    ballot index, ``coeff[j]`` summing (m!)^(len(seats)-1-i) over the seats i
    with ``seats[i] == j``.  So each setting of the first n-1 seats reads one
    slice of stride ``coeff[n-1]``, or repeats one entry when nobody reads
    the last seat: (m!)^(n-1) slices joined in profile-index order, fewer
    when the trailing seats are read in place and so form one run.
    """
    check_scale(n, m)
    mf = factorial(m)
    coeff = [0] * n
    for i, j in enumerate(seats):
        coeff[j] += mf ** (len(seats) - 1 - i)
    step, count, lead = coeff[-1], mf, n - 1
    if step == 1:  # trailing seats read in place make one contiguous run
        while lead and coeff[lead - 1] == count:
            count, lead = count * mf, lead - 1
    starts = [0]
    for c in coeff[:lead]:
        starts = [s + d * c for s in starts for d in range(mf)]
    # One-byte records slice the bytes themselves: a view per slice, copied
    # out by ``tobytes``, would take about twice as long on a rule table.
    rows = values if width == 1 else memoryview(values).cast("B", (len(values) // width, width))
    stop, stride = (count * step, step) if step else (1, 1)
    parts = (rows[s : s + stop : stride] for s in starts)
    if width > 1:
        parts = map(memoryview.tobytes, parts)
    return b"".join(parts if step else (part * mf for part in parts))


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


def candidate_pairs(m: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(m) for b in range(a + 1, m)]


@lru_cache(maxsize=None)
def prefers_matrix(m: int) -> tuple[tuple[tuple[bool, ...], ...], ...]:
    """pref[order_index][a][b]: does that order rank a above b (False on the diagonal)."""
    return tuple(
        tuple(tuple(False if a == b else o.prefers(a, b) for b in range(m)) for a in range(m))
        for o in enumerate_orders(m)
    )


@lru_cache(maxsize=None)
def outdegree_index_map(m: int) -> dict[tuple[int, ...], int]:
    """Each ranking's out-degree vector mapped to the ranking's canonical index."""
    return {
        tuple(m - 1 - o.ranking.index(c) for c in range(m)): i
        for i, o in enumerate(enumerate_orders(m))
    }


def tournament_order(outdeg: list[int]) -> int | None:
    return outdegree_index_map(len(outdeg)).get(tuple(outdeg))


@lru_cache(maxsize=None)
def pareto_consistent_outputs(ballots: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Order indices consistent with every unanimous comparison of a sorted ballot set."""
    pref = prefers_matrix(m)
    forced = [
        (a, b) for a in range(m) for b in range(m) if a != b and all(pref[d][a][b] for d in ballots)
    ]
    return tuple(oi for oi in range(factorial(m)) if all(pref[oi][a][b] for a, b in forced))


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


def is_pareto(rule: VotingRule) -> bool:
    pref = prefers_matrix(rule.m)
    for k, digits in enumerate(profile_digit_tuples(rule.n, rule.m)):
        out = pref[rule.table[k]]
        for a in range(rule.m):
            for b in range(rule.m):
                if a != b and not out[a][b] and all(pref[d][a][b] for d in digits):
                    return False
    return True


def is_iia(rule: VotingRule) -> bool:
    pref = prefers_matrix(rule.m)
    digit_tuples = profile_digit_tuples(rule.n, rule.m)
    for a in range(rule.m):
        for b in range(a + 1, rule.m):
            seen: dict[int, bool] = {}
            for k, digits in enumerate(digit_tuples):
                sig = 0
                for i, d in enumerate(digits):
                    if pref[d][a][b]:
                        sig |= 1 << i
                out = pref[rule.table[k]][a][b]
                if seen.setdefault(sig, out) != out:
                    return False
    return True


def pairwise_majority_rule(
    n: int, m: int, tiebreak_order: LinearOrder | None = None, tiebreak_voter: int | None = None
) -> VotingRule:
    if tiebreak_voter is None and tiebreak_order is None:
        tiebreak_order = enumerate_orders(m)[0]
    pref = prefers_matrix(m)
    table = []
    for digits in profile_digit_tuples(n, m):
        outdeg = [0] * m
        for a in range(m):
            for b in range(a + 1, m):
                votes_a = sum(1 for d in digits if pref[d][a][b])
                if 2 * votes_a > n:
                    a_beats_b = True
                elif 2 * votes_a < n:
                    a_beats_b = False
                elif tiebreak_voter is not None:
                    a_beats_b = pref[digits[tiebreak_voter]][a][b]
                else:
                    a_beats_b = tiebreak_order.prefers(a, b)
                outdeg[a if a_beats_b else b] += 1
        order = tournament_order(outdeg)
        if order is None:
            order = pareto_consistent_outputs(tuple(sorted(set(digits))), m)[0]
        table.append(order)
    return VotingRule(n, m, tuple(table))


def borda_rule(n: int, m: int, tiebreak_order: LinearOrder | None = None) -> VotingRule:
    if tiebreak_order is None:
        tiebreak_order = enumerate_orders(m)[0]
    pref = prefers_matrix(m)
    table = []
    for digits in profile_digit_tuples(n, m):
        score = [0] * m
        for d in digits:
            for a in range(m):
                score[a] += sum(1 for b in range(m) if a != b and pref[d][a][b])
        ranking = tuple(
            sorted(range(m), key=lambda c: (-score[c], tiebreak_order.ranking.index(c)))
        )
        table.append(order_index(LinearOrder(ranking)))
    return VotingRule(n, m, tuple(table))


@lru_cache(maxsize=None)
def pair_rows(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """rows[pair_idx][profile_idx]: packed voter comparisons for that pair."""
    pref = prefers_matrix(m)
    out = []
    for a, b in candidate_pairs(m):
        row_list = []
        for digits in profile_digit_tuples(n, m):
            row = 0
            for i, d in enumerate(digits):
                if pref[d][a][b]:
                    row |= 1 << i
            row_list.append(row)
        out.append(tuple(row_list))
    return tuple(out)


def assemble_rule(agg: PairwiseAggregator, n: int, m: int) -> VotingRule | None:
    rows = pair_rows(n, m)
    pairs = candidate_pairs(m)
    table = []
    for k in range(factorial(m) ** n):
        outdeg = [0] * m
        for p, (a, b) in enumerate(pairs):
            outdeg[a if (agg.tables[p] >> rows[p][k]) & 1 else b] += 1
        order = tournament_order(outdeg)
        if order is None:
            return None
        table.append(order)
    return VotingRule(n, m, tuple(table))


def aggregator_from_rule(rule: VotingRule) -> PairwiseAggregator | None:
    pref = prefers_matrix(rule.m)
    rows = pair_rows(rule.n, rule.m)
    tables = []
    for p, (a, b) in enumerate(candidate_pairs(rule.m)):
        mapping: dict[int, bool] = {}
        for k in range(factorial(rule.m) ** rule.n):
            out = pref[rule.table[k]][a][b]
            if mapping.setdefault(rows[p][k], out) != out:
                return None
        table = 0
        for row, bit in mapping.items():
            if bit:
                table |= 1 << row
        tables.append(table)
    try:
        return PairwiseAggregator(rule.n, rule.m, tuple(tables))
    except ValueError:
        return None


def table_from_free(free: int, n: int) -> int:
    """Expand a free-bit integer into a full truth table with pinned rows.

    Free rows are the inputs 1 .. 2^n - 2 in increasing order; bit r-1 of
    ``free`` is the output at row r.
    """
    return (1 << ((1 << n) - 1)) | (free << 1)


def aggregator_from_candidate_index(index: int, n: int, m: int) -> PairwiseAggregator:
    """Decode the lexicographic enumeration counter (pair 0 most significant,
    free truth-table bits within each pair)."""
    pair_count = comb(m, 2)
    per_pair = 1 << ((1 << n) - 2)
    if not 0 <= index < per_pair**pair_count:
        raise ValueError(f"candidate index {index} out of range for (n={n}, m={m})")
    digits = []
    for _ in range(pair_count):
        index, d = divmod(index, per_pair)
        digits.append(d)
    digits.reverse()
    return PairwiseAggregator(n, m, tuple(table_from_free(d, n) for d in digits))


def projection_aggregator(n: int, m: int, voter: int) -> PairwiseAggregator:
    """The aggregator that copies one voter's comparison on every pair."""
    if not 0 <= voter < n:
        raise ValueError(f"voter {voter} out of range for n={n}")
    rows = 1 << n
    table = 0
    for r in range(rows):
        if (r >> voter) & 1:
            table |= 1 << r
    return PairwiseAggregator(n, m, (table,) * comb(m, 2))


@lru_cache(maxsize=None)
def pair_output_masks(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """masks[pair_idx][free_bits]: outcome bits of that pair function, packed
    across all profiles into one integer (bit k = profile k)."""
    tables = [table_from_free(free, n) for free in range(1 << ((1 << n) - 2))]
    return tuple(
        tuple(sum(1 << k for k, s in enumerate(rows) if (t >> s) & 1) for t in tables)
        for rows in pair_rows(n, m)
    )


def survivors(n: int, m: int) -> list[int]:
    """Candidate indices, in increasing order, whose every profile tournament
    is acyclic.

    A tournament is transitive exactly when each candidate triple is.  For a
    triple a < b < c with pair outcome masks A = (a,b), B = (a,c), C = (b,c),
    a profile cycles exactly when A and C agree while B disagrees with them,
    that is when both differ from B: ``(A ^ B) & (C ^ B)`` tests the triple
    on every profile at once.
    """
    slot = {pair: p for p, pair in enumerate(candidate_pairs(m))}
    triples = [
        (slot[a, b], slot[a, c], slot[b, c]) for a, b, c in itertools.combinations(range(m), 3)
    ]
    found = []
    for index, masks in enumerate(itertools.product(*pair_output_masks(n, m))):
        for ab, ac, bc in triples:
            a_over_c = masks[ac]
            if (masks[ab] ^ a_over_c) & (masks[bc] ^ a_over_c):
                break
        else:
            found.append(index)
    return found


def class_transfer_holds(mu: Distribution, rule: VotingRule) -> bool:
    """The ``welldef`` verdict on the class of ``rule``: the class of every
    member's image equals the class of the first member's image, and the class
    of every member is the class itself.  Each class is rebuilt from all n!
    relabelings."""
    cls = orbit_class(mu, rule)
    image = orbit_class(mu, package_force_transfer(mu, cls.members[0]))
    for member in cls.members[1:]:
        if orbit_class(mu, package_force_transfer(mu, member)) != image:
            return False
    return all(orbit_class(mu, member) == cls for member in cls.members)


def collapse_entry(mu: Distribution, rule: VotingRule) -> CollapseEntry:
    """The collapse check of one rule: n applications of the transfer map."""
    iterate = rule
    for _ in range(rule.n):
        iterate = package_force_transfer(mu, iterate)
    collapse_voter = None
    for i in range(rule.n):
        if iterate == compose_collapse(rule, i):
            collapse_voter = i
            break
    return CollapseEntry(
        passed=collapse_voter is not None,
        collapse_voter=collapse_voter,
        iterate_is_dictatorship=is_dictatorship(iterate) is not None,
        iterate_equals_rule=iterate == rule,
    )


def load_rule(path) -> VotingRule:
    text = Path(path).read_text()
    record = read_record(text, "rule", RULE_FORMAT_VERSION)
    n, m, table = (record.get(key) for key in ("n", "m", "table"))
    for key, value in (("n", n), ("m", m)):
        if type(value) is not int:
            raise ValueError(f"rule field {key!r} is missing or not an integer")
    # ``bytes`` refuses every entry but an int in 0..255, save JSON ``true``
    # and ``false``, which it reads as 1 and 0.  So in a file without either
    # word one C pass checks the entry types; otherwise, or when ``bytes``
    # refuses, the per-entry type scan gives the message.
    checked = isinstance(table, list) and "true" not in text and "false" not in text
    try:
        table = bytes(table) if checked else table
    except (TypeError, ValueError):
        checked = False
    if not checked and (not isinstance(table, list) or not {*map(type, table)} <= {int}):
        raise ValueError("rule field 'table' is missing or not a list of integers")
    return VotingRule(n, m, table)


def check_metric_axioms(space: FiniteMetricSpace) -> MetricCheckReport:
    n = space.size
    d = space.dist
    for i in range(n):
        if d[i][i] != 0:
            return MetricCheckReport(False, "nonzero-self-distance", (i,))
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] < 0:
                return MetricCheckReport(False, "negative-distance", (i, j))
            if d[i][j] != d[j][i]:
                return MetricCheckReport(False, "asymmetry", (i, j))
            if d[i][j] == 0 and space.points[i] != space.points[j]:
                return MetricCheckReport(False, "zero-distance-distinct-points", (i, j))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if d[i][k] > d[i][j] + d[j][k]:
                    return MetricCheckReport(False, "triangle", (i, j, k))
                if d[i][j] > d[i][k] + d[k][j]:
                    return MetricCheckReport(False, "triangle", (i, k, j))
                if d[j][k] > d[j][i] + d[i][k]:
                    return MetricCheckReport(False, "triangle", (j, i, k))
    return MetricCheckReport(True)
