"""The integer kernels equal the reference ``Fraction`` loops exactly.

Populations are seeded: Pareto rules from ``random_pareto_rule`` and
distributions with small random integer weights, some of them zero, that no
voter relabeling preserves.  Every distribution is stored as levels and a
level index; the populations cover both force kernels, a popcount per level
(uniform, star, lift-star and the six-weight draw) and a numerator sum (a
draw with more distinct weights than ``MAX_LEVELS``), and a level index of
one byte and of two (more than 256 distinct weights).  The seat
gather behind every ballot rewrite is checked against re-encoded digit
tuples and against the slice-per-piece gather it replaced, and the pair
signature columns behind every rule builder and predicate against the
per-profile walkers.
"""

import hashlib
import itertools
import json
import pickle
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

import pytest

import fraction_kernels as ref
from arrowlab import orders as orders_module
from arrowlab import rules as rules_module
from arrowlab.arrowcheck import aggregator_from_rule, assemble_rule, candidates_total
from arrowlab.dynamics import (
    check_collapse_conjecture,
    class_transfer_holds,
    force,
    force_profile,
    force_transfer,
    iterate_force_transfer,
)
from arrowlab.measures import (
    MAX_LEVELS,
    Distribution,
    has_full_support,
    is_permutation_invariant,
    lift_distribution,
    star_distribution,
    uniform_distribution,
)
from arrowlab.orders import (
    LinearOrder,
    all_voter_permutations,
    distinct_bytes,
    encode_digits,
    enumerate_orders,
    order_index,
    pair_above,
    pair_signatures,
    profile_blocks,
    profile_digit_tuples,
    seat_gather,
    signature_codes,
)
from arrowlab.quotient import rule_distance
from arrowlab.rules import (
    VotingRule,
    compose_collapse,
    compose_voter_permutation,
    constant_rule,
    cylinder_extend,
    dictator,
    is_dictatorship,
    is_iia,
    is_pareto,
    load_rule,
    pairwise_majority_rule,
    random_pareto_rule,
    save_rule,
)

SCALES = ((2, 3), (3, 3), (4, 3), (2, 4), (3, 4))
# Scales where the draw and majority see at most one pair, or one voter.
EDGE_SCALES = ((1, 3), (1, 4), (2, 1), (2, 2), (3, 2))
RULES_PER_SCALE = 3


def _random_distribution(n: int, m: int, seed: int, weights: int = 6) -> Distribution:
    """Weights in 0..``weights``-1 over their sum, some of them zero."""
    rng = random.Random(seed)
    raw = [rng.randrange(weights) for _ in range(factorial(m) ** n)]
    raw[0] += 1  # a nonzero total even in the unlikely all-zero draw
    total = sum(raw)
    return Distribution(n, m, tuple(Fraction(v, total) for v in raw))


def _distributions(n: int, m: int) -> list[Distribution]:
    """Uniform, two seeded draws, the lift of a star, and stars at 2/7 and
    at 5/8.  At m = 3, ``6^n - 1`` is a multiple of 5, so the star at 5/8
    reduces its levels by 5."""
    y = enumerate_orders(m)[1]
    dists = [
        uniform_distribution(n, m),
        _random_distribution(n, m, 100 * n + m),
        _random_distribution(n, m, 200 * n + m, weights=4 * MAX_LEVELS),
        lift_distribution(star_distribution(n - 1, m, Fraction(1, 2), y), n - 1),
        star_distribution(n, m, Fraction(2, 7), y),
        star_distribution(n, m, Fraction(5, 8), y),
    ]
    assert [len(mu.levels) for mu in dists[3:]] == [3, 2, 2]
    assert len(dists[1].levels) <= MAX_LEVELS < len(dists[2].levels)
    if m == 3:
        assert dists[-1].denominator * 5 == 8 * (factorial(m) ** n - 1)
    return dists


def _force_rules(n: int, m: int) -> list[VotingRule]:
    """Seeded Pareto rules, and a constant rule, which unlike them differs
    from every ballot on the unanimous profiles that star weights load."""
    rules = [random_pareto_rule(n, m, seed) for seed in range(RULES_PER_SCALE)]
    return rules + [constant_rule(n, m, enumerate_orders(m)[0])]


def _seat_map_oracle(n, m, seats, digit_tuples):
    return tuple(encode_digits(tuple(t[s] for s in seats), m) for t in digit_tuples)


def _gather_indices(n, m, seats, width):
    """Gather the source profile indices themselves, packed as records of
    ``width`` bytes, and read the gathered records back as ints."""
    size = factorial(m) ** len(seats)
    packed = b"".join(k.to_bytes(width, "little") for k in range(size))
    out = seat_gather(packed, n, m, seats, width)
    assert len(out) == factorial(m) ** n * width
    return tuple(int.from_bytes(out[k : k + width], "little") for k in range(0, len(out), width))


@pytest.mark.parametrize("n,m", ((1, 3),) + SCALES)
def test_seat_map_equals_digit_oracle_for_every_seat_tuple(n, m):
    """Gathering the profile indices themselves, as 3- and 8-byte records,
    yields the source index of every profile; a byte table gathers to the
    same entries."""
    digit_tuples = profile_digit_tuples(n, m)
    table = bytes(k % 251 for k in range(len(digit_tuples)))
    for seats in itertools.product(range(n), repeat=n):
        expected = _seat_map_oracle(n, m, seats, digit_tuples)
        for width in (3, 8):
            assert _gather_indices(n, m, seats, width) == expected
        assert seat_gather(table, n, m, seats) == bytes(map(table.__getitem__, expected))


@pytest.mark.parametrize("seats", [(0, 0, 0, 0), (0, 1, 2, 0), (3, 1, 2, 3), (1, 0, 3, 2)])
def test_seat_map_equals_digit_oracle_at_four_by_four(seats):
    digit_tuples = itertools.product(range(factorial(4)), repeat=4)
    assert _gather_indices(4, 4, seats, 3) == _seat_map_oracle(4, 4, seats, digit_tuples)


@pytest.mark.parametrize("n,m", ((2, 3), (3, 3), (2, 4)))
def test_gather_onto_more_seats_leaves_the_unread_seats_free(n, m):
    """Reading n-1 seats of an n-voter profile: the ignored-voter extension
    and every seat the lift drops."""
    digit_tuples = profile_digit_tuples(n, m)
    for dropped in range(n):
        seats = tuple(s for s in range(n) if s != dropped)
        expected = _seat_map_oracle(n, m, seats, digit_tuples)
        for width in (3, 8):
            assert _gather_indices(n, m, seats, width) == expected


GATHER_WIDTHS = (1, 2, 3, 4, 8, 9)


def _records(n: int, m: int, width: int, seed: int) -> bytes:
    return random.Random(seed).randbytes(factorial(m) ** n * width)


@pytest.mark.parametrize("n,m", SCALES)
def test_seat_gather_equals_reference_for_every_seat_tuple(n, m):
    """The progression gather equals the slice-per-piece gather it replaced
    on every seat tuple of length n and n-1, at every record width."""
    for width in GATHER_WIDTHS:
        tables = {k: _records(k, m, width, 10 * n + k) for k in (n - 1, n)}
        for k, values in tables.items():
            for seats in itertools.product(range(n), repeat=k):
                out = seat_gather(values, n, m, seats, width)
                assert type(out) is bytes
                assert out == ref.seat_gather(values, n, m, seats, width), (seats, width)


def _kernel_seat_tuples(n: int) -> list[tuple[int, ...]]:
    """Every seat tuple a kernel gathers through at n voters: the
    relabelings, the transfers (a source seat copied onto any set of seats),
    the collapses and the dropped seats of the lift."""
    tuples = set(itertools.permutations(range(n)))
    for source in range(n):
        for k in range(1, n + 1):
            for rewritten in itertools.combinations(range(n), k):
                tuples.add(tuple(source if i in rewritten else i for i in range(n)))
    tuples.update(tuple(s + (s >= j) for s in range(n - 1)) for j in range(n))
    return sorted(tuples)


@pytest.mark.parametrize("width", GATHER_WIDTHS)
def test_seat_gather_equals_reference_at_four_by_four(width):
    tables = {k: _records(k, 4, width, k) for k in (3, 4)}
    for seats in _kernel_seat_tuples(4):
        values = tables[len(seats)]
        assert seat_gather(values, 4, 4, seats, width) == ref.seat_gather(values, 4, 4, seats, width)


def _traced(call) -> tuple[int, int]:
    """Bytes allocated at the peak of ``call()`` above what was held before,
    the result included, and bytes still held once the result is dropped."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - held
        del result
        kept = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    return peak, kept


def _traced_peak(call) -> int:
    return _traced(call)[0]


def test_transfer_gather_and_digest_hold_no_second_table():
    """A (4,4) transfer gather peaks below two tables, its result included:
    one buffer, no pieces and no copy of it.  A (4,4) digest holds no
    whole-table text."""
    table = _records(4, 4, 1, 7)
    size = len(table)
    transfers = [(0, 1, 2, 0), (0, 1, 0, 3), (0, 0, 2, 3), (1, 1, 2, 1), (3, 3, 3, 3), (0, 0, 0, 0)]
    for seats in transfers:
        assert _traced_peak(lambda: seat_gather(table, 4, 4, seats)) < 2 * size, seats
    rule = VotingRule(4, 4, bytes(e % 24 for e in table))
    assert _traced_peak(lambda: rule.digest) < 0.25 * 2**20


def test_rule_construction_holds_no_copy_of_its_table():
    """Checking the entries of a (4,4) table allocates no table-sized buffer
    (deleting the valid entries with ``translate`` allocated 0.32 MiB), so a
    transfer step peaks at its gather: below 1.5 tables, result included,
    where it peaked at two."""
    table = bytes(e % 24 for e in _records(4, 4, 1, 7))
    assert _traced_peak(lambda: VotingRule(4, 4, table)) < 4 * 2**10
    rule = VotingRule(4, 4, table)
    mu = star_distribution(4, 4, Fraction(1, 3), enumerate_orders(4)[1])
    force_transfer(mu, rule)  # builds the block columns the force reads
    assert _traced_peak(lambda: force_transfer(mu, rule)) < 1.5 * len(table)


def test_rule_file_read_holds_no_entry_list(tmp_path):
    """``load_rule`` of a (4,4) file of about 1.1 MB, in the benchmark's
    layout, peaks below 2.5 MB, the rule included: the file's bytes, one
    block's entries and the table, with no per-entry list of the whole
    table (the whole-text reader peaks at about 4.6 MB)."""
    rule = VotingRule(4, 4, bytes(e % 24 for e in _records(4, 4, 1, 7)))
    path = tmp_path / "rule.json"
    record = {"format_version": 1, "n": 4, "m": 4, "table": list(rule.table)}
    path.write_text(json.dumps(record, sort_keys=True) + "\n")
    assert 1.0 * 2**20 < path.stat().st_size < 1.2 * 2**20
    assert _traced_peak(lambda: load_rule(path)) < 2.5 * 2**20
    assert load_rule(path) == rule


@pytest.mark.parametrize("layout", ("bench", "save_rule"))
def test_rule_file_read_holds_no_whole_file(layout, tmp_path):
    """``load_rule`` of a (4,4) file peaks below 0.85 MiB in the benchmark's
    1.1 MB layout and in ``save_rule``'s 2.5 MB one: one copy of the table
    and a block or two of text, with no whole file held (reading the whole
    file peaked at 1.9 and 3.1 MB, and a second copy of the table as
    ``bytes`` at 0.97 and 0.99 MiB)."""
    rule = VotingRule(4, 4, bytes(e % 24 for e in _records(4, 4, 1, 9)))
    path = tmp_path / "rule.json"
    if layout == "save_rule":
        save_rule(rule, path)
    else:
        record = {"format_version": 1, "n": 4, "m": 4, "table": list(rule.table)}
        path.write_text(json.dumps(record, sort_keys=True) + "\n")
    assert path.stat().st_size > 1.0 * 2**20
    assert _traced_peak(lambda: load_rule(path)) < 0.85 * 2**20
    assert load_rule(path) == rule


def test_lift_frees_its_running_sum():
    """The (4,4) lift of a star peaks below 0.79 MiB, its result included,
    whichever ranking the star favors: the dropped-seat gathers are added
    into the first one a piece at a time, and no tuple of level codes
    outlives their packing.  Adding them as whole-table ints held three of
    those ints at once, which peaked at 0.76 MiB for ranking 0 and at 0.99
    for ranking 19 (little-endian ints drop high zero bytes); the piecewise
    sum peaks at 0.71 and 0.72."""
    for favored in (0, 19):
        nu = star_distribution(3, 4, Fraction(1, 2), enumerate_orders(4)[favored])
        lifted = lift_distribution(nu, 3)  # builds the gather tables the lift reads
        assert _traced_peak(lambda: lift_distribution(nu, 3)) < 0.79 * 2**20, favored
        assert lift_distribution(nu, 3) == lifted


def test_star_writes_its_level_index_once():
    """A (4,4) star peaks below 1.1 tables, its result included: the level
    index is written into the buffer that becomes its ``bytes`` (a
    ``bytearray`` and then its ``bytes`` copy peaked at two tables)."""
    y = enumerate_orders(4)[7]
    size = factorial(4) ** 4
    star = star_distribution(4, 4, Fraction(1, 3), y)
    assert _traced_peak(lambda: star_distribution(4, 4, Fraction(1, 3), y)) < 1.1 * size
    assert star.levels == (1, 2 * (size - 1)) and star.denominator == 3 * (size - 1)
    top = encode_digits((order_index(y),) * 4, 4)
    assert star.level_index[top] == 1 and star.level_index.count(0) == size - 1


def test_iteration_holds_only_the_current_iterate():
    """A two-step (4,4) iteration of a rule that the caller does not keep
    peaks below three tables above its distribution, its result included:
    the input is dropped once the first iterate differs from it, so the
    second transfer holds two rules and its gather.  Keeping every iterate
    peaked at 3.1 tables (4.1 with the distribution's level index)."""
    table = bytearray(random_pareto_rule(4, 4, 0).table)
    mu = uniform_distribution(4, 4)
    iterate_force_transfer(mu, random_pareto_rule(4, 4, 1), 2)  # builds the block columns
    peak = _traced_peak(lambda: iterate_force_transfer(mu, VotingRule(4, 4, bytes(table)), 2))
    assert peak < 3 * len(table)
    trace = iterate_force_transfer(mu, VotingRule(4, 4, bytes(table)), 2)
    assert (len(trace.steps), trace.terminated_by) == (2, "fixpoint")


def test_force_and_dictatorship_hold_a_block_at_a_time():
    """At (4,4), a first force profile under a star, which builds the block
    columns, peaks below 256 KiB and keeps below 64 KiB, and a later one
    keeps nothing; the dictatorship test of any dictator peaks below 64 KiB.
    The whole-table kernel peaked at 1.4-3.0 MiB cold and 1.0 MiB warm, and
    kept 2.0 MiB of columns, fills and masks."""
    rule = random_pareto_rule(4, 4, 0)
    mu = star_distribution(4, 4, Fraction(1, 3), enumerate_orders(4)[1])
    orders_module._profile_blocks.cache_clear()
    peak, kept = _traced(lambda: force_profile(mu, rule))
    assert peak < 256 * 2**10 and kept < 64 * 2**10
    assert _traced(lambda: force_profile(mu, rule))[1] < 2**10
    orders_module._profile_blocks.cache_clear()
    for i in range(4):
        ruler = dictator(4, 4, i)
        assert _traced(lambda: is_dictatorship(ruler))[0] < 64 * 2**10


def _text_digest(rule: VotingRule) -> str:
    text = f"{rule.n}:{rule.m}:" + ",".join(map(str, rule.table))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("n,m", ((2, 3), (2, 4), (4, 4)))
def test_digest_equals_hash_of_the_whole_text_at_block_boundaries(n, m, monkeypatch):
    """Entries after the first are hashed a block at a time: they fill one
    entry less than a block, exactly one block, and one block and one
    entry, and at (4,4) many blocks of the default size."""
    rules = [random_pareto_rule(n, m, 0), constant_rule(n, m, enumerate_orders(m)[-1])]
    expected = [_text_digest(rule) for rule in rules]
    hashed = len(rules[0].table) - 1
    blocks = (hashed + 1, hashed, hashed - 1) if n < 4 else (rules_module._TEXT_BLOCK,)
    for block in blocks:
        monkeypatch.setattr(rules_module, "_TEXT_BLOCK", block)
        assert [VotingRule(n, m, rule.table).digest for rule in rules] == expected


def test_distinct_bytes_lists_each_entry_value_once_ascending():
    rng = random.Random(5)
    for table in (b"", bytes(range(256)), bytes(1000), rng.randbytes(3000), bytes([7, 3, 7, 200])):
        assert distinct_bytes(table) == bytes(sorted(set(table)))


@pytest.mark.parametrize("n,m", SCALES + EDGE_SCALES)
def test_random_pareto_rule_equals_digit_keyed_draw(n, m):
    """The reference calls ``randrange`` per profile; the draw inlines its
    loop, so the two must consume the same words at every seed."""
    for seed in range(RULES_PER_SCALE if (n, m) == (3, 4) else 20):
        assert random_pareto_rule(n, m, seed) == ref.random_pareto_rule(n, m, seed)


def test_pareto_output_cache_holds_one_entry_per_unanimity_pattern():
    n, m = 3, 4
    _, draws = rules_module._pareto_draws(n, m)
    orders = enumerate_orders(m)
    ballot_sets = {frozenset(digits) for digits in profile_digit_tuples(n, m)}
    forced_pair_sets = {
        frozenset(
            (a, b)
            for a, b in itertools.permutations(range(m), 2)
            if all(orders[d].prefers(a, b) for d in ballots)
        )
        for ballots in ballot_sets
    }
    assert len(draws) == len(forced_pair_sets)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pareto_outputs_equal_the_per_pair_scan(m):
    """At every voter count, one break mask per ranking keeps exactly the
    rankings that the scan over pairs keeps, on every unanimity pattern that
    occurs: order o breaks pair p when bit 2p + above[p][o] of the pattern is
    set.  Each row holds the outputs, their count and its bit length."""
    above = pair_above(m)
    for n in range(1, 5):
        patterns, draws = rules_module._pareto_draws(n, m)
        assert set(draws) == set(patterns)
        for pattern, row in draws.items():
            scan = tuple(
                o
                for o in range(factorial(m))
                if not any(pattern >> (2 * p + bits[o]) & 1 for p, bits in enumerate(above))
            )
            assert row == (scan, len(scan), len(scan).bit_length())


@pytest.mark.parametrize("n,m", [(3, 4), (4, 4)])
def test_pareto_draw_fills_one_byte_buffer(n, m):
    """A warm draw peaks below 2.5 tables, its rule included: one
    ``bytearray`` and its ``bytes`` copy, where a list of ints peaked at
    about ten."""
    random_pareto_rule(n, m, 0)
    assert _traced_peak(lambda: random_pareto_rule(n, m, 1)) < 2.5 * factorial(m) ** n


@pytest.mark.parametrize("n,m", ((1, 3),) + SCALES)
def test_pair_signatures_equal_pair_rows(n, m):
    assert tuple(map(tuple, pair_signatures(n, m))) == ref.pair_rows(n, m)


def _fold_shares(n, m):
    """Named share functions for ``signature_codes`` and the lane width each
    needs: the three the rule builders fold, and shares whose largest sum is
    exactly the top value of a lane, or one past it, so that a lane one byte
    too narrow carries into its neighbour."""
    pairs, full = m * (m - 1) // 2, (1 << n) - 1

    def top(total):
        parts = [total // pairs] * pairs
        parts[0] += total - sum(parts)
        return lambda p, s: parts[p] * s // full

    def lanes(bits):
        return next(w for w in (1, 2, 4) if bits <= 8 * w)

    borda_bits = ((n + 1) ** pairs - 1).bit_length()  # every voter for every first candidate
    shares = [
        ("tournament", lambda p, s: (s & 1) << p, lanes(pairs)),
        ("unanimity", lambda p, s: (s == full) << 2 * p | (s == 0) << 2 * p + 1, lanes(2 * pairs)),
        ("borda", lambda p, s: s.bit_count() * (n + 1) ** p, lanes(borda_bits)),
    ]
    tops = ((255, 1), (256, 2), (65535, 2), (65536, 4), (2**32 - 1, 4))
    return shares + [(f"top {t}", top(t), w) for t, w in tops]


@pytest.mark.parametrize("n,m", [(3, 3), (3, 4), (2, 5)])
def test_signature_codes_equal_per_profile_sums(n, m, monkeypatch):
    """The whole-table fold equals the per-profile sum of the shares, in the
    narrowest lanes (1, 2 or 4 bytes) that hold the largest possible sum."""
    monkeypatch.setenv("ARROWLAB_SCALE_OVERRIDE", "1")
    columns = pair_signatures(n, m)
    widths = set()
    for name, share, width in _fold_shares(n, m):
        codes = signature_codes(n, m, share)
        expected = [
            sum(share(p, column[k]) for p, column in enumerate(columns))
            for k in range(len(columns[0]))
        ]
        assert list(codes) == expected, name
        assert (1 if isinstance(codes, bytes) else codes.itemsize) == width, name
        widths.add(width)
    assert widths == {1, 2, 4}


def _majority_variants(n, m):
    """Keyword arguments for majority: the default, the reversed order and every tie-break voter."""
    return [{}, {"tiebreak_order": enumerate_orders(m)[-1]}] + [
        {"tiebreak_voter": v} for v in range(n)
    ]


def _edge_rules(n, m):
    """Dictators, which pass both predicates; the constant rules on the first
    and the last ranking, which break unanimity from opposite sides of every
    pair; and dictator 0 changed on one profile, which leaves one conflicting
    signature on each pair whose outcome it flips."""
    orders = enumerate_orders(m)
    changed = list(dictator(n, m, 0).table)
    k = len(changed) // 2
    changed[k] = (changed[k] + 1) % len(orders)
    rules = [dictator(n, m, i) for i in range(n)]
    rules += [constant_rule(n, m, orders[0]), constant_rule(n, m, orders[-1])]
    return rules + [VotingRule(n, m, tuple(changed))]


@lru_cache(maxsize=None)
def _rule_population(n, m):
    """Seeded draws, the edge rules, every majority variant and the reference
    Borda under both orders."""
    last = enumerate_orders(m)[-1]
    rules = [random_pareto_rule(n, m, seed) for seed in range(RULES_PER_SCALE)]
    rules += _edge_rules(n, m)
    rules += [pairwise_majority_rule(n, m, **kw) for kw in _majority_variants(n, m)]
    rules += [ref.borda_rule(n, m), ref.borda_rule(n, m, last)]
    return rules


@pytest.mark.parametrize("n,m", SCALES + EDGE_SCALES)
def test_majority_equals_reference(n, m):
    for kw in _majority_variants(n, m):
        assert pairwise_majority_rule(n, m, **kw) == ref.pairwise_majority_rule(n, m, **kw)


@pytest.mark.parametrize("n,m", SCALES)
def test_predicates_and_aggregators_equal_reference(n, m):
    verdicts = []
    for rule in _rule_population(n, m):
        agg = aggregator_from_rule(rule)
        assert agg == ref.aggregator_from_rule(rule)
        verdicts.append((is_pareto(rule), is_iia(rule), agg is not None))
        assert verdicts[-1] == (ref.is_pareto(rule), ref.is_iia(rule), agg is not None)
        if agg is not None:
            assert assemble_rule(agg, n, m) == rule == ref.assemble_rule(agg, n, m)
    edge = verdicts[RULES_PER_SCALE : RULES_PER_SCALE + n + 3]
    assert edge[:n] == [(True, True, True)] * n
    assert edge[n : n + 2] == [(False, True, False)] * 2
    assert edge[n + 2][1:] == (False, False)
    rng = random.Random(10 * n + m)
    aggregators = [ref.projection_aggregator(n, m, i) for i in range(n)]
    aggregators += [
        ref.aggregator_from_candidate_index(rng.randrange(candidates_total(n, m)), n, m)
        for _ in range(20)
    ]
    for agg in aggregators:
        assert assemble_rule(agg, n, m) == ref.assemble_rule(agg, n, m)


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 2)])
def test_assembly_below_three_candidates_equals_reference(n, m):
    """No pair at m = 1, one at m = 2: the code still takes one byte."""
    pairs = m * (m - 1) // 2
    for free in range(1 << ((1 << n) - 2) * pairs):
        agg = ref.aggregator_from_candidate_index(free, n, m)
        assert assemble_rule(agg, n, m) == ref.assemble_rule(agg, n, m)


def test_assembly_at_five_candidates_equals_reference(monkeypatch):
    """Ten pairs at m = 5: a tournament code takes more than one byte."""
    monkeypatch.setenv("ARROWLAB_SCALE_OVERRIDE", "1")
    n, m = 2, 5
    rng = random.Random(25)
    aggregators = [ref.projection_aggregator(n, m, i) for i in range(n)]
    aggregators += [
        ref.aggregator_from_candidate_index(rng.randrange(candidates_total(n, m)), n, m)
        for _ in range(10)
    ]
    assembled = [assemble_rule(agg, n, m) for agg in aggregators]
    assert assembled == [ref.assemble_rule(agg, n, m) for agg in aggregators]
    assert assembled[:n] == [dictator(n, m, i) for i in range(n)]


@pytest.mark.parametrize("n,m", SCALES)
def test_ballot_rewrites_equal_reference(n, m):
    rules = [random_pareto_rule(n, m, seed) for seed in range(RULES_PER_SCALE)]
    for rule in rules:
        for mu in filter(has_full_support, _distributions(n, m)):
            assert force_transfer(mu, rule) == ref.force_transfer(mu, rule)
        for perm in all_voter_permutations(n):
            assert compose_voter_permutation(rule, perm) == ref.rewrite(rule, perm.mapping)
        for i in range(n):
            assert compose_collapse(rule, i) == ref.rewrite(rule, (i,) * n)


@pytest.mark.parametrize("n,m", SCALES)
def test_forces_equal_reference(n, m):
    rules = _force_rules(n, m)
    for mu in _distributions(n, m):
        for rule in rules:
            fp = force_profile(mu, rule)
            forces, most, least = ref.force_profile(mu, rule)
            assert (fp.forces, fp.most_forceful, fp.least_forceful) == (forces, most, least)
            assert tuple(force(mu, rule, i) for i in range(n)) == forces


@pytest.mark.parametrize("n,m", SCALES)
def test_rule_distance_equals_reference(n, m):
    rules = _force_rules(n, m)
    for mu in _distributions(n, m):
        for f, g in itertools.combinations(rules, 2):
            assert rule_distance(mu, f, g) == ref.rule_distance(mu, f, g)
        assert rule_distance(mu, rules[0], rules[0]) == 0


BLOCK_SCALES = ((1, 3), (2, 3), (3, 3), (4, 3), (1, 4), (2, 4), (3, 4))


def _level_draw(n: int, m: int, count: int, seed: int) -> Distribution:
    """Seeded numerators with exactly ``count`` distinct values."""
    rng = random.Random(seed)
    raw = list(range(1, count + 1)) + [1 + rng.randrange(count) for _ in range(factorial(m) ** n - count)]
    rng.shuffle(raw)
    mu = Distribution.from_numerators(n, m, raw, sum(raw))
    assert len(mu.levels) == count
    return mu


def _block_distributions(n: int, m: int) -> list[Distribution]:
    """Uniform, a star, the lift of a star, and draws of 11 and 257 levels
    where the table has room: a popcount per level, a sum over the agreeing
    profiles, and a level index of one byte and of two."""
    y = enumerate_orders(m)[1]
    dists = [uniform_distribution(n, m), star_distribution(n, m, Fraction(1, 3), y)]
    if n > 1:
        dists.append(lift_distribution(star_distribution(n - 1, m, Fraction(1, 2), y), n - 1))
    return dists + [_level_draw(n, m, c, c * n + m) for c in (11, 257) if c <= factorial(m) ** n]


@pytest.mark.parametrize("n,m", BLOCK_SCALES)
def test_block_kernels_equal_reference_at_every_seat_split(n, m, monkeypatch):
    """With ``_FORCE_BLOCK`` lowered to (m!)^(n-h) for every h from 0 (one
    block) to n (a block per profile), forces, rule distance and the
    dictatorship test equal the reference loops."""
    mf = factorial(m)
    rules = [random_pareto_rule(n, m, 0), random_pareto_rule(n, m, 1), constant_rule(n, m, enumerate_orders(m)[-1])]
    rules += [dictator(n, m, i) for i in range(n)]
    pairs = list(zip(rules, rules[1:]))
    dists = _block_distributions(n, m)
    forces = [[ref.force_profile(mu, rule) for rule in rules] for mu in dists]
    distances = [[ref.rule_distance(mu, f, g) for f, g in pairs] for mu in dists]
    dictators = [ref.is_dictatorship(rule) for rule in rules]
    assert dictators[2:] == [None, *range(n)]
    for h in range(n + 1):
        monkeypatch.setattr(orders_module, "_FORCE_BLOCK", mf ** (n - h))
        size, blocks, columns = profile_blocks(n, m)
        assert (size, len(blocks), len(columns)) == (mf ** (n - h), mf**h, n - h)
        for mu, expected, apart in zip(dists, forces, distances):
            for rule, (values, most, least) in zip(rules, expected):
                fp = force_profile(mu, rule)
                assert (fp.forces, fp.most_forceful, fp.least_forceful) == (values, most, least), h
            assert tuple(force(mu, rules[0], i) for i in range(n)) == expected[0][0]
            assert [rule_distance(mu, f, g) for f, g in pairs] == apart
        assert [is_dictatorship(rule) for rule in rules] == dictators


@pytest.mark.parametrize("seed", range(3))
def test_block_kernels_equal_the_whole_table_kernel_at_four_by_four(seed):
    """At (4,4), 24 blocks of 13824 profiles: every voter's force, the
    distance to the next seed's rule and the dictatorship test equal the
    whole-table kernel they replaced."""
    n, m = 4, 4
    y = enumerate_orders(m)[seed + 3]
    rule, other = random_pareto_rule(n, m, seed), random_pareto_rule(n, m, seed + 1)
    for mu in (
        uniform_distribution(n, m),
        star_distribution(n, m, Fraction(1, 3), y),
        lift_distribution(star_distribution(n - 1, m, Fraction(1, 2), y), n - 1),
        _level_draw(n, m, 11, seed),
    ):
        columns = ref.digit_columns(n, m)
        totals = [ref.whole_table_agreement(mu, rule.table, c) for c in columns]
        assert force_profile(mu, rule).forces == tuple(Fraction(t, mu.denominator) for t in totals)
        agreed = ref.whole_table_agreement(mu, rule.table, other.table)
        assert rule_distance(mu, rule, other) == Fraction(mu.denominator - agreed, mu.denominator)
    for candidate in (rule, dictator(n, m, seed + 1)):
        expected = next((i for i, c in enumerate(ref.digit_columns(n, m)) if candidate.table == c), None)
        assert is_dictatorship(candidate) == expected
    assert is_dictatorship(dictator(n, m, seed + 1)) == seed + 1


def _changed(rule: VotingRule, k: int) -> VotingRule:
    table = bytearray(rule.table)
    table[k] = (table[k] + 1) % factorial(rule.m)
    return VotingRule(rule.n, rule.m, bytes(table))


@pytest.mark.parametrize("n,m,h", ((4, 4, 1), (2, 3, 1), (3, 3, 2), (2, 4, 2), (3, 4, 1), (3, 4, 3)))
def test_dictatorship_test_sees_one_changed_entry_in_any_block(n, m, h, monkeypatch):
    """A dictator with one entry changed in the first, a middle or the last
    block, at its first, middle or last profile, is no dictatorship; nor is
    any constant rule."""
    monkeypatch.setattr(orders_module, "_FORCE_BLOCK", factorial(m) ** (n - h))
    size, blocks, _ = profile_blocks(n, m)
    assert len(blocks) == factorial(m) ** h
    for i in range(n):
        rule = dictator(n, m, i)
        assert is_dictatorship(rule) == i
        for start, _ in (blocks[0], blocks[len(blocks) // 2], blocks[-1]):
            for k in {start, start + size // 2, start + size - 1}:
                assert is_dictatorship(_changed(rule, k)) is None, (i, k)
    for order in enumerate_orders(m):
        assert is_dictatorship(constant_rule(n, m, order)) is None


def test_level_form_is_chosen_by_the_count_of_distinct_weights():
    """The level index takes one byte per profile up to 256 levels and two
    past that; both constructors give the same value, hash and form."""
    for count in (1, MAX_LEVELS, MAX_LEVELS + 1, 257):
        raw = [1 + k % count for k in range(576)]
        mu = Distribution.from_numerators(2, 4, raw, sum(raw))
        by_fractions = Distribution(2, 4, [Fraction(v, sum(raw)) for v in raw])
        assert by_fractions == mu and hash(by_fractions) == hash(mu)
        assert mu.levels == tuple(range(1, count + 1))
        assert len(mu.level_index) == len(raw) * (1 if count <= 256 else 2)
        assert mu.numerators == tuple(raw)
        assert mu.weights == tuple(Fraction(v, sum(raw)) for v in raw)


def _wide(n: int, m: int, seed: int) -> Distribution:
    """Seeded weights in 1..1000, more than 256 distinct ones on the tables
    of 576 profiles and more used here: a two-byte level index."""
    rng = random.Random(seed)
    raw = [1 + rng.randrange(1000) for _ in range(factorial(m) ** n)]
    mu = Distribution.from_numerators(n, m, raw, sum(raw))
    assert len(mu.levels) > 256 and len(mu.level_index) == 2 * len(raw)
    return mu


@pytest.mark.parametrize("n,m", ((4, 3), (3, 4)))
def test_wide_level_index_equals_reference(n, m):
    """Forces, rule distance, the invariance test, equality, hashing and a
    pickle round trip of a distribution with a two-byte level index."""
    mu = _wide(n, m, 23 * n + m)
    rules = _force_rules(n, m)
    for rule in rules:
        forces, most, least = ref.force_profile(mu, rule)
        fp = force_profile(mu, rule)
        assert (fp.forces, fp.most_forceful, fp.least_forceful) == (forces, most, least)
    for f, g in itertools.combinations(rules, 2):
        assert rule_distance(mu, f, g) == ref.rule_distance(mu, f, g)
    # Symmetric under swapping voters 0 and 1 only: the gather of the wide
    # index passes the first adjacent swap and fails a later one.
    raw = mu.numerators
    swapped = [raw[encode_digits((t[1], t[0]) + t[2:], m)] for t in profile_digit_tuples(n, m)]
    pair = Distribution.from_numerators(n, m, map(sum, zip(raw, swapped)), 2 * mu.denominator)
    assert len(pair.levels) > 256
    for nu in (mu, pair):
        assert is_permutation_invariant(nu) is ref.is_permutation_invariant(nu) is False
    fresh = _wide(n, m, 23 * n + m)
    assert fresh == mu and hash(fresh) == hash(mu) and fresh != pair
    copy = pickle.loads(pickle.dumps(fresh))
    assert "numerators" not in vars(fresh) and "numerators" not in vars(copy)
    assert copy == mu and hash(copy) == hash(mu) and copy.numerators == raw


def test_lift_of_a_wide_level_index_equals_reference():
    """A (2,4) base with a two-byte level index, lifted from every seat to
    (3,4), where the invariant lift keeps more than 256 levels."""
    nu = _wide(2, 4, 29)
    lifted = _lift_equals_reference(nu)
    assert len(lifted.levels) > 256 and len(lifted.level_index) == 2 * factorial(4) ** 3
    assert is_permutation_invariant(lifted) and not is_permutation_invariant(nu)


@pytest.mark.parametrize("n,m", ((2, 3), (3, 4)))
def test_level_distributions_pickle_without_their_numerators(n, m):
    """The ``collapse`` fork pool pickles the distribution for its workers."""
    for mu in _distributions(n, m):
        copy = pickle.loads(pickle.dumps(mu))
        assert copy == mu and hash(copy) == hash(mu)
        assert "numerators" not in vars(copy)
        assert copy.numerators == mu.numerators


def test_iterate_at_four_by_four_builds_no_profile_length_tuple():
    n, m = 4, 4
    y = enumerate_orders(m)[5]
    rule = random_pareto_rule(n, m, 0)
    for mu in (
        uniform_distribution(n, m),
        star_distribution(n, m, Fraction(1, 2), y),
        lift_distribution(star_distribution(n - 1, m, Fraction(1, 2), y), n - 1),
    ):
        iterate_force_transfer(mu, rule, 4)
        assert "numerators" not in vars(mu)


@pytest.mark.parametrize("n,m", SCALES)
def test_lift_from_every_seat_equals_reference(n, m):
    nu = _random_distribution(n - 1, m, 7 * n + m)
    assert nu.n == 1 or not is_permutation_invariant(nu)
    for i in range(n):
        lifted = lift_distribution(nu, i)
        assert lifted.weights == ref.lift_weights(nu, i)


def _base(n: int, m: int, seed: int, zero=lambda digits: False) -> Distribution:
    """Seeded weights in 1..6, zero on the profiles whose digit tuple ``zero`` picks."""
    rng = random.Random(seed)
    raw = [0 if zero(t) else 1 + rng.randrange(6) for t in profile_digit_tuples(n, m)]
    return Distribution.from_numerators(n, m, raw, sum(raw))


def _lift_equals_reference(nu: Distribution) -> Distribution:
    """Lift ``nu`` from every seat; each lift equals the ``Fraction`` loop, in
    lowest terms, with the support flag of its weights."""
    for i in range(nu.n + 1):
        lifted = lift_distribution(nu, i)
        expected = ref.lift_weights(nu, i)
        assert lifted.weights == expected
        assert gcd(lifted.denominator, *lifted.numerators) == 1
        assert lifted.full_support is all(expected)
    return lifted


LIFT_SCALES = ((3, 3), (4, 3))  # lifts from (2, 3) and from (3, 3)


@pytest.mark.parametrize("n,m", LIFT_SCALES)
def test_lift_in_wide_lanes_equals_reference(n, m):
    """One base entry of at least 2**64 makes the lanes wider than 8 bytes.
    The base has more than ``MAX_LEVELS`` weights, so its lanes hold
    numerators, not level codes."""
    raw = [(k + 1) * v for k, v in enumerate(_base(n - 1, m, 13 * n + m).numerators)]
    raw[7] += 2**70
    nu = Distribution.from_numerators(n - 1, m, raw, sum(raw))
    assert max(nu.numerators) >= 2**64 and len(nu.levels) > MAX_LEVELS
    lifted = _lift_equals_reference(nu)
    assert max(lifted.numerators) >= 2**64
    assert is_permutation_invariant(lifted) and ref.is_permutation_invariant(lifted)
    assert not is_permutation_invariant(nu) and not ref.is_permutation_invariant(nu)


def test_wide_lanes_of_a_many_level_base_can_lift_to_levels():
    """Weights 2**70 + a - b on ballots (a, b) take eleven values, but each
    pair of seat orders sums to 2**71, so the lift is uniform; its two-word
    lanes, decoded one at a time, become one level."""
    raw = [2**70 + a - b for a, b in profile_digit_tuples(2, 3)]
    nu = Distribution.from_numerators(2, 3, raw, sum(raw))
    assert len(nu.levels) > MAX_LEVELS
    lifted = _lift_equals_reference(nu)
    assert lifted == uniform_distribution(3, 3) and lifted.levels == (1,)


@pytest.mark.parametrize("n,m", LIFT_SCALES)
def test_lift_of_a_tiny_epsilon_star_keeps_exact_levels(n, m):
    """A tiny epsilon puts the star's top beyond 2**64.  The lift sums level
    codes rather than numerators, so its lanes stay narrow, and the three
    lifted levels still come out exact."""
    nu = star_distribution(n - 1, m, Fraction(1, 10**30), enumerate_orders(m)[2])
    lifted = _lift_equals_reference(nu)
    assert len(lifted.levels) == 3 and max(lifted.levels) >= 2**64
    assert is_permutation_invariant(lifted)


@pytest.mark.parametrize("n,m", LIFT_SCALES)
def test_lift_of_dense_bases_with_zeros_equals_reference(n, m):
    """Seeded bases with zeros, lifted with and without full support.  Zeros
    where the last seat holds ballot 0 and the first does not leave every
    profile a positive sub-profile; zeros wherever ballot 0 is cast leave the
    profiles holding ballot 0 twice with none."""
    full = _base(n - 1, m, 17 * n + m, lambda t: t[-1] == 0 and t[0] != 0)
    sparse = _base(n - 1, m, 19 * n + m, lambda t: 0 in t)
    assert not full.full_support and not sparse.full_support
    assert _lift_equals_reference(full).full_support
    assert not _lift_equals_reference(sparse).full_support


@pytest.mark.parametrize("n,m", LIFT_SCALES)
def test_lift_reduces_to_lowest_terms(n, m):
    """The lifts of the uniform and star bases share a factor with n! * m!."""
    unreduced = factorial(n) * factorial(m)
    uniform = uniform_distribution(n - 1, m)
    lifted = _lift_equals_reference(uniform)
    assert lifted.numerators == (1,) * factorial(m) ** n
    assert lifted.denominator == factorial(m) ** n < uniform.denominator * unreduced
    star = star_distribution(n - 1, m, Fraction(2, 7), enumerate_orders(m)[1])
    assert _lift_equals_reference(star).denominator < star.denominator * unreduced


@pytest.mark.parametrize("n,m", SCALES)
def test_permutation_invariance_equals_reference(n, m):
    nu = _random_distribution(n - 1, m, 3 * n + m)
    cases = _distributions(n, m) + [lift_distribution(nu, 0)]
    if n >= 3:
        # Symmetric under swapping voters 0 and 1 only: invariant under the
        # first adjacent swap, not under the others.
        raw = _random_distribution(n, m, 11 * n + m).weights
        swapped = [raw[encode_digits((t[1], t[0]) + t[2:], m)] for t in profile_digit_tuples(n, m)]
        cases.append(Distribution(n, m, tuple((a + b) / 2 for a, b in zip(raw, swapped))))
    verdicts = [is_permutation_invariant(mu) for mu in cases]
    assert verdicts == [ref.is_permutation_invariant(mu) for mu in cases]
    assert verdicts[0] is True and verdicts[1] is False and verdicts[-2] is True
    if n >= 3:
        assert verdicts[-1] is False


def test_lift_star_at_four_by_four_matches_closed_form():
    """Under an invariant base the lift is (1/(n*m!)) * sum_j nu(x without seat j)."""
    n, m = 4, 4
    y = 5
    eps = Fraction(1, 2)
    nu = star_distribution(n - 1, m, eps, enumerate_orders(m)[y])
    mu = lift_distribution(nu, n - 1)
    top = 1 - eps
    spread = eps / (factorial(m) ** (n - 1) - 1)
    scale = Fraction(1, n * factorial(m))
    # nu(x without seat j) is ``top`` exactly when the other three seats hold y.
    expected = {c: scale * (c * top + (n - c) * spread) for c in range(n + 1)}
    for k, digits in enumerate(itertools.product(range(factorial(m)), repeat=n)):
        ys = digits.count(y)
        unanimous_drops = n if ys == n else (1 if ys == n - 1 else 0)
        weight = expected[unanimous_drops]
        assert mu.numerators[k] * weight.denominator == weight.numerator * mu.denominator
    assert mu.full_support


@pytest.mark.parametrize(
    "n, m, dist, seeds, failures",
    [
        (3, 3, "uniform", range(100), 10),
        (3, 3, "star", range(100), 10),
        (3, 3, "lift-star", range(100), 2),
        (2, 4, "uniform", range(100), 0),
        (4, 3, "uniform", range(10), 0),
        (4, 3, "lift-star", range(10), 0),
        # Seeds 0-9 all pass at (4, 3); seed 33 is the first that fails.
        (4, 3, "uniform", range(30, 40), 1),
    ],
)
def test_class_transfer_verdict_equals_orbit_rebuild(n, m, dist, seeds, failures):
    y = enumerate_orders(m)[0]
    if dist == "uniform":
        mu = uniform_distribution(n, m)
    elif dist == "star":
        mu = star_distribution(n, m, Fraction(1, 2), y)
    else:
        mu = lift_distribution(star_distribution(n - 1, m, Fraction(1, 2), y), n - 1)
    rules = [random_pareto_rule(n, m, seed) for seed in seeds]
    verdicts = [class_transfer_holds(mu, rule) for rule in rules]
    assert verdicts == [ref.class_transfer_holds(mu, rule) for rule in rules]
    assert verdicts.count(False) == failures


def test_class_transfer_reads_forces_once_per_member_and_image(monkeypatch):
    """``welldef`` reads the forces of each member and of each member's image
    once: the rule's own forces find its class and serve as its member's,
    and the transfer and the closure test share a member's forces."""
    import arrowlab.dynamics as dynamics

    mu = uniform_distribution(3, 3)
    rules = [random_pareto_rule(3, 3, seed) for seed in range(6)]
    sizes = [len(dynamics.orbit_class(mu, rule).members) for rule in rules]
    assert 1 in sizes and 6 in sizes
    read = dynamics.force_profile
    calls = []
    monkeypatch.setattr(dynamics, "force_profile", lambda mu, rule: calls.append(rule) or read(mu, rule))
    for rule, size in zip(rules, sizes):
        calls.clear()
        assert class_transfer_holds(mu, rule) is True
        assert len(calls) == 2 * size


def test_replay_reads_forces_once_per_rule(monkeypatch):
    """``replay`` reads the extended rule's forces once, for the report and
    the fixedness test, and the base rule's once; the fixedness verdict is
    the transfer map's."""
    import arrowlab.dynamics as dynamics

    read = dynamics.force_profile
    calls = []
    monkeypatch.setattr(dynamics, "force_profile", lambda mu, rule: calls.append(rule) or read(mu, rule))
    y = enumerate_orders(3)[0]
    for base in (pairwise_majority_rule(2, 3), dictator(2, 3, 1), random_pareto_rule(2, 3, 4)):
        calls.clear()
        report = dynamics.replay_contradiction(base, Fraction(1, 2), y)
        assert len(calls) == 2
        f = rules_module.cylinder_extend(base)
        mu = lift_distribution(star_distribution(2, 3, Fraction(1, 2), y), 2)
        assert report.transfer_fixed is (force_transfer(mu, f) == f)


def _collapse_reads(mu: Distribution, rules: list, monkeypatch) -> list[int]:
    """Check the collapse entries of ``rules`` against the n-step reference;
    return the force profiles each entry reads."""
    import arrowlab.dynamics as dynamics

    expected = tuple(ref.collapse_entry(mu, rule) for rule in rules)
    assert check_collapse_conjecture(mu, rules).entries == expected
    read, calls, counts = dynamics.force_profile, [], []
    monkeypatch.setattr(dynamics, "force_profile", lambda mu, rule: calls.append(rule) or read(mu, rule))
    for rule, entry in zip(rules, expected):
        calls.clear()
        assert check_collapse_conjecture(mu, [rule]).entries == (entry,)
        counts.append(len(calls))
    return counts


@pytest.mark.parametrize("n,m", ((2, 3), (3, 3), (4, 3), (3, 4)))
def test_collapse_of_pareto_draws_reads_two_force_profiles(n, m, monkeypatch):
    """Every seeded draw is fixed after one transfer, so its entry reads the
    draw's forces and its image's, where n transfers read n."""
    rules = [random_pareto_rule(n, m, seed) for seed in range(12)]
    assert _collapse_reads(uniform_distribution(n, m), rules, monkeypatch) == [2] * len(rules)


@pytest.mark.parametrize("m", (3, 4))
def test_collapse_of_cylinder_rules_equals_reference(m, monkeypatch):
    mu = lift_distribution(star_distribution(2, m, Fraction(1, 2), enumerate_orders(m)[0]), 2)
    bases = [pairwise_majority_rule(2, m)] + [random_pareto_rule(2, m, seed) for seed in range(3)]
    _collapse_reads(mu, [cylinder_extend(base) for base in bases], monkeypatch)


def _inverse_dictator(n: int, m: int, i: int) -> VotingRule:
    """The rule that outputs voter i's ballot reversed."""
    reverse = bytes(order_index(LinearOrder(o.ranking[::-1])) for o in enumerate_orders(m))
    return VotingRule(n, m, dictator(n, m, i).table.translate(reverse.ljust(256, b"\0")))


@pytest.mark.parametrize("n", (2, 3))
def test_collapse_of_inverse_dictators_runs_every_step(n, monkeypatch):
    """Inverse dictators 0 and 1 map to each other, so no trace ends at a
    fixpoint: each entry reads the forces of the rule and its n iterates."""
    rules = [_inverse_dictator(n, 3, i) for i in range(n)]
    assert _collapse_reads(uniform_distribution(n, 3), rules, monkeypatch) == [n + 1] * n
