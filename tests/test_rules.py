import hashlib
import itertools
import json
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_kernels as ref
from arrowlab import rules as rules_module
from arrowlab.orders import (
    VoterPermutation,
    all_voter_permutations,
    encode_digits,
    enumerate_orders,
    profile_digit_tuples,
)
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
    table_digest,
)

ORDERS3 = enumerate_orders(3)


def brute_force_is_pareto(rule):
    """Independent unanimity check over each profile's ballot indices and prefers()."""
    orders = enumerate_orders(rule.m)
    for k, digits in enumerate(profile_digit_tuples(rule.n, rule.m)):
        out = orders[rule.table[k]]
        for a in range(rule.m):
            for b in range(rule.m):
                if a == b:
                    continue
                if all(orders[d].prefers(a, b) for d in digits) and not out.prefers(a, b):
                    return False
    return True


def test_dictator_table_entries():
    k = encode_digits((0, 5), 3)
    assert k == 5
    assert dictator(2, 3, 0).table[k] == 0
    assert dictator(2, 3, 1).table[k] == 5


def test_dictator_rejects_bad_voter():
    with pytest.raises(ValueError):
        dictator(2, 3, 2)


def test_voting_rule_validation():
    with pytest.raises(ValueError):
        VotingRule(2, 3, (0,) * 35)
    with pytest.raises(ValueError):
        VotingRule(2, 3, (0,) * 35 + (6,))
    with pytest.raises(ValueError):
        VotingRule(5, 3, (0,) * 6**5)


@pytest.mark.parametrize("entry", [-1, 24, 256, 10**9, "a"])
def test_bad_table_entry_is_named_in_one_message(entry):
    """Entries outside 0..m!-1 fail the same way whether ``bytes`` accepts
    them (24 at m = 4) or not (negative, above a byte, not an integer)."""
    table = [0] * 24**2
    table[7] = entry
    message = f"^{re.escape(f'table entry {entry!r} out of range for m=4')}$"
    for given_table in (table, tuple(table)):
        with pytest.raises(ValueError, match=message):
            VotingRule(2, 4, given_table)


def test_first_bad_table_entry_is_named():
    """Of several entries out of range, the message names the first in
    table order, not the largest or the smallest."""
    table = bytearray(24**2)
    table[3], table[7], table[9] = 200, 24, 255
    with pytest.raises(ValueError, match="^table entry 200 out of range for m=4$"):
        VotingRule(2, 4, bytes(table))


def test_table_is_bytes_whatever_it_was_built_from():
    rule = random_pareto_rule(2, 4, 1)
    assert type(rule.table) is bytes
    rebuilt = VotingRule(2, 4, list(rule.table))
    assert type(rebuilt.table) is bytes
    assert rebuilt == rule and hash(rebuilt) == hash(rule)
    with pytest.raises(TypeError):
        VotingRule(1, 3, 6)  # an int is no table, not six zero entries


def test_pareto_rules_reproduce_unanimity():
    for seed in range(5):
        rule = random_pareto_rule(2, 3, seed)
        for o in range(len(ORDERS3)):
            assert rule.table[encode_digits((o, o), 3)] == o


def test_is_pareto_examples():
    assert is_pareto(dictator(2, 3, 0))
    assert is_pareto(dictator(3, 3, 2))
    assert not is_pareto(constant_rule(2, 3, ORDERS3[0]))
    assert is_pareto(pairwise_majority_rule(2, 3, tiebreak_voter=0))


def test_is_pareto_agrees_with_brute_force_oracle():
    rules = [
        dictator(2, 3, 1),
        constant_rule(2, 3, ORDERS3[2]),
        pairwise_majority_rule(2, 3),
        ref.borda_rule(2, 3),
    ] + [random_pareto_rule(2, 3, seed) for seed in range(10)]
    for rule in rules:
        assert is_pareto(rule) == brute_force_is_pareto(rule)


def test_is_iia_examples():
    assert is_iia(dictator(2, 3, 0))
    assert is_iia(constant_rule(2, 3, ORDERS3[0]))
    assert not is_iia(ref.borda_rule(2, 3))


def test_borda_iia_witness_found_by_exhaustive_scan():
    """Two profiles agreeing on one pair's per-voter comparisons but with
    differing output comparisons, found over all 36x36 profile pairs."""
    rule = ref.borda_rule(2, 3)
    profiles = profile_digit_tuples(2, 3)
    witness = None
    for ka, pa in enumerate(profiles):
        out_a = ORDERS3[rule.table[ka]]
        for kb, pb in enumerate(profiles):
            out_b = ORDERS3[rule.table[kb]]
            for a in range(3):
                for b in range(a + 1, 3):
                    if all(
                        ORDERS3[da].prefers(a, b) == ORDERS3[db].prefers(a, b)
                        for da, db in zip(pa, pb)
                    ) and out_a.prefers(a, b) != out_b.prefers(a, b):
                        witness = (ka, kb, a, b)
        if witness:
            break
    assert witness is not None


def test_is_dictatorship():
    assert is_dictatorship(dictator(2, 3, 1)) == 1
    assert is_dictatorship(dictator(3, 3, 2)) == 2
    assert is_dictatorship(constant_rule(2, 3, ORDERS3[0])) is None
    table = list(dictator(2, 3, 0).table)
    table[1] = 1
    assert is_dictatorship(VotingRule(2, 3, tuple(table))) is None


def test_dictatorship_implies_pareto_and_iia():
    for i in range(3):
        rule = dictator(3, 3, i)
        assert is_pareto(rule)
        assert is_iia(rule)


def test_compose_voter_permutation_examples():
    d0 = dictator(2, 3, 0)
    assert compose_voter_permutation(d0, VoterPermutation((0, 1))) == d0
    swap = VoterPermutation((1, 0))
    assert compose_voter_permutation(d0, swap) == dictator(2, 3, 1)
    assert compose_voter_permutation(compose_voter_permutation(d0, swap), swap) == d0


def test_compose_permutation_relabels_dictators():
    for i, perm in itertools.product(range(3), all_voter_permutations(3)):
        assert compose_voter_permutation(dictator(3, 3, i), perm) == dictator(
            3, 3, perm.mapping[i]
        )


def test_compose_collapse():
    for seed in range(5):
        rule = random_pareto_rule(2, 3, seed)
        for k in range(2):
            assert compose_collapse(rule, k) == dictator(2, 3, k)
    const = constant_rule(2, 3, ORDERS3[4])
    assert compose_collapse(const, 1) == const
    assert compose_collapse(dictator(3, 3, 1), 2) == dictator(3, 3, 2)
    with pytest.raises(ValueError):
        compose_collapse(const, 2)


def test_cylinder_extend_of_dictator():
    assert cylinder_extend(dictator(1, 3, 0)) == dictator(2, 3, 0)


def test_cylinder_extend_table_ignores_last_voter():
    g = pairwise_majority_rule(2, 3)
    f = cylinder_extend(g)
    assert len(f.table) == 216
    for k in range(216):
        assert f.table[k] == g.table[k // 6]


def test_cylinder_preserves_predicates_exactly():
    cases = [
        dictator(2, 3, 0),  # Pareto, IIA
        ref.borda_rule(2, 3),  # Pareto, not IIA
        pairwise_majority_rule(2, 3),  # Pareto, not IIA
        constant_rule(2, 3, ORDERS3[0]),  # not Pareto, IIA
    ]
    for g in cases:
        f = cylinder_extend(g)
        assert is_pareto(f) == is_pareto(g)
        assert is_iia(f) == is_iia(g)


def test_cylinder_of_non_dictator_is_not_dictatorial():
    g = pairwise_majority_rule(2, 3)
    assert is_dictatorship(g) is None
    assert is_dictatorship(cylinder_extend(g)) is None


def test_majority_rule_is_voter_symmetric():
    rule = pairwise_majority_rule(2, 3)
    for perm in all_voter_permutations(2):
        assert compose_voter_permutation(rule, perm) == rule


def test_majority_voter_tiebreak_two_voters_copies_that_voter():
    assert pairwise_majority_rule(2, 3, tiebreak_voter=0) == dictator(2, 3, 0)


def test_majority_refuses_a_bad_tiebreak():
    with pytest.raises(ValueError, match="^choose either a tiebreak order or a tiebreak voter, not both$"):
        pairwise_majority_rule(2, 3, tiebreak_order=ORDERS3[0], tiebreak_voter=0)
    with pytest.raises(ValueError, match="^tiebreak voter 2 out of range for n=2$"):
        pairwise_majority_rule(2, 3, tiebreak_voter=2)


def test_random_pareto_rule_deterministic_in_seed():
    assert random_pareto_rule(2, 3, 7) == random_pareto_rule(2, 3, 7)
    assert random_pareto_rule(2, 3, 7) != random_pareto_rule(2, 3, 8)


def test_random_pareto_rule_thousand_seeds_all_pareto():
    assert all(is_pareto(random_pareto_rule(2, 3, seed)) for seed in range(1000))


@settings(max_examples=30)
@given(st.integers(0, 10_000))
def test_random_pareto_rule_always_pareto(seed):
    assert is_pareto(random_pareto_rule(2, 3, seed))


def test_draws_at_one_scale_build_the_unanimity_patterns_once(monkeypatch):
    """The patterns and the per-pattern draw table are one table built once
    per scale: a second draw, and majority's cyclic fallback, reuse it, so only
    majority's own tournament adds a pass over the signature columns."""
    calls = []
    codes = rules_module.signature_codes
    monkeypatch.setattr(rules_module, "signature_codes", lambda n, m, share: calls.append((n, m)) or codes(n, m, share))
    rules_module._pareto_draws.cache_clear()
    first, second = random_pareto_rule(3, 3, 1), random_pareto_rule(3, 3, 2)
    assert calls == [(3, 3)]
    assert is_pareto(first) and is_pareto(second) and first != second
    majority = pairwise_majority_rule(3, 3)
    assert calls == [(3, 3)] * 2
    assert is_pareto(majority) and majority == ref.pairwise_majority_rule(3, 3)


def test_rule_file_round_trip(tmp_path):
    rule = random_pareto_rule(2, 3, 3)
    path = tmp_path / "rule.json"
    save_rule(rule, path)
    assert load_rule(path) == rule
    text = path.read_text()
    assert '"format_version": 1' in text


@pytest.mark.parametrize("n, m", [(1, 3), (3, 4), (4, 4)])
def test_saved_rule_file_is_the_canonical_json(tmp_path, n, m):
    rule = random_pareto_rule(n, m, 0)
    path = tmp_path / "rule.json"
    save_rule(rule, path)
    record = {"format_version": 1, "n": n, "m": m, "table": list(rule.table)}
    assert path.read_text() == json.dumps(record, sort_keys=True, indent=2) + "\n"


def test_load_rule_rejects_boolean_entries(tmp_path):
    """``bytes`` would read ``true`` as 1, so the loader checks entry types."""
    path = tmp_path / "rule.json"
    record = {"format_version": 1, "n": 1, "m": 3, "table": [0, 1, 2, 3, 4, True]}
    path.write_text(json.dumps(record))
    with pytest.raises(ValueError, match="not a list of integers"):
        load_rule(path)


NOT_INTEGERS = "^rule field 'table' is missing or not a list of integers$"


@pytest.mark.parametrize(
    "entry, message",
    [
        ("true", NOT_INTEGERS),
        ("false", NOT_INTEGERS),
        ("1.5", NOT_INTEGERS),
        ('"3"', NOT_INTEGERS),
        ("null", NOT_INTEGERS),
        ("[1]", NOT_INTEGERS),
        ("256", "^table entry 256 out of range for m=3$"),
        ("-1", "^table entry -1 out of range for m=3$"),
        ("6", "^table entry 6 out of range for m=3$"),
    ],
)
def test_load_rule_names_a_bad_entry_in_one_line(tmp_path, entry, message):
    """Whether the entries are checked in one ``bytes`` pass or one by one,
    each bad entry keeps its message."""
    path = tmp_path / "rule.json"
    path.write_text(f'{{"format_version": 1, "n": 1, "m": 3, "table": [0, 1, {entry}, 3, 4, 5]}}')
    with pytest.raises(ValueError, match=message):
        load_rule(path)


def test_load_rule_reads_the_word_true_outside_the_table(tmp_path):
    """A ``true`` anywhere in the file sends the table to the per-entry
    type check, which a valid table passes."""
    rule = random_pareto_rule(2, 3, 4)
    path = tmp_path / "rule.json"
    record = {"format_version": 1, "n": 2, "m": 3, "note": "true", "table": list(rule.table)}
    path.write_text(json.dumps(record))
    assert load_rule(path) == rule


def test_load_rule_rejects_unknown_version(tmp_path):
    path = tmp_path / "rule.json"
    path.write_text('{"format_version": 99, "n": 1, "m": 3, "table": [0, 1, 2, 3, 4, 5]}')
    with pytest.raises(ValueError):
        load_rule(path)


def test_table_digest_is_stable():
    d = table_digest(dictator(2, 3, 0))
    assert d == table_digest(dictator(2, 3, 0))
    assert d != table_digest(dictator(2, 3, 1))
    assert len(d) == 64 and set(d) <= set("0123456789abcdef")


def test_table_digest_pinned_literal():
    assert (
        table_digest(dictator(2, 3, 0))
        == "6a1e7a4e09c20b94f704664cc8f041750c6638c001b0bf1f02724874d55ce8cd"
    )


def _independent_digest(rule):
    payload = f"{rule.n}:{rule.m}:" + ",".join(map(str, rule.table))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def test_table_digest_equals_independent_sha256():
    """The built-in hash the digest uses agrees with ``hashlib.sha256`` on a
    seeded rule at each of the six desk scales."""
    scales = [(n, m) for m in (3, 4) for n in (2, 3, 4)]
    rules = [random_pareto_rule(n, m, seed) for seed, (n, m) in enumerate(scales)]
    rules.append(cylinder_extend(random_pareto_rule(3, 4, 3)))
    assert rules[-1].n == 4
    for rule in rules:
        assert table_digest(rule) == _independent_digest(rule) == rule.digest


def test_cached_digest_takes_no_part_in_eq_hash_repr():
    rule = random_pareto_rule(2, 3, 5)
    fresh = VotingRule(rule.n, rule.m, rule.table)
    assert table_digest(rule) == _independent_digest(rule)
    assert "digest" in vars(rule) and "digest" not in vars(fresh)
    assert rule == fresh and hash(rule) == hash(fresh) and repr(rule) == repr(fresh)
    assert "digest" not in repr(rule)


def test_pickled_rule_keeps_equality_and_digest():
    for rule in (random_pareto_rule(3, 3, 1), random_pareto_rule(3, 3, 2)):
        expected = _independent_digest(rule)
        before = pickle.loads(pickle.dumps(rule))
        table_digest(rule)
        after = pickle.loads(pickle.dumps(rule))
        for copy in (before, after):
            assert copy == rule and hash(copy) == hash(rule)
            assert table_digest(copy) == expected


def test_scale_override_allows_larger_tables(monkeypatch):
    monkeypatch.setenv("ARROWLAB_SCALE_OVERRIDE", "1")
    rule = dictator(5, 2, 4)
    assert rule.n == 5


def test_digest_at_five_candidates_writes_three_digit_entries(monkeypatch):
    """5! = 120 rankings: entries above 99 take a third digit place."""
    monkeypatch.setenv("ARROWLAB_SCALE_OVERRIDE", "1")
    rule = dictator(2, 5, 1)
    assert max(rule.table) == 119
    assert table_digest(rule) == _independent_digest(rule)


# Digests of the rule builders at the two scales whose codes are wider than a
# byte somewhere: majority's tournament at m = 5 (ten pairs), the draw's
# unanimity pattern at m = 4 and m = 5 (12 and 20 bits).  The package builds
# no Borda rule; the tests that need one take ``fraction_kernels.borda_rule``.
BUILDER_DIGESTS = {
    (4, 4): {
        "majority": (
            "0d0780d291238c06a47ae3d0966ff0293abfd1c7246788035be09ddc8af4d383",
            "86eb682940a99d739909063f096c9a35ada53168733f1277f0b316e316cdbbee",
            "99e7d3c6ee6b0fb60fffa1461f2cda9c47cb7eaf90d28bbd6a7b64e2f3c093da",
            "4a0f961a3633073a10fe1ca4821cef0e0d93574b2f4ec95ad638fae6b7a7b4bb",
            "d71acbe86e9f73de95146b866576385c68d15ae93eee99ef8ccd35ef9695393b",
            "c4513b91f1e4e63a1734cc329ba936430a3e2736c95b28039783205caa6dbc6d",
        ),
        "draw": (
            "92b0634e59248febbf010942c74954d541c7d8ea97d472d08bd58aa845dda168",
            "9e9518c993b0ec6bda6236a5bdb25c1d095efd9414e988c4ab73bc2913105847",
            "186ed6eaf756d49c6bae896f4036bc431ac8c6c14eb76db2a980b6309679b3aa",
        ),
    },
    (2, 5): {
        "majority": (
            "a12632e0baec00db9f10c0942d5b3ecca1aab556019480db028e49ac597f2731",
            "98aec9eed21d366373b8364dbc9301c7130b64b427523ed8fe192cfb25a7e551",
            "16f9844120844bc4200f17a4c916b95a88db70694168cd046049b029a4fcdaa7",
            "fdd250e19eb225c4d74da490fc413ccc166b9bd55011f6d74e05041a6cfde3fc",
        ),
        "draw": (
            "6a05f88f866bad170d1c381f96fc4b18515386aa307c32cde870263bb60121c7",
            "12c5c5e52fe5b98bb0515c14185f9310c9b03bc6446d9c7588efd4bcb9be4b08",
            "94cfd7b436e81b0102e816e5a5db0f7b2754e8dea27ea6b7fdea1f11e9424d15",
        ),
    },
}


@pytest.mark.parametrize("n, m", sorted(BUILDER_DIGESTS))
def test_rule_builders_keep_their_pinned_digests(n, m, monkeypatch):
    """Majority under the first and the last ranking and every tie-break
    voter, and the draw for seeds 0-2."""
    monkeypatch.setenv("ARROWLAB_SCALE_OVERRIDE", "1")
    last = enumerate_orders(m)[-1]
    variants = [{}, {"tiebreak_order": last}] + [{"tiebreak_voter": v} for v in range(n)]
    digests = {
        "majority": tuple(pairwise_majority_rule(n, m, **kw).digest for kw in variants),
        "draw": tuple(random_pareto_rule(n, m, seed).digest for seed in range(3)),
    }
    assert digests == BUILDER_DIGESTS[n, m]
