"""The three file loaders (rule, distribution, metric fixture) share one
reader: a malformed file of any shape raises ``ValueError`` and nothing
else, so the command line can turn it into exit code 2 and one line."""

import io
import json
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_kernels as ref
from arrowlab import rules as rules_module
from arrowlab.measures import load_distribution
from arrowlab.quotient import load_fixture
from arrowlab.rules import VotingRule, dictator, load_rule, random_pareto_rule, save_rule

# A well-formed record for each loader, keyed by the file kind in its messages.
VALID = {
    "rule": (load_rule, {"format_version": 1, "n": 1, "m": 3, "table": [0, 1, 2, 3, 4, 5]}),
    "distribution": (
        load_distribution,
        {"format_version": 1, "n": 1, "m": 3, "weights": ["1/6"] * 6},
    ),
    "fixture": (
        load_fixture,
        {"format_version": 1, "points": 3, "dist": ["1/2", "1", "1/2"], "classes": [0, 1, 1]},
    ),
}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

small_values = st.integers(-2, 7) | st.lists(st.integers(-2, 7), max_size=8)


@pytest.mark.parametrize("kind", sorted(VALID))
def test_well_formed_records_load(kind, tmp_path):
    loader, record = VALID[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(record))
    loader(path)


@pytest.mark.parametrize("kind", sorted(VALID))
def test_deep_nesting_is_a_value_error(kind, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    with pytest.raises(ValueError, match=f"^{kind} file nests too deeply to parse$"):
        VALID[kind][0](path)


@pytest.mark.parametrize("kind", sorted(VALID))
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arbitrary_fields_load_or_raise_value_error(kind, data):
    loader, record = VALID[kind]
    record = dict(record)
    keys = data.draw(st.lists(st.sampled_from(sorted(record)), min_size=1, max_size=2, unique=True))
    for key in keys:
        how = data.draw(st.sampled_from(["drop", "value", "small", "entry"]), label=key)
        if how == "drop":
            del record[key]
        elif how == "entry" and isinstance(record[key], list):
            # One entry of a well-formed list becomes arbitrary JSON.
            i = data.draw(st.integers(0, len(record[key]) - 1), label=f"{key} entry")
            record[key] = [*record[key][:i], data.draw(json_values), *record[key][i + 1 :]]
        else:
            record[key] = data.draw(json_values if how == "value" else small_values, label=key)
    if data.draw(st.integers(0, 7), label="replace the whole record") == 0:
        record = data.draw(json_values, label="record")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "record.json"
        path.write_text(json.dumps(record))
        try:
            loader(path)
        except ValueError:
            pass


# The rule reader reads the table a block at a time from the file's bytes
# and parses the whole text only where it cannot show the result would be the
# same; ``fraction_kernels.load_rule`` is the whole-text reader alone.
RULE = random_pareto_rule(2, 3, 11)
RECORD = {"format_version": 1, "n": 2, "m": 3, "table": list(RULE.table)}
# Entries of one digit at (2,3), of one and two at (2,4).
WIDE_RULE = random_pareto_rule(2, 4, 11)


def _layout(name: str, path: Path, rule: VotingRule = RULE) -> str:
    record = {"format_version": 1, "n": rule.n, "m": rule.m, "table": list(rule.table)}
    if name == "save_rule":
        save_rule(rule, path)
        return path.read_text()
    if name == "bench":  # as the benchmark writes its input rules
        return json.dumps(record, sort_keys=True) + "\n"
    if name == "compact":
        return json.dumps(record, separators=(",", ":"))
    return json.dumps(dict(reversed(record.items())), indent="\t")


LAYOUTS = ["save_rule", "bench", "compact", "table-first"]
# Read sizes down to a byte, the reader's own, and one twice as large.
BLOCKS = [1, 2, 3, 5, 8, 64, rules_module._BODY_BLOCK, 1 << 16]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("block", BLOCKS)
def test_rule_file_layouts_read_by_blocks(layout, block, tmp_path, monkeypatch):
    """Every layout of a valid file is read by blocks, to the same rule."""
    monkeypatch.setattr(rules_module, "_BODY_BLOCK", block)
    path = tmp_path / "rule.json"
    path.write_text(_layout(layout, path))
    record, table = rules_module._read_rule_blocks(io.BytesIO(path.read_bytes()))
    assert bytes(table) == RULE.table and record == {**RECORD, "table": []}
    assert load_rule(path) == RULE == ref.load_rule(path)


def test_rule_read_is_linear_in_the_file(monkeypatch, tmp_path):
    """A MiB of note before ``"table"``, and two MiB of space after the first
    entry, read by 256-byte blocks in well under the bound: a read that
    searches again what it has searched, or joins again what it has joined,
    takes seconds on either, one that searches each byte once milliseconds.
    The block read refuses the space before a comma, and ``load_rule`` then
    parses the whole text, within the same bound."""
    monkeypatch.setattr(rules_module, "_BODY_BLOCK", 256)
    first, *rest = RULE.table
    note = json.dumps({**RECORD, "note": "x" * (1 << 20)}, sort_keys=True)
    started = time.perf_counter()
    record, table = rules_module._read_rule_blocks(io.BytesIO(note.encode("ascii")))
    assert time.perf_counter() - started < 0.25, "note"
    assert table == RULE.table and record["table"] == []
    space = '{"format_version": 1, "m": 3, "n": 2, "table": [%d%s, %s]}' % (
        first, " " * (2 << 20), ", ".join(map(str, rest))
    )
    path = tmp_path / "rule.json"
    path.write_text(space)
    started = time.perf_counter()
    assert rules_module._read_rule_blocks(io.BytesIO(space.encode("ascii"))) is None
    assert load_rule(path) == RULE
    assert time.perf_counter() - started < 0.25, "space"


def _json_texts(monkeypatch) -> list[str]:
    """Every text ``json.loads`` parses from here on."""
    texts, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: texts.append(text) or loads(text, **kw))
    return texts


@pytest.mark.parametrize("layout", ("save_rule", "bench"))
@pytest.mark.parametrize("n, m", [(n, m) for m in (3, 4) for n in (1, 2, 3, 4)])
def test_rule_body_is_decoded_without_json(layout, n, m, tmp_path, monkeypatch):
    """At every desk scale, the table body of a file in either layout is
    decoded whole-piece: ``json.loads`` parses only the record around it."""
    rule = random_pareto_rule(n, m, 5)
    path = tmp_path / "rule.json"
    path.write_text(_layout(layout, path, rule))
    texts = _json_texts(monkeypatch)
    assert load_rule(path) == rule
    assert len(texts) == 1 and texts[0].startswith("{")


def test_three_digit_rule_body_takes_json(tmp_path, monkeypatch):
    """At m = 5, entries above 99 are past the decode: the block read refuses
    the file, and ``json.loads`` parses one text, the whole file, to the
    whole-text reader's rule."""
    monkeypatch.setenv("ARROWLAB_SCALE_OVERRIDE", "1")
    rule = dictator(2, 5, 1)
    path = tmp_path / "rule.json"
    save_rule(rule, path)
    assert rules_module._read_rule_blocks(io.BytesIO(path.read_bytes())) is None
    texts = _json_texts(monkeypatch)
    loaded = load_rule(path)
    assert texts == [path.read_text()]
    assert loaded == rule == ref.load_rule(path)


# Texts put in place of one table entry: bad values, JSON that is no
# integer, entries of one, two and three digits, leading zeros, two entries
# without a comma, an empty element, and whitespace JSON does and does not
# allow.
ENTRY_TEXTS = [
    "true", "false", "null", "-1", "-0", "1.5", "1e0", "256", "6", "01", "00", "1 2", "",
    '"3"', "[1]", "{}", " 4 ", "\t5\n", "\r\n2", "\f1", "\v3", " 2", "7" * 5000,
    "10", "23", "99", "100", "119", "255", "05", "1 7",
]
SEPARATORS = [",", ", ", ",\n    ", " ,\t", "\r\n,\r\n"]


def _mutate_body(data, body: str) -> str:
    entries = body.split(",")
    for _ in range(data.draw(st.integers(0, 2), label="entry changes")):
        i = data.draw(st.integers(0, len(entries) - 1), label="entry")
        entries[i] = data.draw(st.sampled_from(ENTRY_TEXTS), label="entry text")
    separator = data.draw(st.sampled_from([None, *SEPARATORS]), label="separator")
    body = ",".join(entries) if separator is None else separator.join(map(str.strip, entries))
    ends = data.draw(st.sampled_from(["", "trailing", "leading", "empty"]), label="ends")
    return {"": body, "trailing": body + ",", "leading": "," + body, "empty": " "}[ends]


def _record_change(text: str, change: str) -> str:
    opened = text.index("{") + 1
    if change == "escaped key":
        return text.replace('"table"', '"t\\u0061ble"')
    if change == "renamed key":
        return text.replace('"table"', '"tables"')
    if change == "not a list":
        return re.sub(r"\[[^\]]*\]", "5", text, count=1)
    if change == "crlf":
        return text.replace("\n", "\r\n")
    if change == "n a string":
        return re.sub(r'"n":\s*2', '"n": "2"', text)
    if change == "m too large":
        return re.sub(r'"m":\s*(\d)', lambda m: f'"m": {int(m[1]) + 1}', text)
    if change == "version":
        return re.sub(r'"format_version":\s*1', '"format_version": 2', text)
    if change == "truncated":
        return text[: len(text) // 2]
    if change == "bom":
        return "\ufeff" + text
    if change == "only nested":
        return _record_change(_record_change(text, "renamed key"), "nested")
    if change == "duplicate after":
        return text.rsplit("}", 1)[0] + ', "table": [0]}'
    inserted = {
        "duplicate before": '"table": [0, 1], ',
        "nested": '"x": {"table": [1, 2]}, ',
        "quoted": '"note": "\\"table", ',
        "word": '"note": "table", ',
        "true": '"note": true, ',
        "non-ascii": '"note": "é", ',
    }[change]
    return text[:opened] + inserted + text[opened:]


RECORD_CHANGES = [
    "escaped key", "renamed key", "not a list", "crlf", "n a string", "m too large", "version",
    "truncated", "bom", "only nested", "duplicate after", "duplicate before", "nested", "quoted",
    "word", "true", "non-ascii",
]


def _outcome(loader, path):
    try:
        return loader(path)
    except ValueError as error:
        return type(error), str(error)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rule_reader_agrees_with_the_whole_text_reader(data):
    """For any mutated rule text, the block reader and the whole-text reader
    give an equal rule or a ``ValueError`` of the same type and message."""
    _agrees_with_the_whole_text_reader(data, RULE)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_two_digit_rule_reader_agrees_with_the_whole_text_reader(data):
    """The same at (2,4), whose entries of two digits take the whole-piece
    decode of ``_body_entries``."""
    _agrees_with_the_whole_text_reader(data, WIDE_RULE)


def _agrees_with_the_whole_text_reader(data, rule: VotingRule) -> None:
    block = data.draw(st.sampled_from(BLOCKS), label="block")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rule.json"
        text = _layout(data.draw(st.sampled_from(LAYOUTS), label="layout"), path, rule)
        start = text.index("[") + 1
        end = text.index("]", start)
        text = text[:start] + _mutate_body(data, text[start:end]) + text[end:]
        changes = data.draw(st.lists(st.sampled_from(RECORD_CHANGES), max_size=2), label="changes")
        for change in changes:
            text = _record_change(text, change)
        path.write_bytes(text.encode("utf-8"))
        saved, rules_module._BODY_BLOCK = rules_module._BODY_BLOCK, block
        try:
            assert _outcome(load_rule, path) == _outcome(ref.load_rule, path)
        finally:
            rules_module._BODY_BLOCK = saved
