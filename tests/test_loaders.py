"""The three file loaders (rule, distribution, metric fixture) share one
reader: a malformed file of any shape raises ``ValueError`` and nothing
else, so the command line can turn it into exit code 2 and one line."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowlab.measures import load_distribution
from arrowlab.quotient import load_fixture
from arrowlab.rules import load_rule

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
