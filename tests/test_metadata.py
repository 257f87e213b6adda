from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from commonslint.errors import DuplicateKeyError, ParseError
from commonslint.metadata import (
    MeasureEntry,
    MeasureInfoFile,
    SourceRef,
    parse_measure_info,
    serialize_measure_info,
)
from repo_fixtures import clean_entry


def test_parse_minimal_file():
    mi = parse_measure_info(json.dumps({"m1": {"short_name": "One"}}), path="x/measure_info.json")
    assert mi.path == "x/measure_info.json"
    assert list(mi.entries) == ["m1"]
    assert mi.entries["m1"].get("short_name") == "One"
    assert mi.references is None


def test_parse_accepts_bytes_and_text():
    raw = json.dumps({"m1": {}})
    assert parse_measure_info(raw.encode()).entries.keys() == parse_measure_info(raw).entries.keys()


def test_parse_preserves_unknown_keys():
    mi = parse_measure_info(json.dumps({"m1": {"colour_scheme": "viridis"}}))
    assert mi.entries["m1"].data["colour_scheme"] == "viridis"


def test_json_syntax_error_carries_location_and_stage():
    with pytest.raises(ParseError) as excinfo:
        parse_measure_info('{"m1": }', path="broken.json")
    err = excinfo.value
    assert err.stage == "json"
    assert err.line == 1
    assert err.offset is not None
    assert "broken.json" in str(err)


def test_invalid_utf8_is_a_parse_error():
    with pytest.raises(ParseError) as excinfo:
        parse_measure_info(b'\xff\xfe{"a": 1}')
    assert excinfo.value.stage == "json"


# Any bytes, or bytes behind a nesting prefix deep enough to exhaust the
# decoder's recursion limit.
_RAW = st.binary() | st.builds(
    lambda prefix, depth, tail: prefix * depth + tail,
    st.sampled_from([b"[", b'{"a":', b'{"m": {"sources": [']),
    st.integers(min_value=0, max_value=5_000),
    st.binary(max_size=16),
)


@settings(deadline=None)
@given(raw=_RAW)
@example(raw=b"[" * 5_000)
@example(raw=b'{"a":' * 5_000)
def test_parse_measure_info_returns_a_file_or_raises_parse_error(raw):
    try:
        info = parse_measure_info(raw)
    except ParseError:
        return
    assert isinstance(info, MeasureInfoFile)


@pytest.mark.parametrize(
    "document",
    ["[1, 2]", '{"m1": "not an object"}', '{"_references": 5}'],
)
def test_structural_failures_use_structure_stage(document):
    with pytest.raises(ParseError) as excinfo:
        parse_measure_info(document)
    assert excinfo.value.stage == "structure"


def test_duplicate_measure_id_rejected():
    with pytest.raises(DuplicateKeyError) as excinfo:
        parse_measure_info('{"m1": {}, "m1": {}}')
    assert excinfo.value.key == "m1"
    assert excinfo.value.stage == "structure"


def test_duplicate_nested_key_rejected():
    with pytest.raises(DuplicateKeyError):
        parse_measure_info('{"m1": {"unit": "a", "unit": "b"}}')


def test_references_block_is_not_an_entry():
    mi = parse_measure_info(
        json.dumps({"m1": {}, "_references": {"lou04": {"title": "T"}}})
    )
    assert list(mi.entries) == ["m1"]
    assert mi.reference_ids() == frozenset({"lou04"})
    assert mi.references["lou04"].fields["title"] == "T"


def test_citations_normalizes_single_string():
    entry = MeasureEntry(measure_id="m", data={"citations": "lou04"})
    assert entry.citations == ["lou04"]
    entry2 = MeasureEntry(measure_id="m", data={"citations": ["a", "b"]})
    assert entry2.citations == ["a", "b"]
    assert MeasureEntry(measure_id="m", data={}).citations == []


def test_sources_normalizes_single_object_and_splits_extras():
    entry = MeasureEntry(
        measure_id="m",
        data={
            "sources": {
                "name": "ACS",
                "url": "https://example.org",
                "location": "Table B28001",
                "date_accessed": "2022",
                "publisher": "Census",
            }
        },
    )
    # Keys outside the four known ones are left in the raw data only.
    assert entry.sources == [
        SourceRef(
            name="ACS", url="https://example.org", location="Table B28001", date_accessed="2022"
        )
    ]


def test_serialize_round_trip_structural_equality():
    original = {
        "zeta": clean_entry("zeta"),
        "alpha": clean_entry("alpha", measure_type="count"),
        "_references": {"lou04": {"title": "T", "year": 2004}},
    }
    mi = parse_measure_info(json.dumps(original))
    text = serialize_measure_info(mi)
    again = parse_measure_info(text)
    assert again.entries.keys() == mi.entries.keys()
    for key in mi.entries:
        assert again.entries[key].data == mi.entries[key].data
    assert again.references.keys() == mi.references.keys()
    # Serialization conventions: sorted keys, two-space indent, newline EOF.
    assert text.endswith("\n")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def test_serialize_omits_absent_references():
    mi = parse_measure_info(json.dumps({"m1": {}}))
    assert "_references" not in json.loads(serialize_measure_info(mi))
