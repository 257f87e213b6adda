from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from commonslint.errors import ExpansionError
from commonslint.expansion import expand_dynamic, expand_file, parse_axis
from commonslint.metadata import MeasureEntry, parse_measure_info


def dynamic(measure_id: str, **data) -> MeasureEntry:
    return MeasureEntry(measure_id=measure_id, data=data)


def test_concrete_entry_passes_through():
    entry = dynamic("plain", unit="household")
    assert expand_dynamic(entry) == [entry]


def test_cartesian_expansion_and_axis_removal():
    entry = dynamic(
        "biz_{category}_{variant}",
        short_name="{variant} for {category}",
        categories=["naics72", "naics44"],
        variants=["entry_rate", "exit_rate", "churn"],
    )
    expanded = expand_dynamic(entry)
    assert len(expanded) == 6
    ids = [e.measure_id for e in expanded]
    assert len(set(ids)) == 6
    assert "biz_naics72_entry_rate" in ids
    first = expanded[0]
    assert first.data["short_name"] == "entry_rate for naics72"
    assert "categories" not in first.data and "variants" not in first.data


def test_single_axis_expansion():
    entry = dynamic("m_{variant}", variants=["mean", "median"])
    assert [e.measure_id for e in expand_dynamic(entry)] == ["m_mean", "m_median"]


def test_overrides_applied_after_substitution():
    entry = dynamic(
        "biz_{category}_{variant}",
        short_name="{variant} of {category}",
        categories={"naics72": {"short_name": "Accommodation & food: {variant}"}},
        variants=["entry_rate"],
    )
    (expanded,) = expand_dynamic(entry)
    # The override text itself is substituted too.
    assert expanded.data["short_name"] == "Accommodation & food: entry_rate"


def test_override_with_null_means_no_overrides():
    entry = dynamic(
        "m_{category}", long_name="Name {category}", categories={"a": None, "b": {"long_name": "B!"}}
    )
    by_id = {e.measure_id: e for e in expand_dynamic(entry)}
    assert by_id["m_a"].data["long_name"] == "Name a"
    assert by_id["m_b"].data["long_name"] == "B!"


def test_substitution_reaches_nested_values():
    entry = dynamic(
        "m_{category}",
        sources=[{"name": "Survey of {category}"}],
        layer={"source": "https://example.org/{category}.geojson"},
        categories=["broadband"],
    )
    (expanded,) = expand_dynamic(entry)
    assert expanded.data["sources"][0]["name"] == "Survey of broadband"
    assert expanded.data["layer"]["source"] == "https://example.org/broadband.geojson"


def test_id_template_must_mention_each_nonempty_axis():
    entry = dynamic("fixed_id", categories=["a", "b"])
    with pytest.raises(ExpansionError, match="lacks"):
        expand_dynamic(entry)


def test_residual_placeholder_is_an_error():
    # {variant} appears in a field but the variants axis is empty.
    entry = dynamic("m_{category}", short_name="{variant} thing", categories=["a"])
    with pytest.raises(ExpansionError, match="unsubstituted placeholder"):
        expand_dynamic(entry)


def test_duplicate_axis_token_rejected():
    with pytest.raises(ExpansionError, match="duplicate"):
        parse_axis(["a", "a"], "categories")


@pytest.mark.parametrize("raw", ["not-a-list", 5, [1, 2]])
def test_axis_shape_errors(raw):
    with pytest.raises(ExpansionError):
        parse_axis(raw, "variants")


def _nested(depth: int) -> list:
    item: list = []
    for _ in range(depth):
        item = [item]
    return item


@pytest.mark.parametrize(
    "raw",
    [
        ["a", _nested(950)],
        ["a", list(range(5000))],
        {"a": list(range(5000))},
        {"y" * 5000: 1},
        ["z" * 5000, "z" * 5000],
    ],
    ids=["deep item", "long item", "long overrides", "long token", "long duplicate"],
)
def test_axis_errors_echo_a_capped_value(raw):
    with pytest.raises(ExpansionError) as excinfo:
        parse_axis(raw, "categories")
    message = str(excinfo.value)
    assert message.startswith(("categories", "duplicate categories"))
    assert len(message) < 200


def test_entry_too_deep_to_walk_is_an_expansion_error():
    entry = MeasureEntry("m_{category}", {"categories": ["a"], "statement": _nested(5000)})
    with pytest.raises(ExpansionError) as excinfo:
        expand_dynamic(entry)
    assert str(excinfo.value) == "dynamic entry 'm_{category}' nested too deeply"


def test_axis_errors_echo_a_short_value_whole():
    with pytest.raises(ExpansionError) as excinfo:
        parse_axis({"a": ["b", 1]}, "variants")
    assert str(excinfo.value) == "variants['a'] overrides must be an object, got ['b', 1]"


def test_parse_axis_empty_forms():
    assert parse_axis(None, "categories") == []
    assert parse_axis([], "categories") == []
    assert parse_axis({}, "categories") == []


def test_expand_file_replaces_in_place_and_keeps_references():
    mi = parse_measure_info(
        json.dumps(
            {
                "first": {"unit": "household"},
                "dyn_{variant}": {"variants": ["a", "b"]},
                "last": {"unit": "person"},
                "_references": {"r1": {"title": "T"}},
            }
        )
    )
    expanded = expand_file(mi)
    assert list(expanded.entries) == ["first", "dyn_a", "dyn_b", "last"]
    assert expanded.references.keys() == {"r1"}


def test_expand_file_detects_cross_entry_collision():
    mi = parse_measure_info(
        json.dumps({"m_x": {"unit": "u"}, "m_{category}": {"categories": ["x"]}})
    )
    with pytest.raises(ExpansionError, match="collides"):
        expand_file(mi)


_tokens = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=6), unique=True, min_size=0, max_size=6
)


@given(_tokens, _tokens)
def test_cardinality_and_uniqueness_property(categories, variants):
    measure_id = "m"
    if categories:
        measure_id += "_{category}"
    if variants:
        measure_id += "_{variant}"
    data = {}
    if categories:
        data["categories"] = categories
    if variants:
        data["variants"] = variants
    expanded = expand_dynamic(MeasureEntry(measure_id=measure_id, data=data))
    expected = max(1, len(categories)) * max(1, len(variants))
    assert len(expanded) == expected
    assert len({e.measure_id for e in expanded}) == expected
    for entry in expanded:
        assert "{category}" not in entry.measure_id
        assert "{variant}" not in entry.measure_id
