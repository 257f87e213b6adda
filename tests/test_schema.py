from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from commonslint.config import RepoConfig, default_config, parse_config
from commonslint.metadata import MeasureEntry
from commonslint.scanner import scan_repo
from commonslint.schema import (
    CORE_ELEMENTS,
    VOCABULARY_ELEMENTS,
    check_char_limits,
    is_blank,
)
from repo_fixtures import clean_entry, reports_for, write_info


def entry(measure_id="m", **data) -> MeasureEntry:
    return MeasureEntry(measure_id=measure_id, data=data)


def test_core_elements_fixed():
    assert len(CORE_ELEMENTS) == 16
    assert "categories" in CORE_ELEMENTS and "variants" in CORE_ELEMENTS


def test_default_config_loads_packaged_vocabularies():
    vocabularies = default_config().vocabularies
    # Only the elements a check reads have a vocabulary.
    assert set(vocabularies) == set(VOCABULARY_ELEMENTS)
    # The shipped terms, pinned: a change to data/vocabularies.json changes T4 and T9.
    assert vocabularies == {
        "measure_type": frozenset({"percent", "count", "decimal"}),
        "region_type": frozenset({"county", "tract", "block group"}),
    }


def test_default_configs_do_not_share_their_vocabularies():
    one, two = default_config(), RepoConfig()
    assert one.vocabularies == two.vocabularies
    one.vocabularies["measure_type"] = frozenset({"other"})
    assert two.vocabularies["measure_type"] == frozenset({"percent", "count", "decimal"})
    assert default_config().vocabularies == two.vocabularies


def test_expected_keys_exclude_dynamic_axes_by_default():
    config = RepoConfig()
    assert "categories" not in config.expected_keys
    assert "variants" not in config.expected_keys
    assert "categories" in config.allowed_keys


def key_partition(tmp_path, data: dict, config=None) -> dict[str, tuple[str, ...]]:
    """The disallowed (T3), absent and blank (T7) keys of one entry named ``m``."""
    config = config or default_config()
    write_info(tmp_path / "measure_info.json", {"m": data})
    t3, t7 = reports_for(scan_repo(tmp_path, config), config, "T3", "T7")
    partition = {"disallowed": (), "absent": (), "blank": ()}
    for item in (*t3.items, *t7.items):
        assert item.key == "m"
        for problem in filter(None, (item.detail or "").split("; ")):
            label, keys = problem.split(": ", 1)
            label = "disallowed" if label == "keys outside the allowable list" else label
            partition[label] = tuple(keys.split(", "))
    return partition


def test_validate_entry_keys_partitions_totally(tmp_path):
    complete = key_partition(tmp_path, clean_entry("m"))
    assert complete == {"disallowed": (), "absent": (), "blank": ()}

    odd = key_partition(tmp_path, {"short_name": "", "colour_scheme": "viridis"})
    assert odd["disallowed"] == ("colour_scheme",)
    assert "short_name" in odd["blank"]
    assert "unit" in odd["absent"]


def test_absent_and_blank_are_distinct(tmp_path):
    absent = key_partition(tmp_path, {})
    assert "unit" in absent["absent"] and "unit" not in absent["blank"]
    blank = key_partition(tmp_path, {"unit": ""})
    assert "unit" in blank["blank"] and "unit" not in blank["absent"]


@pytest.mark.parametrize("value", [None, "", [], {}])
def test_is_blank_forms(value):
    assert is_blank(value)


@pytest.mark.parametrize("value", [0, False, "x", [0], {"a": 1}])
def test_is_blank_rejects_substantive_values(value):
    assert not is_blank(value)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(["", " ", "0", "x"]),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


@settings(max_examples=80, deadline=None)
@given(_JSON_VALUES)
@example(0)
@example(0.0)
@example(-0.0)
@example(False)
@example(True)
@example("0")
@example(" ")
@example([[]])
@example({"": {}})
@example([None])
@example(float("nan"))
def test_is_blank_matches_the_equality_reference(value):
    assert is_blank(value) == (value is None or value == "" or value == [] or value == {})


def test_char_limits_inclusive_boundaries():
    at_limit = entry(
        long_name="x" * 55, short_name="y" * 40, short_description="z" * 100
    )
    assert check_char_limits(at_limit) == []

    over = entry(long_name="x" * 56)
    (violation,) = check_char_limits(over)
    assert (violation.field, violation.length, violation.limit) == ("long_name", 56, 55)


def test_char_limits_ignore_unlimited_and_non_string_fields():
    assert check_char_limits(entry(long_description="w" * 10_000)) == []
    assert check_char_limits(entry(long_name=123456)) == []


def test_parse_config_overrides_key_sets():
    config = parse_config({"schema": {"allowed_keys": ["short_name"], "expected_keys": ["unit"]}})
    assert config.allowed_keys == frozenset({"short_name"})
    assert config.expected_keys == frozenset({"unit"})
    # Unmentioned defaults retained.
    assert config.vocabularies == default_config().vocabularies
