from __future__ import annotations

import pytest

from commonslint.config import RepoConfig, default_config, parse_config
from commonslint.metadata import MeasureEntry
from commonslint.schema import (
    CORE_ELEMENTS,
    VOCABULARY_ELEMENTS,
    check_char_limits,
    is_blank,
    validate_entry_keys,
)
from repo_fixtures import clean_entry


def entry(measure_id="m", **data) -> MeasureEntry:
    return MeasureEntry(measure_id=measure_id, data=data)


def test_core_elements_fixed():
    assert len(CORE_ELEMENTS) == 16
    assert "categories" in CORE_ELEMENTS and "variants" in CORE_ELEMENTS


def test_default_config_loads_packaged_vocabularies():
    vocabularies = default_config().vocabularies
    # Only the elements a check reads have a vocabulary.
    assert set(vocabularies) == set(VOCABULARY_ELEMENTS)
    assert "percent" in vocabularies["measure_type"]
    assert "county" in vocabularies["region_type"]


def test_expected_keys_exclude_dynamic_axes_by_default():
    config = RepoConfig()
    assert "categories" not in config.expected_keys
    assert "variants" not in config.expected_keys
    assert "categories" in config.allowed_keys


def test_validate_entry_keys_partitions_totally():
    config = default_config()
    complete = MeasureEntry(measure_id="m", data=clean_entry("m"))
    report = validate_entry_keys(complete, config)
    assert report.disallowed == report.absent == report.blank == ()

    odd = entry(short_name="", colour_scheme="viridis")
    report = validate_entry_keys(odd, config)
    assert report.disallowed == ("colour_scheme",)
    assert "short_name" in report.blank
    assert "unit" in report.absent


def test_absent_and_blank_are_distinct():
    config = default_config()
    absent = validate_entry_keys(entry(), config)
    assert "unit" in absent.absent and "unit" not in absent.blank
    blank = validate_entry_keys(entry(unit=""), config)
    assert "unit" in blank.blank and "unit" not in blank.absent


@pytest.mark.parametrize("value", [None, "", [], {}])
def test_is_blank_forms(value):
    assert is_blank(value)


@pytest.mark.parametrize("value", [0, False, "x", [0], {"a": 1}])
def test_is_blank_rejects_substantive_values(value):
    assert not is_blank(value)


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
    report = validate_entry_keys(entry(short_name="s", long_name="l"), config)
    assert (report.disallowed, report.absent) == (("long_name",), ("unit",))
