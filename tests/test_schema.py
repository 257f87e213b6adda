from __future__ import annotations

import pytest

from commonslint.metadata import MeasureEntry
from commonslint.schema import (
    CORE_ELEMENTS,
    SchemaConfig,
    check_char_limits,
    customized_schema,
    default_schema,
    is_blank,
    validate_entry_keys,
)
from repo_fixtures import clean_entry


def entry(measure_id="m", **data) -> MeasureEntry:
    return MeasureEntry(measure_id=measure_id, data=data)


def test_core_elements_fixed():
    assert len(CORE_ELEMENTS) == 16
    assert "categories" in CORE_ELEMENTS and "variants" in CORE_ELEMENTS


def test_default_schema_loads_packaged_vocabularies():
    schema = default_schema()
    assert "percent" in schema.vocabulary("measure_type")
    assert "county" in schema.vocabulary("region_type")
    assert schema.vocabulary("no_such_element") == frozenset()


def test_expected_keys_exclude_dynamic_axes_by_default():
    schema = SchemaConfig()
    assert "categories" not in schema.expected_keys
    assert "variants" not in schema.expected_keys
    assert "categories" in schema.allowed_keys


def test_validate_entry_keys_partitions_totally():
    schema = default_schema()
    complete = MeasureEntry(measure_id="m", data=clean_entry("m"))
    report = validate_entry_keys(complete, schema)
    assert report.clean
    assert set(report.allowed_present) == set(clean_entry("m"))

    odd = entry(short_name="", colour_scheme="viridis")
    report = validate_entry_keys(odd, schema)
    assert report.disallowed == ("colour_scheme",)
    assert "short_name" in report.blank
    assert "unit" in report.absent
    assert not report.clean


def test_absent_and_blank_are_distinct():
    schema = default_schema()
    absent = validate_entry_keys(entry(), schema)
    assert "unit" in absent.absent and "unit" not in absent.blank
    blank = validate_entry_keys(entry(unit=""), schema)
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


def test_customized_schema_merges_vocabularies_per_element():
    base = default_schema()
    custom = customized_schema(base, vocabularies={"region_type": ["state"]})
    assert custom.vocabulary("region_type") == frozenset({"state"})
    # Untouched vocabularies survive.
    assert custom.vocabulary("measure_type") == base.vocabulary("measure_type")


def test_customized_schema_overrides_keys():
    custom = customized_schema(allowed_keys=["short_name"], expected_keys=["unit"])
    assert custom.allowed_keys == frozenset({"short_name"})
    assert custom.expected_keys == frozenset({"unit"})
    # Unmentioned defaults retained.
    assert custom.vocabularies == default_schema().vocabularies
