from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from commonslint.checks import CHECK_ORDER
from commonslint.config import (
    CheckSettings,
    RepoConfig,
    default_config,
    load_config,
    parse_config,
)
from commonslint.errors import ConfigError


def test_defaults():
    config = default_config()
    assert config.required_columns == ("geoid", "year", "measure", "value", "measure_type")
    assert config.known_measures is None
    assert config.filename_limit == 100
    assert config.fraction_min_rows == 3
    assert config.metadata_filename == "measure_info.json"
    assert config.enforcement("T2") == "enforced"
    assert config.enforcement("T10") == "warn"


def test_parse_config_none_is_defaults():
    assert parse_config(None).required_columns == default_config().required_columns


def test_parse_config_overrides():
    config = parse_config(
        {
            "known_measures": ["a", "b"],
            "metadata_filename": "measure_info*.json",
            "columns": {"required": ["geoid", "measure"], "optional": ["note"]},
            "naming": {"pattern": r"^[a-z]+\.csv$", "extensions": ["csv"]},
            "filename_limit": 64,
            "fraction_min_rows": 5,
            "ignore_dirs": [".git", "tmp"],
            "checks": {
                "T13": {"enforcement": "warn"},
                "T4": {"enforcement": "off", "exclude": ["legacy/*"]},
            },
        }
    )
    assert config.known_measures == frozenset({"a", "b"})
    assert config.metadata_filename == "measure_info*.json"
    assert config.required_columns == ("geoid", "measure")
    assert config.optional_columns == ("note",)
    assert config.naming_pattern == r"^[a-z]+\.csv$"
    assert config.allowed_extensions == frozenset({"csv"})
    assert config.filename_limit == 64
    assert config.fraction_min_rows == 5
    assert "tmp" in config.ignore_dirs
    assert config.enforcement("T13") == "warn"
    assert config.enforcement("T4") == "off"
    assert not config.check_settings("T4").applies_to("legacy/old.csv")
    assert config.check_settings("T4").applies_to("current/new.csv")


def test_parse_config_schema_section_merges_vocabulary():
    config = parse_config({"schema": {"vocabularies": {"region_type": ["state"]}}})
    assert config.schema.vocabulary("region_type") == frozenset({"state"})
    assert "percent" in config.schema.vocabulary("measure_type")


def test_parse_config_rejects_unknown_tier():
    with pytest.raises(ConfigError, match="enforcement"):
        parse_config({"checks": {"T2": {"enforcement": "maybe"}}})


def test_parse_config_reads_yaml_false_tier_as_off():
    assert parse_config({"checks": {"T4": {"enforcement": False}}}).enforcement("T4") == "off"


def test_parse_config_unknown_check_id_lists_the_known_ids():
    with pytest.raises(ConfigError, match="T99") as info:
        parse_config({"checks": {"T99": {}}})
    assert ", ".join(CHECK_ORDER) in str(info.value)


def test_parse_config_schema_lists_and_limits():
    config = parse_config(
        {
            "schema": {
                "allowed_keys": ["long_name", "unit"],
                "statement_placeholders": ["value"],
                "char_limits": {"long_name": 20},
            }
        }
    )
    assert config.schema.allowed_keys == frozenset({"long_name", "unit"})
    assert config.schema.statement_placeholders == frozenset({"value"})
    assert config.schema.char_limits["long_name"] == 20
    assert config.schema.char_limits["short_name"] == 40


@pytest.mark.parametrize(
    "raw",
    [
        {"columns": "geoid"},
        {"checks": {"T2": "warn"}},
        {"known_measures": {"a": 1}},
        "not a mapping",
        {"filename_limit": "abc"},
        {"filename_limit": 0},
        {"filename_limit": True},
        {"filename_limit": 12.0},
        {"fraction_min_rows": [1]},
        {"fraction_min_rows": False},
        {"schema": {"vocabularies": ["a"]}},
        {"schema": {"vocabularies": {"region_type": [1]}}},
        {"schema": {"allowed_keys": {"a": "b"}}},
        {"schema": {"expected_keys": [None]}},
        {"schema": {"statement_placeholders": 3}},
        {"schema": {"char_limits": {"long_name": "x"}}},
        {"schema": {"char_limits": {1: 5}}},
        {"checks": {"T2": {"enforcement": True}}},
        {"naming": {"pattern": "("}},
        {"known_measures_file": 5},
        {"known_measures_file": "a\0b"},
    ],
)
def test_parse_config_shape_errors(raw):
    with pytest.raises(ConfigError):
        parse_config(raw)


_YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8) | st.integers(), inner, max_size=3),
    max_leaves=8,
)


def _section(*keys: str):
    return st.dictionaries(st.sampled_from(keys), _YAML_VALUES, max_size=len(keys)) | _YAML_VALUES


_CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        "schema": _section(
            "allowed_keys", "expected_keys", "vocabularies", "char_limits", "statement_placeholders"
        ),
        "known_measures": _YAML_VALUES,
        "known_measures_file": _YAML_VALUES,
        "columns": _section("required", "optional"),
        "naming": _section("pattern", "extensions"),
        "checks": st.dictionaries(
            st.sampled_from(CHECK_ORDER) | _YAML_VALUES.filter(lambda v: v is None or isinstance(v, (str, int))),
            _section("enforcement", "include", "exclude"),
            max_size=3,
        )
        | _YAML_VALUES,
        "metadata_filename": _YAML_VALUES,
        "filename_limit": _YAML_VALUES,
        "fraction_min_rows": _YAML_VALUES,
        "ignore_dirs": _YAML_VALUES,
    },
)


# Random naming.pattern strings may compile with a FutureWarning from re.
@pytest.mark.filterwarnings("ignore::FutureWarning")
@settings(deadline=None)
@given(raw=_CONFIGS)
def test_parse_config_returns_a_config_or_raises_config_error(raw, tmp_path_factory):
    try:
        config = parse_config(raw, base_dir=tmp_path_factory.getbasetemp())
    except ConfigError:
        return
    assert isinstance(config, RepoConfig)


def test_known_measures_file(tmp_path):
    listing = tmp_path / "measures.txt"
    listing.write_text("alpha\n\nbeta\n", encoding="utf-8")
    config = parse_config({"known_measures_file": "measures.txt"}, base_dir=tmp_path)
    assert config.known_measures == frozenset({"alpha", "beta"})
    with pytest.raises(ConfigError, match="known_measures_file"):
        parse_config({"known_measures_file": "missing.txt"}, base_dir=tmp_path)


def test_check_settings_scoping():
    settings = CheckSettings(include=("data/*",), exclude=("data/tmp*",))
    assert settings.applies_to("data/x.csv")
    assert not settings.applies_to("docs/x.csv")
    assert not settings.applies_to("data/tmp_x.csv")
    assert CheckSettings().applies_to("anything/at/all")


def test_load_config_discovery_and_fallback(tmp_path):
    # No file at all: pure defaults.
    assert load_config(repo_root=tmp_path).known_measures is None
    # Conventional file discovered at the root.
    (tmp_path / ".commonslint.yml").write_text("known_measures: [x]\n", encoding="utf-8")
    assert load_config(repo_root=tmp_path).known_measures == frozenset({"x"})


def test_load_config_explicit_path_must_exist(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.yml")


def test_load_config_invalid_yaml(tmp_path):
    path = tmp_path / "bad.yml"
    path.write_text("known_measures: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(path)
