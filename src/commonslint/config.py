"""Repository-level configuration.

One YAML file per repository (default name ``.commonslint.yml`` at the
repo root) tunes classification patterns, required column sets, check
enforcement tiers and schema overrides. Everything has a default; an
absent config file means "use the defaults".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

import yaml

from .errors import ConfigError
from .schema import SchemaConfig, customized_schema, default_schema

CONFIG_FILENAMES = (".commonslint.yml", "commonslint.yml")

DEFAULT_REQUIRED_COLUMNS = ("geoid", "year", "measure", "value", "measure_type")
DEFAULT_OPTIONAL_COLUMNS = ("region_type", "region_name")

DEFAULT_NAMING_PATTERN = r"^[a-z0-9._-]+$"
DEFAULT_EXTENSIONS = frozenset(
    {
        "bz2", "cfg", "css", "csv", "geojson", "gz", "html", "ini", "ipynb",
        "js", "json", "md", "parquet", "pdf", "png", "py", "r", "rmd", "sh",
        "svg", "toml", "tsv", "txt", "xlsx", "xz", "yaml", "yml", "zip",
    }
)

ENFORCEMENT_TIERS = ("enforced", "warn", "off")


@dataclass(frozen=True)
class CheckSettings:
    """Per-check enforcement tier and path scoping."""

    enforcement: str = "enforced"
    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        """Whether a repo-relative path is in scope for this check."""
        if self.include and not any(fnmatch(path, p) for p in self.include):
            return False
        return not any(fnmatch(path, p) for p in self.exclude)


# Known-measure lists are optional, so T10 defaults to a warning tier.
DEFAULT_CHECK_TIERS = {"T10": "warn"}


@dataclass(frozen=True)
class RepoConfig:
    schema: SchemaConfig
    metadata_filename: str = "measure_info.json"
    required_columns: tuple[str, ...] = DEFAULT_REQUIRED_COLUMNS
    optional_columns: tuple[str, ...] = DEFAULT_OPTIONAL_COLUMNS
    known_measures: frozenset[str] | None = None
    naming_pattern: str = DEFAULT_NAMING_PATTERN
    allowed_extensions: frozenset[str] = DEFAULT_EXTENSIONS
    filename_limit: int = 100
    fraction_min_rows: int = 3
    ignore_dirs: frozenset[str] = frozenset({".git"})
    checks: dict[str, CheckSettings] = field(default_factory=dict)

    def check_settings(self, check_id: str) -> CheckSettings:
        if check_id in self.checks:
            return self.checks[check_id]
        return CheckSettings(enforcement=DEFAULT_CHECK_TIERS.get(check_id, "enforced"))

    def enforcement(self, check_id: str) -> str:
        return self.check_settings(check_id).enforcement


def default_config() -> RepoConfig:
    return RepoConfig(schema=default_schema())


def _as_str_tuple(value, key: str) -> tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise ConfigError(f"{key} must be a string or list of strings")


def _as_mapping(value, key: str) -> dict:
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        return value
    raise ConfigError(f"{key} must be a mapping with string keys")


def _positive_int(value, key: str) -> int:
    # bool is an int subclass; `filename_limit: yes` is a mistake, not 1.
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{key} must be an integer >= 1, got {value!r}")
    return value


def _parse_schema(raw) -> SchemaConfig:
    raw = _as_mapping(raw, "schema")
    overrides: dict = {}
    for key in ("allowed_keys", "expected_keys", "statement_placeholders"):
        if raw.get(key) is not None:
            overrides[key] = _as_str_tuple(raw[key], f"schema.{key}")
    if raw.get("vocabularies") is not None:
        overrides["vocabularies"] = {
            element: _as_str_tuple(terms, f"schema.vocabularies.{element}")
            for element, terms in _as_mapping(raw["vocabularies"], "schema.vocabularies").items()
        }
    if raw.get("char_limits") is not None:
        overrides["char_limits"] = {
            name: _positive_int(limit, f"schema.char_limits.{name}")
            for name, limit in _as_mapping(raw["char_limits"], "schema.char_limits").items()
        }
    return customized_schema(**overrides)


def _parse_check_settings(raw: dict, check_id: str) -> CheckSettings:
    if not isinstance(raw, dict):
        raise ConfigError(f"checks.{check_id} must be a mapping")
    tier = raw.get("enforcement", DEFAULT_CHECK_TIERS.get(check_id, "enforced"))
    if tier is False:
        # YAML reads an unquoted `off` as false.
        tier = "off"
    if tier not in ENFORCEMENT_TIERS:
        raise ConfigError(
            f"checks.{check_id}.enforcement must be one of {ENFORCEMENT_TIERS}, got {tier!r}"
        )
    include = _as_str_tuple(raw.get("include", []), f"checks.{check_id}.include") if raw.get("include") else ()
    exclude = _as_str_tuple(raw.get("exclude", []), f"checks.{check_id}.exclude") if raw.get("exclude") else ()
    return CheckSettings(enforcement=tier, include=include, exclude=exclude)


def parse_config(raw: dict, *, base_dir: Path | None = None) -> RepoConfig:
    """Build a RepoConfig from a parsed YAML mapping."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    schema = _parse_schema(raw.get("schema", {}))

    known: frozenset[str] | None = None
    if "known_measures" in raw and raw["known_measures"] is not None:
        known = frozenset(_as_str_tuple(raw["known_measures"], "known_measures"))
    elif "known_measures_file" in raw:
        if not isinstance(raw["known_measures_file"], str):
            raise ConfigError("known_measures_file must be a path string")
        listing = Path(raw["known_measures_file"])
        if base_dir is not None and not listing.is_absolute():
            listing = base_dir / listing
        try:
            lines = listing.read_text("utf-8").splitlines()
        # ValueError: a NUL byte in the path, or a file that is not UTF-8.
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read known_measures_file: {exc}") from exc
        known = frozenset(line.strip() for line in lines if line.strip())

    columns = raw.get("columns", {})
    if not isinstance(columns, dict):
        raise ConfigError("columns must be a mapping")
    naming = raw.get("naming", {})
    if not isinstance(naming, dict):
        raise ConfigError("naming must be a mapping")

    checks_raw = raw.get("checks", {})
    if not isinstance(checks_raw, dict):
        raise ConfigError("checks must be a mapping")
    # Imported here because the checks module imports this one.
    from .checks import CHECK_NAMES, CHECK_ORDER

    unknown = sorted(str(cid) for cid in checks_raw if cid not in CHECK_NAMES)
    if unknown:
        raise ConfigError(
            f"unknown check id(s) under checks: {', '.join(unknown)}"
            f" (known: {', '.join(CHECK_ORDER)})"
        )
    checks = {cid: _parse_check_settings(settings, cid) for cid, settings in checks_raw.items()}

    kwargs: dict = {"schema": schema, "checks": checks}
    if known is not None:
        kwargs["known_measures"] = known
    if "metadata_filename" in raw:
        kwargs["metadata_filename"] = str(raw["metadata_filename"])
    if "required" in columns:
        kwargs["required_columns"] = _as_str_tuple(columns["required"], "columns.required")
    if "optional" in columns:
        kwargs["optional_columns"] = _as_str_tuple(columns["optional"], "columns.optional")
    if "pattern" in naming:
        kwargs["naming_pattern"] = str(naming["pattern"])
        try:
            re.compile(kwargs["naming_pattern"])
        except re.error as exc:
            raise ConfigError(f"naming.pattern is not a valid regular expression: {exc}") from exc
    if "extensions" in naming:
        kwargs["allowed_extensions"] = frozenset(
            _as_str_tuple(naming["extensions"], "naming.extensions")
        )
    if "filename_limit" in raw:
        kwargs["filename_limit"] = _positive_int(raw["filename_limit"], "filename_limit")
    if "fraction_min_rows" in raw:
        kwargs["fraction_min_rows"] = _positive_int(raw["fraction_min_rows"], "fraction_min_rows")
    if "ignore_dirs" in raw:
        kwargs["ignore_dirs"] = frozenset(_as_str_tuple(raw["ignore_dirs"], "ignore_dirs"))
    return RepoConfig(**kwargs)


def load_config(config_path: str | Path | None = None, repo_root: str | Path | None = None) -> RepoConfig:
    """Load configuration from an explicit path or the repo root.

    With no explicit path, looks for the conventional filenames at the
    repo root and falls back to pure defaults when none exists.
    """
    path: Path | None = None
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
    elif repo_root is not None:
        for name in CONFIG_FILENAMES:
            candidate = Path(repo_root) / name
            if candidate.is_file():
                path = candidate
                break
    if path is None:
        return default_config()
    try:
        raw = yaml.safe_load(path.read_text("utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    return parse_config(raw, base_dir=path.parent)
