"""Repository-level configuration.

One YAML file per repository (default name ``.commonslint.yml`` at the
repo root) tunes classification patterns, required column sets, check
enforcement tiers, the allowed and expected metadata keys and the
vocabularies of the elements in ``schema.VOCABULARY_ELEMENTS``. Everything
has a default; an absent config file means "use the defaults". A key the
parser does not use is an error, so a typo never passes for a setting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fnmatch import fnmatch
from functools import cache
from pathlib import Path

from .errors import ConfigError
from .metadata import MAX_JSON_DEPTH, packaged_json
from .schema import CORE_ELEMENTS, DYNAMIC_AXES, VOCABULARY_ELEMENTS

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


def _packaged_vocabularies() -> dict[str, frozenset[str]]:
    """A new mapping of the packaged term sets, so no two configs share one."""
    return {e: frozenset(terms) for e, terms in packaged_json("vocabularies.json").items()}


@dataclass(frozen=True)
class RepoConfig:
    """The settings of one repository.

    ``allowed_keys`` are the element names a measure_info entry may use
    (T3), ``expected_keys`` the subset whose absence or blankness T7 reports.
    ``vocabularies`` holds the case-sensitive term set of each element in
    ``VOCABULARY_ELEMENTS`` (T4, T9).
    """

    allowed_keys: frozenset[str] = frozenset(CORE_ELEMENTS)
    expected_keys: frozenset[str] = frozenset(CORE_ELEMENTS) - frozenset(DYNAMIC_AXES)
    vocabularies: dict[str, frozenset[str]] = field(default_factory=_packaged_vocabularies)
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
    return RepoConfig()


def _as_str_tuple(value, key: str) -> tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise ConfigError(f"{key} must be a string or list of strings")


def _known_keys(raw: dict, known: tuple[str, ...], path: str = "") -> None:
    """Raise a ConfigError naming each key of ``raw`` that is not in ``known``."""
    unknown = [f"{path}{key}" for key in raw if key not in known]
    if unknown:
        raise ConfigError(
            f"unknown config key {', '.join(map(repr, unknown))} (known: {', '.join(known)})"
        )


def _section(raw: dict, name: str, known: tuple[str, ...]) -> dict:
    """The mapping under the top-level key ``name``, whose keys must be in ``known``."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a mapping")
    _known_keys(section, known, f"{name}.")
    return section


def _reject_holding(entries: tuple[str, ...], char: str, key: str, what: str) -> None:
    """Raise a ConfigError for the first entry holding ``char``: it could never match."""
    for entry in entries:
        if char in entry:
            raise ConfigError(f"{key} entry {entry!r} holds {char!r}; each entry is {what} alone")


def _positive_int(value, key: str) -> int:
    # bool is an int subclass; `filename_limit: yes` is a mistake, not 1.
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{key} must be an integer >= 1, got {value!r}")
    return value


def _parse_check_settings(raw: dict, check_id: str) -> CheckSettings:
    if not isinstance(raw, dict):
        raise ConfigError(f"checks.{check_id} must be a mapping")
    _known_keys(raw, ("enforcement", "include", "exclude"), f"checks.{check_id}.")
    tier = raw.get("enforcement", DEFAULT_CHECK_TIERS.get(check_id, "enforced"))
    if tier is False:
        # YAML reads an unquoted `off` as false.
        tier = "off"
    if tier not in ENFORCEMENT_TIERS:
        raise ConfigError(
            f"checks.{check_id}.enforcement must be one of {ENFORCEMENT_TIERS}, got {tier!r}"
        )
    # Absent, null and [] mean no scoping; any other value must be patterns.
    include, exclude = (
        () if raw.get(key) in (None, []) else _as_str_tuple(raw[key], f"checks.{check_id}.{key}")
        for key in ("include", "exclude")
    )
    return CheckSettings(enforcement=tier, include=include, exclude=exclude)


_TOP_LEVEL_KEYS = (
    "metadata_filename", "known_measures", "known_measures_file", "columns", "naming",
    "filename_limit", "fraction_min_rows", "ignore_dirs", "schema", "checks",
)


def parse_config(raw: dict, *, base_dir: Path | None = None) -> RepoConfig:
    """Build a RepoConfig from a parsed YAML mapping."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    _known_keys(raw, _TOP_LEVEL_KEYS)
    if "known_measures" in raw and "known_measures_file" in raw:
        raise ConfigError("known_measures and known_measures_file are exclusive: set one")

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

    columns = _section(raw, "columns", ("required", "optional"))
    naming = _section(raw, "naming", ("pattern", "extensions"))
    schema = _section(raw, "schema", ("allowed_keys", "expected_keys", "vocabularies"))
    # Imported here because the checks module imports this one.
    from .checks import CHECK_ORDER

    checks_raw = _section(raw, "checks", CHECK_ORDER)
    checks = {cid: _parse_check_settings(settings, cid) for cid, settings in checks_raw.items()}

    kwargs: dict = {"checks": checks}
    if known is not None:
        kwargs["known_measures"] = known
    if "metadata_filename" in raw:
        if not isinstance(raw["metadata_filename"], str):
            raise ConfigError("metadata_filename must be a string")
        kwargs["metadata_filename"] = raw["metadata_filename"]
    if "required" in columns:
        kwargs["required_columns"] = _as_str_tuple(columns["required"], "columns.required")
    if "optional" in columns:
        kwargs["optional_columns"] = _as_str_tuple(columns["optional"], "columns.optional")
    if "pattern" in naming:
        if not isinstance(naming["pattern"], str):
            raise ConfigError("naming.pattern must be a string")
        kwargs["naming_pattern"] = naming["pattern"]
        try:
            re.compile(kwargs["naming_pattern"])
        except re.error as exc:
            raise ConfigError(f"naming.pattern is not a valid regular expression: {exc}") from exc
    if "extensions" in naming:
        # T11 compares the lower-cased text after a name's last dot.
        extensions = _as_str_tuple(naming["extensions"], "naming.extensions")
        _reject_holding(extensions, ".", "naming.extensions", "an extension")
        kwargs["allowed_extensions"] = frozenset(ext.lower() for ext in extensions)
    if "filename_limit" in raw:
        kwargs["filename_limit"] = _positive_int(raw["filename_limit"], "filename_limit")
    if "fraction_min_rows" in raw:
        kwargs["fraction_min_rows"] = _positive_int(raw["fraction_min_rows"], "fraction_min_rows")
    if "ignore_dirs" in raw:
        # The walk compares each directory's own name, never a path.
        ignore_dirs = _as_str_tuple(raw["ignore_dirs"], "ignore_dirs")
        _reject_holding(ignore_dirs, "/", "ignore_dirs", "a directory name")
        kwargs["ignore_dirs"] = frozenset(ignore_dirs)
    for key in ("allowed_keys", "expected_keys"):
        if schema.get(key) is not None:
            kwargs[key] = frozenset(_as_str_tuple(schema[key], f"schema.{key}"))
    if schema.get("vocabularies") is not None:
        overrides = schema["vocabularies"]
        if not isinstance(overrides, dict) or not all(isinstance(k, str) for k in overrides):
            raise ConfigError("schema.vocabularies must be a mapping with string keys")
        _known_keys(overrides, VOCABULARY_ELEMENTS, "schema.vocabularies.")
        # An override replaces the term set of its element only.
        kwargs["vocabularies"] = _packaged_vocabularies() | {
            element: frozenset(_as_str_tuple(terms, f"schema.vocabularies.{element}"))
            for element, terms in overrides.items()
        }
    return RepoConfig(**kwargs)


@cache
def _depth_capped_loader():
    """The pure-Python safe loader (its errors carry line and column), refusing
    more than MAX_JSON_DEPTH open collections whatever the recursion limit.
    Built on first use, so a run without a config file never imports yaml."""
    import yaml

    class _DepthCappedLoader(yaml.SafeLoader):
        depth = 0

        def compose_node(self, parent, index):
            opens = self.check_event(yaml.CollectionStartEvent)
            self.depth += opens
            if self.depth > MAX_JSON_DEPTH:
                raise yaml.YAMLError("nested too deeply")
            node = super().compose_node(parent, index)
            self.depth -= opens
            return node

    return _DepthCappedLoader


def _yaml_problem(exc) -> str:
    """PyYAML's complaint on one line: what it found wrong, and where."""
    mark = getattr(exc, "problem_mark", None)
    if mark is None:
        return " ".join(str(exc).split())
    what = ": ".join(part for part in (exc.context, exc.problem) if part)
    return f"{what} (line {mark.line + 1}, column {mark.column + 1})"


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
    import yaml

    try:
        raw = yaml.load(path.read_text("utf-8"), Loader=_depth_capped_loader())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {_yaml_problem(exc)}") from exc
    except RecursionError as exc:
        raise ConfigError(f"invalid YAML in {path}: nested too deeply") from exc
    except ValueError as exc:  # an integer past Python's digit cap, a date such as 2021-13-01
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    return parse_config(raw, base_dir=path.parent)
