"""commonslint: a linter and metadata toolkit for data-commons repositories.

Validates measure_info metadata against a fixed schema, runs the T2-T14
check catalog over repository trees, expands dynamic metadata, scores FAIR
maturity self-assessments, and renders static HTML/JSON reports plus a
data dictionary.
"""

from __future__ import annotations

from .checks import (
    CHECK_NAMES,
    CHECK_ORDER,
    VERDICTS,
    CheckItem,
    CheckReport,
    SuiteReport,
    format_percentage,
    run_suite,
)
from .config import CheckSettings, RepoConfig, default_config, load_config, parse_config
from .errors import (
    CommonsLintError,
    ConfigError,
    DomainError,
    DuplicateKeyError,
    ExpansionError,
    ParseError,
    UnknownIndicatorError,
    UnknownPrincipleError,
)
from .expansion import expand_dynamic, expand_file
from .fair import (
    FairAssessment,
    FairReport,
    Indicator,
    convert_checklist,
    read_assessment_file,
    score_assessment,
)
from .metadata import (
    MeasureEntry,
    MeasureInfoFile,
    load_measure_info,
    parse_measure_info,
    serialize_measure_info,
)
from .reports import render_dictionary, render_fair, render_suite
from .scanner import ClassifiedFile, DataTable, RepoSnapshot, scan_repo
from .schema import CORE_ELEMENTS

__version__ = "1.0.0"

__all__ = [
    "CHECK_NAMES",
    "CHECK_ORDER",
    "CORE_ELEMENTS",
    "VERDICTS",
    "CheckItem",
    "CheckReport",
    "CheckSettings",
    "ClassifiedFile",
    "CommonsLintError",
    "ConfigError",
    "DataTable",
    "DomainError",
    "DuplicateKeyError",
    "ExpansionError",
    "FairAssessment",
    "FairReport",
    "Indicator",
    "MeasureEntry",
    "MeasureInfoFile",
    "ParseError",
    "RepoConfig",
    "RepoSnapshot",
    "SuiteReport",
    "UnknownIndicatorError",
    "UnknownPrincipleError",
    "convert_checklist",
    "default_config",
    "expand_dynamic",
    "expand_file",
    "format_percentage",
    "load_config",
    "load_measure_info",
    "parse_config",
    "parse_measure_info",
    "read_assessment_file",
    "render_dictionary",
    "render_fair",
    "render_suite",
    "run_suite",
    "scan_repo",
    "score_assessment",
    "serialize_measure_info",
]
