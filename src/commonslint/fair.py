"""FAIR maturity scoring against the RDA FAIR Data Maturity Model.

The 41-indicator registry ships as package data so model revisions are a
data edit, not a code change. Assessments and checklists are hand-authored
inputs (JSON, or CSV for an assessment); scoring is a pure function of the
assessment.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError, UnknownIndicatorError, UnknownPrincipleError
from .metadata import decode_utf8, packaged_json, parse_json, reject_duplicate_keys

PRIORITIES = ("Essential", "Important", "Useful")
LEVELS = (0, 1, 2, 3, 4)
LEVEL_LABELS = {
    0: "not applicable",
    1: "not being considered yet",
    2: "under consideration or in planning",
    3: "in implementation",
    4: "fully implemented",
}
AREAS = ("F", "A", "I", "R")

# The guiding principles of the FAIR framework, grouped by area.
GUIDING_PRINCIPLES = (
    "F1", "F2", "F3", "F4",
    "A1", "A1.1", "A1.2", "A2",
    "I1", "I2", "I3",
    "R1", "R1.1", "R1.2", "R1.3",
)

# Three-category self-evaluation rubric → maturity level.
DEFAULT_CHECKLIST_LEVELS = {"Achieving": 4, "WorkingTowards": 2, "NotAddressing": 1}

_PRIORITY_RANK = {p: i for i, p in enumerate(PRIORITIES)}


@dataclass(frozen=True)
class Indicator:
    """One maturity-model indicator."""

    indicator_id: str
    principle: str
    text: str
    priority: str

    @property
    def area(self) -> str:
        return self.principle[0]


@dataclass(frozen=True)
class FairAssessment:
    """A hand-authored maturity self-assessment: indicator id → level 0-4."""

    levels: dict[str, int]
    assessor: str = ""
    date: str = ""


@dataclass(frozen=True)
class FairReport:
    """Scored view of an assessment, per FAIR area.

    ``gaps`` are the indicators assessed at level 1 (not being considered
    yet), Essential first, then by id.
    """

    histograms: dict[str, dict[int, int]]
    gaps: tuple[Indicator, ...]
    coverage: float
    area_averages: dict[str, float | None] = field(default_factory=dict)
    assessor: str = ""
    date: str = ""

    @property
    def has_essential_gap(self) -> bool:
        return any(g.priority == "Essential" for g in self.gaps)


def load_indicator_registry() -> dict[str, Indicator]:
    """The shipped maturity-model registry, indicator id -> Indicator."""
    rows = packaged_json("fair_indicators.json")["indicators"]
    return {r["id"]: Indicator(r["id"], r["principle"], r["text"], r["priority"]) for r in rows}


def score_assessment(assessment: FairAssessment) -> FairReport:
    """Score an assessment: per-area level histograms, gap list, coverage.

    Level 0 means "not applicable"; such indicators count in the histogram
    but are excluded from the gap list and from area averages.
    """
    registry = load_indicator_registry()
    histograms: dict[str, dict[int, int]] = {area: {lvl: 0 for lvl in LEVELS} for area in AREAS}
    applicable: dict[str, list[int]] = {area: [] for area in AREAS}
    gaps: list[Indicator] = []

    for indicator_id, level in assessment.levels.items():
        indicator = registry.get(indicator_id)
        if indicator is None:
            raise UnknownIndicatorError(f"unknown indicator id: {indicator_id}")
        if level not in LEVELS:
            raise UnknownIndicatorError(
                f"level for {indicator_id} must be 0-4, got {level!r}"
            )
        histograms[indicator.area][level] += 1
        if level >= 1:
            applicable[indicator.area].append(level)
        if level == 1:
            gaps.append(indicator)

    gaps.sort(key=lambda g: (_PRIORITY_RANK[g.priority], g.indicator_id))
    averages = {
        area: (sum(levels) / len(levels) if levels else None)
        for area, levels in applicable.items()
    }
    return FairReport(
        histograms=histograms,
        gaps=tuple(gaps),
        coverage=len(assessment.levels) / len(registry),
        area_averages=averages,
        assessor=assessment.assessor,
        date=assessment.date,
    )


def convert_checklist(checklist: dict[str, str]) -> FairAssessment:
    """Convert a principle-level three-category checklist to an assessment.

    Each principle's category is applied to every indicator of the packaged
    registry that shares the principle code, mapped by
    ``DEFAULT_CHECKLIST_LEVELS``: Achieving→4, WorkingTowards→2, NotAddressing→1.
    """
    registry = load_indicator_registry()
    levels: dict[str, int] = {}
    for principle, category in checklist.items():
        if principle not in GUIDING_PRINCIPLES:
            raise UnknownPrincipleError(f"unknown guiding principle: {principle}")
        if not isinstance(category, str):
            raise UnknownPrincipleError(
                f"checklist category for {principle} must be a string,"
                f" got {type(category).__name__}"
            )
        if category not in DEFAULT_CHECKLIST_LEVELS:
            raise UnknownPrincipleError(
                f"unknown checklist category {category!r} for {principle};"
                f" expected one of {sorted(DEFAULT_CHECKLIST_LEVELS)}"
            )
        for indicator in registry.values():
            if indicator.principle == principle:
                levels[indicator.indicator_id] = DEFAULT_CHECKLIST_LEVELS[category]
    return FairAssessment(levels=levels)


def _read_text(rel: str) -> str:
    return decode_utf8(Path(rel).read_bytes(), rel)


def _malformed(rel: str, message: str) -> ParseError:
    """The error for an input file that is not shaped as its format says."""
    return ParseError(message, path=rel, stage="structure")


def _read_json_object(rel: str, not_an_object: str) -> dict:
    """The JSON object in a UTF-8 file. Any other value is a ParseError
    saying ``not_an_object``; a key repeated in any object is a
    DuplicateKeyError."""
    payload = parse_json(_read_text(rel), rel, object_pairs_hook=reject_duplicate_keys)
    if not isinstance(payload, dict):
        raise _malformed(rel, not_an_object)
    return payload


def _optional_text(payload: dict, key: str, rel: str) -> str:
    value = payload.get(key)
    if value is None:
        return ""
    if not isinstance(value, str):
        raise _malformed(rel, f"{key} must be a string or null")
    return value


def read_checklist_file(path: str | Path) -> FairAssessment:
    """Read a UTF-8 JSON checklist, guiding principle → category, and convert it."""
    checklist = _read_json_object(
        str(path), "checklist must be a JSON object of principle -> category"
    )
    return convert_checklist(checklist)


def read_assessment_file(path: str | Path) -> FairAssessment:
    """Read an assessment from UTF-8 JSON or a two-column tabular file.

    JSON may be either a flat indicator-id → level map, or an object with a
    ``levels`` map plus optional ``assessor``/``date`` strings (null reads
    as absent) and no other key. Tabular files need ``indicator_id`` and
    ``level`` columns and may start with a byte order mark. A file that is
    not UTF-8, not shaped like either form, or that names an indicator
    twice, is a ParseError.
    """
    rel = str(path)
    if Path(rel).suffix.lower() == ".csv":
        # Spreadsheets save "CSV UTF-8" with a byte order mark.
        reader = csv.DictReader(_read_text(rel).removeprefix("\ufeff").splitlines())
        fields = reader.fieldnames or []
        if "indicator_id" not in fields or "level" not in fields:
            raise _malformed(rel, "assessment table needs indicator_id and level columns")
        levels = {}
        for row in reader:
            indicator_id = row["indicator_id"]
            if indicator_id in levels:
                raise _malformed(rel, f"duplicate indicator {indicator_id!r}")
            try:
                levels[indicator_id] = int(row["level"])
            except (TypeError, ValueError) as exc:
                raise _malformed(rel, f"non-integer level for {indicator_id!r}") from exc
        return FairAssessment(levels=levels)

    payload = _read_json_object(rel, "assessment must be a JSON object")
    body, assessor, date = payload, "", ""
    if isinstance(payload.get("levels"), dict):
        unknown = [key for key in payload if key not in ("levels", "assessor", "date")]
        if unknown:
            raise _malformed(
                rel, f"unknown assessment key {unknown[0]!r}; expected levels, assessor, date"
            )
        body = payload["levels"]
        assessor = _optional_text(payload, "assessor", rel)
        date = _optional_text(payload, "date", rel)
    levels = {}
    for key, value in body.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise _malformed(rel, f"level for {key!r} must be an integer 0-4")
        levels[key] = value
    return FairAssessment(levels=levels, assessor=assessor, date=date)
