"""FAIR maturity scoring against the RDA FAIR Data Maturity Model.

The 41-indicator registry ships as package data so model revisions are a
data edit, not a code change. Assessments are hand-authored inputs (JSON
or CSV); scoring is a pure function of assessment and registry.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import ParseError, RegistryError, UnknownIndicatorError, UnknownPrincipleError
from .metadata import decode_utf8, parse_json

EXPECTED_INDICATOR_COUNT = 41
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
class Gap:
    """An indicator assessed at level 1 (not being considered yet)."""

    indicator: Indicator
    level: int


@dataclass(frozen=True)
class FairReport:
    """Scored view of an assessment, per FAIR area."""

    histograms: dict[str, dict[int, int]]
    gaps: tuple[Gap, ...]
    coverage: float
    area_averages: dict[str, float | None] = field(default_factory=dict)
    assessor: str = ""
    date: str = ""

    @property
    def essential_gaps(self) -> tuple[Gap, ...]:
        return tuple(g for g in self.gaps if g.indicator.priority == "Essential")

    @property
    def has_essential_gap(self) -> bool:
        return bool(self.essential_gaps)


def _build_registry(payload: dict) -> dict[str, Indicator]:
    rows = payload.get("indicators")
    if not isinstance(rows, list):
        raise RegistryError("registry file must contain an 'indicators' list")
    registry: dict[str, Indicator] = {}
    for row in rows:
        indicator_id = row.get("id")
        if not indicator_id:
            raise RegistryError("registry row missing 'id'")
        if indicator_id in registry:
            raise RegistryError(f"duplicate indicator id: {indicator_id}")
        priority = row.get("priority")
        if priority not in PRIORITIES:
            raise RegistryError(f"unknown priority {priority!r} on {indicator_id}")
        principle = row.get("principle", "")
        if principle not in GUIDING_PRINCIPLES:
            raise RegistryError(f"unknown principle {principle!r} on {indicator_id}")
        registry[indicator_id] = Indicator(
            indicator_id=indicator_id,
            principle=principle,
            text=row.get("text", ""),
            priority=priority,
        )
    if len(registry) != EXPECTED_INDICATOR_COUNT:
        raise RegistryError(
            f"registry must contain exactly {EXPECTED_INDICATOR_COUNT} indicators, found {len(registry)}"
        )
    return registry


def load_indicator_registry(source: str | Path | None = None) -> dict[str, Indicator]:
    """Load the indicator registry, by default the shipped maturity-model file."""
    if source is None:
        raw = resources.files("commonslint.data").joinpath("fair_indicators.json").read_text("utf-8")
    else:
        raw = Path(source).read_text("utf-8")
    try:
        payload = parse_json(raw)
    except ParseError as exc:
        raise RegistryError(f"registry is not valid JSON: {exc}") from exc
    return _build_registry(payload)


def score_assessment(
    assessment: FairAssessment, registry: dict[str, Indicator] | None = None
) -> FairReport:
    """Score an assessment: per-area level histograms, gap list, coverage.

    Level 0 means "not applicable"; such indicators count in the histogram
    but are excluded from the gap list and from area averages.
    """
    registry = registry if registry is not None else load_indicator_registry()
    histograms: dict[str, dict[int, int]] = {area: {lvl: 0 for lvl in LEVELS} for area in AREAS}
    applicable: dict[str, list[int]] = {area: [] for area in AREAS}
    gaps: list[Gap] = []

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
            gaps.append(Gap(indicator=indicator, level=level))

    gaps.sort(key=lambda g: (_PRIORITY_RANK[g.indicator.priority], g.indicator.indicator_id))
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


def read_assessment_file(path: str | Path) -> FairAssessment:
    """Read an assessment from UTF-8 JSON or a two-column tabular file.

    JSON may be either a flat indicator-id → level map, or an object with a
    ``levels`` map plus optional ``assessor``/``date``. Tabular files need
    ``indicator_id`` and ``level`` columns and may start with a byte order
    mark. A file that is not UTF-8, or not shaped like either form, is a
    ParseError.
    """
    file_path = Path(path)
    rel = str(file_path)
    raw = decode_utf8(file_path.read_bytes(), rel)
    if file_path.suffix.lower() == ".csv":
        # Spreadsheets save "CSV UTF-8" with a byte order mark.
        reader = csv.DictReader(raw.removeprefix("\ufeff").splitlines())
        fields = reader.fieldnames or []
        if "indicator_id" not in fields or "level" not in fields:
            raise ParseError(
                "assessment table needs indicator_id and level columns",
                path=rel,
                stage="structure",
            )
        levels = {}
        for row in reader:
            try:
                levels[row["indicator_id"]] = int(row["level"])
            except (TypeError, ValueError) as exc:
                raise ParseError(
                    f"non-integer level for {row.get('indicator_id')!r}",
                    path=rel,
                    stage="structure",
                ) from exc
        return FairAssessment(levels=levels)

    payload = parse_json(raw, rel)
    if not isinstance(payload, dict):
        raise ParseError("assessment must be a JSON object", path=rel, stage="structure")
    if "levels" in payload and isinstance(payload["levels"], dict):
        body = payload["levels"]
        assessor = str(payload.get("assessor", ""))
        date = str(payload.get("date", ""))
    else:
        body = payload
        assessor = ""
        date = ""
    levels = {}
    for key, value in body.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParseError(
                f"level for {key!r} must be an integer 0-4", path=rel, stage="structure"
            )
        levels[key] = value
    return FairAssessment(levels=levels, assessor=assessor, date=date)
