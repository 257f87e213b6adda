"""Core metadata schema: element names, vocabularies, limits and key checks.

The schema is data, not code: defaults ship with the package
(``data/vocabularies.yaml``). The key sets and vocabularies are overridable
through the repository config; the character limits are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from importlib import resources

import yaml

# The sixteen named core elements. The measure id (the JSON key naming the
# entry) is the seventeenth element and is carried separately.
CORE_ELEMENTS: tuple[str, ...] = (
    "aggregation_method",
    "category",
    "citations",
    "data_type",
    "equity_category",
    "layer",
    "long_description",
    "long_name",
    "measure_type",
    "short_description",
    "short_name",
    "sources",
    "statement",
    "unit",
    "categories",
    "variants",
)

# Axes consumed by dynamic-metadata expansion; concrete entries never carry
# them, so they are excluded from the completeness check by default.
DYNAMIC_AXES: tuple[str, ...] = ("categories", "variants")

CHAR_LIMITS: dict[str, int] = {
    "long_name": 55,
    "short_name": 40,
    "short_description": 100,
}

DEFAULT_STATEMENT_PLACEHOLDERS: frozenset[str] = frozenset(
    {"value", "region.name", "year"}
)

# File-level key reserved for the bibliography block.
REFERENCES_KEY = "_references"


def _load_default_vocabularies() -> dict[str, frozenset[str]]:
    text = (
        resources.files("commonslint").joinpath("data/vocabularies.yaml").read_text("utf-8")
    )
    raw = yaml.safe_load(text)
    return {element: frozenset(terms) for element, terms in raw.items()}


@dataclass(frozen=True)
class SchemaConfig:
    """The configured shape of core metadata entries.

    ``allowed_keys`` are the element names an entry may use, ``expected_keys``
    the subset whose absence or blankness is reported by the completeness
    check. Vocabularies are case-sensitive term sets per element.
    """

    allowed_keys: frozenset[str] = frozenset(CORE_ELEMENTS)
    expected_keys: frozenset[str] = frozenset(set(CORE_ELEMENTS) - set(DYNAMIC_AXES))
    vocabularies: dict[str, frozenset[str]] = field(default_factory=dict)

    def vocabulary(self, element: str) -> frozenset[str]:
        return self.vocabularies.get(element, frozenset())


def default_schema() -> SchemaConfig:
    """Schema with the packaged vocabulary defaults."""
    return SchemaConfig(vocabularies=_load_default_vocabularies())


def customized_schema(
    base: SchemaConfig | None = None,
    *,
    allowed_keys=None,
    expected_keys=None,
    vocabularies=None,
) -> SchemaConfig:
    """Apply per-repository overrides on top of a base schema.

    Vocabulary overrides replace the term set for that element only; the
    key sets replace wholesale when given.
    """
    schema = base if base is not None else default_schema()
    changes: dict[str, object] = {}
    if allowed_keys is not None:
        changes["allowed_keys"] = frozenset(allowed_keys)
    if expected_keys is not None:
        changes["expected_keys"] = frozenset(expected_keys)
    if vocabularies:
        merged = dict(schema.vocabularies)
        for element, terms in vocabularies.items():
            merged[element] = frozenset(terms)
        changes["vocabularies"] = merged
    return replace(schema, **changes) if changes else schema


def is_blank(value: object) -> bool:
    """Present-but-empty: null, empty string, empty list or empty object."""
    return value is None or value == "" or value == [] or value == {}


@dataclass(frozen=True)
class KeyReport:
    """Partition of one entry's keys against the schema."""

    measure_id: str
    allowed_present: tuple[str, ...]
    disallowed: tuple[str, ...]
    absent: tuple[str, ...]
    blank: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not (self.disallowed or self.absent or self.blank)


@dataclass(frozen=True)
class LimitViolation:
    field: str
    length: int
    limit: int


def validate_entry_keys(entry, schema: SchemaConfig) -> KeyReport:
    """Partition an entry's keys into allowed / disallowed / absent / blank.

    Total: never raises, whatever the key set. Absence (key missing) and
    blankness (key present with an empty value) are reported separately.
    """
    present = list(entry.data.keys())
    allowed_present = tuple(k for k in present if k in schema.allowed_keys)
    disallowed = tuple(k for k in present if k not in schema.allowed_keys)
    absent = tuple(sorted(k for k in schema.expected_keys if k not in entry.data))
    blank = tuple(
        sorted(
            k
            for k in schema.expected_keys
            if k in entry.data and is_blank(entry.data[k])
        )
    )
    return KeyReport(
        measure_id=entry.measure_id,
        allowed_present=allowed_present,
        disallowed=disallowed,
        absent=absent,
        blank=blank,
    )


def check_char_limits(entry) -> list[LimitViolation]:
    """One violation per string field strictly longer than its limit.

    Limits (``CHAR_LIMITS``) are inclusive: a value exactly at the limit
    passes. Fields with no limit (e.g. long_description) are never flagged.
    """
    violations = []
    for field_name, limit in sorted(CHAR_LIMITS.items()):
        value = entry.data.get(field_name)
        if isinstance(value, str) and len(value) > limit:
            violations.append(LimitViolation(field_name, len(value), limit))
    return violations
