"""Core metadata schema: element names, what counts as blank, and limits.

The allowed and expected key sets (read by T3 and T7 in ``checks``) and the
vocabularies are repository config (``RepoConfig``); the vocabulary
defaults ship with the package in ``data/vocabularies.json``. The character
limits are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# The elements whose controlled vocabulary a check reads: T4 and T9.
VOCABULARY_ELEMENTS: tuple[str, ...] = ("measure_type", "region_type")

# Axes consumed by dynamic-metadata expansion; concrete entries never carry
# them, so they are excluded from the completeness check by default.
DYNAMIC_AXES: tuple[str, ...] = ("categories", "variants")

CHAR_LIMITS: dict[str, int] = {
    "long_name": 55,
    "short_name": 40,
    "short_description": 100,
}

# File-level key reserved for the bibliography block.
REFERENCES_KEY = "_references"


def is_blank(value: object) -> bool:
    """Present-but-empty: null, empty string, empty list or empty object."""
    return value is None or value == "" or (not value and isinstance(value, (list, dict)))


@dataclass(frozen=True)
class LimitViolation:
    field: str
    length: int
    limit: int


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
