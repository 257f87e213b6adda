"""Dynamic metadata expansion: categories x variants into concrete entries.

A dynamic entry's id and string fields carry ``{category}`` and
``{variant}`` placeholders; expansion substitutes every combination of
axis tokens, applies per-token overrides, and yields one concrete entry
per combination, so producers never hand-write the full cross product
(e.g. five measures for each of nineteen industries).
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Mapping

from .errors import ExpansionError
from .metadata import MeasureEntry, MeasureInfoFile

CATEGORY_PLACEHOLDER = "{category}"
VARIANT_PLACEHOLDER = "{variant}"

_AXIS_PLACEHOLDER = {"categories": CATEGORY_PLACEHOLDER, "variants": VARIANT_PLACEHOLDER}

# Echoes of offending axis values in error messages: reprlib bounds the
# nesting and the items it visits, and _echo cuts the result to a fixed length.
_ECHO_LIMIT = 80
_REPR = reprlib.Repr()
_REPR.maxlevel = 3
_REPR.maxstring = _REPR.maxother = _ECHO_LIMIT


def _echo(value: object) -> str:
    """A repr of ``value`` no longer than _ECHO_LIMIT characters."""
    text = _REPR.repr(value)
    return text if len(text) <= _ECHO_LIMIT else text[: _ECHO_LIMIT - 1] + "…"


@dataclass(frozen=True)
class AxisSpec:
    """One token on a dynamic axis, with optional per-element overrides.

    Overrides replace the named element's text after placeholder
    substitution, so a raw token like "NAICS72" can carry a readable
    display name.
    """

    token: str
    overrides: Mapping[str, str] = field(default_factory=dict)


def parse_axis(raw: object, axis: str) -> list[AxisSpec]:
    """Normalize an on-disk axis value into AxisSpecs.

    Accepts a list of token strings or a map of token to override map.
    Tokens must be unique within the axis.
    """
    if raw is None or raw == [] or raw == {}:
        return []
    specs: list[AxisSpec] = []
    if isinstance(raw, list):
        for item in raw:
            if not isinstance(item, str):
                raise ExpansionError(f"{axis} list items must be strings, got {_echo(item)}")
            specs.append(AxisSpec(token=item))
    elif isinstance(raw, dict):
        for token, overrides in raw.items():
            if overrides is None:
                overrides = {}
            if not isinstance(overrides, dict):
                raise ExpansionError(
                    f"{axis}[{_echo(token)}] overrides must be an object, got {_echo(overrides)}"
                )
            specs.append(AxisSpec(token=str(token), overrides=dict(overrides)))
    else:
        raise ExpansionError(f"{axis} must be a list or object, got {type(raw).__name__}")

    seen: set[str] = set()
    for spec in specs:
        if spec.token in seen:
            raise ExpansionError(f"duplicate {axis} token {_echo(spec.token)}")
        seen.add(spec.token)
    return specs


def _substitute(value: Any, category: str | None, variant: str | None) -> Any:
    if isinstance(value, str):
        if category is not None:
            value = value.replace(CATEGORY_PLACEHOLDER, category)
        if variant is not None:
            value = value.replace(VARIANT_PLACEHOLDER, variant)
        return value
    if isinstance(value, list):
        return [_substitute(v, category, variant) for v in value]
    if isinstance(value, dict):
        return {k: _substitute(v, category, variant) for k, v in value.items()}
    return value


def _find_residue(value: Any) -> str | None:
    if isinstance(value, str):
        for marker in (CATEGORY_PLACEHOLDER, VARIANT_PLACEHOLDER):
            if marker in value:
                return marker
        return None
    if isinstance(value, list):
        for v in value:
            marker = _find_residue(v)
            if marker:
                return marker
        return None
    if isinstance(value, dict):
        for v in value.values():
            marker = _find_residue(v)
            if marker:
                return marker
    return None


def expand_dynamic(entry: MeasureEntry) -> list[MeasureEntry]:
    """Expand one entry into its concrete measures.

    Non-dynamic entries pass through unchanged. Output order is category
    index then variant index; resulting ids must be unique and no output
    field may retain a literal axis placeholder.
    """
    categories = parse_axis(entry.data.get("categories"), "categories")
    variants = parse_axis(entry.data.get("variants"), "variants")
    if not categories and not variants:
        return [entry]

    for axis_name, specs in (("categories", categories), ("variants", variants)):
        if specs and _AXIS_PLACEHOLDER[axis_name] not in entry.measure_id:
            raise ExpansionError(
                f"id template {entry.measure_id!r} lacks {_AXIS_PLACEHOLDER[axis_name]}"
                f" for its non-empty {axis_name} axis"
            )

    base = {k: v for k, v in entry.data.items() if k not in ("categories", "variants")}
    cat_axis = categories or [None]
    var_axis = variants or [None]

    expanded: list[MeasureEntry] = []
    seen_ids: set[str] = set()
    for cat, var in product(cat_axis, var_axis):
        cat_token = cat.token if cat else None
        var_token = var.token if var else None
        new_id = _substitute(entry.measure_id, cat_token, var_token)
        # Both walks recurse about twice per level of nesting, so a value the
        # JSON decoder accepted can still be too deep for them.
        try:
            data = {k: _substitute(v, cat_token, var_token) for k, v in base.items()}
            for spec in (cat, var):
                if spec is None:
                    continue
                for element, text in spec.overrides.items():
                    data[element] = _substitute(text, cat_token, var_token)
            marker = _find_residue(new_id) or _find_residue(data)
        except RecursionError:
            raise ExpansionError(
                f"dynamic entry {_echo(entry.measure_id)} nested too deeply"
            ) from None
        if marker:
            raise ExpansionError(
                f"unsubstituted placeholder {marker} remains in expansion of"
                f" {entry.measure_id!r}"
            )
        if new_id in seen_ids:
            raise ExpansionError(f"expansion of {entry.measure_id!r} duplicates id {new_id!r}")
        seen_ids.add(new_id)
        expanded.append(MeasureEntry(measure_id=new_id, data=data))
    return expanded


def expand_file(mi: MeasureInfoFile) -> MeasureInfoFile:
    """Expand every dynamic entry in a file; concrete entries pass through.

    Entry order is preserved, with each dynamic entry replaced in place by
    its expansions. Ids must stay unique across the whole file.
    """
    entries: dict[str, MeasureEntry] = {}
    for entry in mi:
        for concrete in expand_dynamic(entry):
            if concrete.measure_id in entries:
                raise ExpansionError(
                    f"expanded id {concrete.measure_id!r} collides with an existing entry"
                )
            entries[concrete.measure_id] = concrete
    return MeasureInfoFile(path=mi.path, entries=entries, references=mi.references)
