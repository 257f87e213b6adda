"""Dynamic metadata expansion: categories x variants into concrete entries.

A dynamic entry's id and string fields carry ``{category}`` and
``{variant}`` placeholders; expansion yields one concrete entry per
combination of axis tokens, so producers never hand-write the full cross
product (e.g. five measures for each of nineteen industries). A token's
overrides replace their elements before substitution, so an override's own
text is substituted too; an override may not name an axis. Concrete entries
carry no axis, and no placeholder may be left in their ids or values.
``expand_info`` is the one path that T5 and T14, ``expand`` and ``dict``
take from a measure_info file to its concrete measures. T5 and T14 read
ids alone: ``expand_ids`` judges each string of an entry once, where no
combination of tokens can fail, and walks the entry in full elsewhere.
"""

from __future__ import annotations

import re
import reprlib
from itertools import product
from typing import Any, Callable

from .errors import ExpansionError
from .metadata import MeasureEntry, MeasureInfoFile
from .schema import DYNAMIC_AXES

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


def parse_axis(raw: object, axis: str) -> dict[str, dict]:
    """Normalize an on-disk axis value into a map of token to overrides.

    Accepts a list of token strings or a map of token to override map (null
    for none). Tokens must be unique within the axis, and no override may
    name an axis.
    """
    if raw is None:
        return {}
    if isinstance(raw, list):
        for item in raw:
            if not isinstance(item, str):
                raise ExpansionError(f"{axis} list items must be strings, got {_echo(item)}")
        pairs = [(item, {}) for item in raw]
    elif isinstance(raw, dict):
        pairs = []
        for token, overrides in raw.items():
            if overrides is None:
                overrides = {}
            if not isinstance(overrides, dict):
                raise ExpansionError(
                    f"{axis}[{_echo(token)}] overrides must be an object, got {_echo(overrides)}"
                )
            named = next((name for name in DYNAMIC_AXES if name in overrides), None)
            if named is not None:
                raise ExpansionError(f"{axis}[{_echo(token)}] overrides may not set {named!r}")
            pairs.append((str(token), overrides))
    else:
        raise ExpansionError(f"{axis} must be a list or object, got {type(raw).__name__}")

    tokens: dict[str, dict] = {}
    for token, overrides in pairs:
        if token in tokens:
            raise ExpansionError(f"duplicate {axis} token {_echo(token)}")
        tokens[token] = overrides
    return tokens


def _substitute(value: Any, category: str | None, variant: str | None, template: str) -> Any:
    """``value`` with the axis tokens put in, walked depth first.

    Stops at the first string that still holds a placeholder, naming
    ``{category}`` before ``{variant}``; ``template`` is the id echoed then.
    """
    if isinstance(value, str):
        if category is not None:
            value = value.replace(CATEGORY_PLACEHOLDER, category)
        if variant is not None:
            value = value.replace(VARIANT_PLACEHOLDER, variant)
        for marker in (CATEGORY_PLACEHOLDER, VARIANT_PLACEHOLDER):
            if marker in value:
                raise ExpansionError(
                    f"unsubstituted placeholder {marker} remains in expansion of {template!r}"
                )
        return value
    if isinstance(value, list):
        return [_substitute(v, category, variant, template) for v in value]
    if isinstance(value, dict):
        return {k: _substitute(v, category, variant, template) for k, v in value.items()}
    return value


def _axes(entry: MeasureEntry) -> tuple[dict[str, dict], dict[str, dict]]:
    """The entry's parsed axes; raises if its id template lacks a non-empty axis's placeholder."""
    categories = parse_axis(entry.data.get("categories"), "categories")
    variants = parse_axis(entry.data.get("variants"), "variants")
    for axis_name, tokens in (("categories", categories), ("variants", variants)):
        if tokens and _AXIS_PLACEHOLDER[axis_name] not in entry.measure_id:
            raise ExpansionError(
                f"id template {entry.measure_id!r} lacks {_AXIS_PLACEHOLDER[axis_name]}"
                f" for its non-empty {axis_name} axis"
            )
    return categories, variants


def expand_dynamic(entry: MeasureEntry) -> list[MeasureEntry]:
    """Expand one entry into its concrete measures.

    Non-dynamic entries pass through unchanged. Output order is category
    index then variant index; resulting ids must be unique and no output
    field may retain a literal axis placeholder.
    """
    categories, variants = _axes(entry)
    if not categories and not variants:
        return [entry]

    template = entry.measure_id
    base = {k: v for k, v in entry.data.items() if k not in DYNAMIC_AXES}
    expanded: list[MeasureEntry] = []
    seen_ids: set[str] = set()
    for (cat, cat_overrides), (var, var_overrides) in product(
        categories.items() or [(None, {})], variants.items() or [(None, {})]
    ):
        new_id = _substitute(template, cat, var, template)
        # The walk recurses about twice per level of nesting. A value read
        # through parse_json is shallow enough for it; one built in code may
        # not be.
        try:
            data = _substitute(base | cat_overrides | var_overrides, cat, var, template)
        except RecursionError:
            raise ExpansionError(f"dynamic entry {_echo(template)} nested too deeply") from None
        if new_id in seen_ids:
            raise ExpansionError(f"expansion of {template!r} duplicates id {new_id!r}")
        seen_ids.add(new_id)
        expanded.append(MeasureEntry(measure_id=new_id, data=data))
    return expanded


# Stands in for every token while an entry's strings are judged once. After
# that, a placeholder left stays in every combination, and a "{" with a token
# before its "}" may close a placeholder around the token.
_SENTINEL = "\0"
_MAY_FAIL = re.compile(r"\{(?:category|variant)\}|\{[^}]*\0")


def _stays_clean(value: Any, category: bool, variant: bool) -> bool:
    """Whether every string that ``_substitute`` reaches in ``value`` keeps no
    placeholder, whatever tokens free of braces and of _SENTINEL are put in."""
    if isinstance(value, str):
        if "{" not in value:
            return True
        if category:
            value = value.replace(CATEGORY_PLACEHOLDER, _SENTINEL)
        if variant:
            value = value.replace(VARIANT_PLACEHOLDER, _SENTINEL)
        return _MAY_FAIL.search(value) is None
    # At least as many frames a level as _substitute takes: where this ends
    # without a RecursionError, so does the walk.
    if isinstance(value, list):
        return all(_stays_clean(v, category, variant) for v in value)
    if isinstance(value, dict):
        return all(_stays_clean(v, category, variant) for v in value.values())
    return True


def expand_ids(entry: MeasureEntry, expand: Callable[[MeasureEntry], list[MeasureEntry]]) -> list[str]:
    """The ids of ``expand_dynamic(entry)``'s measures, or the ExpansionError it raises.

    ``expand``, the caller's ``expand_dynamic`` binding, walks the entry when
    a token holds a brace or _SENTINEL, a token may complete a placeholder or
    the values nest too deeply to judge. No other entry fails but on its axes,
    its id template or a duplicate id.
    """
    categories, variants = _axes(entry)
    if not categories and not variants:
        return [entry.measure_id]
    template = entry.measure_id
    try:
        clean = not re.search(r"[{}\0]", "".join([*categories, *variants])) and _stays_clean(
            [template, entry.data], bool(categories), bool(variants)
        )
    except RecursionError:
        clean = False
    if not clean:
        return [measure.measure_id for measure in expand(entry)]
    combinations = product(categories or [None], variants or [None])
    ids = [_substitute(template, cat, var, template) for cat, var in combinations]
    if len(set(ids)) < len(ids):
        duplicate = next(mid for n, mid in enumerate(ids) if mid in ids[:n])
        raise ExpansionError(f"expansion of {template!r} duplicates id {duplicate!r}")
    return ids


def expand_info(info: MeasureInfoFile, expand: Callable[[MeasureEntry], list], *, ids_only=False):
    """Yield (entry, concrete measures, problem) for each entry of ``info``, in file order.

    ``expand`` is called once per entry; with ``ids_only`` it gives the
    concrete ids alone, which are yielded in place of the measures. The
    measures are None when it raises ExpansionError, whose text is then the
    problem; an entry that expands has a problem when an earlier entry took
    one of its ids. A failed entry's ids count as taken: its own id, or all
    its concrete ids when it collided.
    Callers pass their own ``expand_dynamic`` binding, which a tracer or a
    call count may replace by name.
    """
    taken: set[str] = set()
    for entry in info:
        try:
            concrete = expand(entry)
        except ExpansionError as exc:
            taken.add(entry.measure_id)
            yield entry, None, str(exc)
            continue
        ids = concrete if ids_only else [measure.measure_id for measure in concrete]
        clash = next((mid for mid in ids if mid in taken), None)
        taken.update(ids)
        if clash is None:
            yield entry, concrete, None
        else:
            yield entry, concrete, f"expanded id {clash!r} collides with an existing entry"


def expand_file(mi: MeasureInfoFile) -> MeasureInfoFile:
    """Expand every dynamic entry in a file; concrete entries pass through.

    Entry order is preserved, with each dynamic entry replaced in place by
    its expansions. The first entry that fails or collides raises ExpansionError.
    """
    entries: dict[str, MeasureEntry] = {}
    for _, concrete, problem in expand_info(mi, expand_dynamic):
        if problem is not None:
            raise ExpansionError(problem)
        entries.update((measure.measure_id, measure) for measure in concrete)
    return MeasureInfoFile(path=mi.path, entries=entries, references=mi.references)
