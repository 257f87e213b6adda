from __future__ import annotations

import json
from itertools import product
from typing import Any, NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from commonslint.errors import ExpansionError
from commonslint.expansion import _echo, expand_dynamic, expand_file, expand_ids, parse_axis
from commonslint.metadata import MeasureEntry, parse_measure_info


def dynamic(measure_id: str, **data) -> MeasureEntry:
    return MeasureEntry(measure_id=measure_id, data=data)


def test_concrete_entry_passes_through():
    entry = dynamic("plain", unit="household")
    assert expand_dynamic(entry) == [entry]


def test_cartesian_expansion_and_axis_removal():
    entry = dynamic(
        "biz_{category}_{variant}",
        short_name="{variant} for {category}",
        categories=["naics72", "naics44"],
        variants=["entry_rate", "exit_rate", "churn"],
    )
    expanded = expand_dynamic(entry)
    assert len(expanded) == 6
    ids = [e.measure_id for e in expanded]
    assert len(set(ids)) == 6
    assert "biz_naics72_entry_rate" in ids
    first = expanded[0]
    assert first.data["short_name"] == "entry_rate for naics72"
    assert "categories" not in first.data and "variants" not in first.data


def test_single_axis_expansion():
    entry = dynamic("m_{variant}", variants=["mean", "median"])
    assert [e.measure_id for e in expand_dynamic(entry)] == ["m_mean", "m_median"]


def test_overrides_applied_after_substitution():
    entry = dynamic(
        "biz_{category}_{variant}",
        short_name="{variant} of {category}",
        categories={"naics72": {"short_name": "Accommodation & food: {variant}"}},
        variants=["entry_rate"],
    )
    (expanded,) = expand_dynamic(entry)
    # The override text itself is substituted too.
    assert expanded.data["short_name"] == "Accommodation & food: entry_rate"


def test_override_with_null_means_no_overrides():
    entry = dynamic(
        "m_{category}", long_name="Name {category}", categories={"a": None, "b": {"long_name": "B!"}}
    )
    by_id = {e.measure_id: e for e in expand_dynamic(entry)}
    assert by_id["m_a"].data["long_name"] == "Name a"
    assert by_id["m_b"].data["long_name"] == "B!"


def test_substitution_reaches_nested_values():
    entry = dynamic(
        "m_{category}",
        sources=[{"name": "Survey of {category}"}],
        layer={"source": "https://example.org/{category}.geojson"},
        categories=["broadband"],
    )
    (expanded,) = expand_dynamic(entry)
    assert expanded.data["sources"][0]["name"] == "Survey of broadband"
    assert expanded.data["layer"]["source"] == "https://example.org/broadband.geojson"


def test_id_template_must_mention_each_nonempty_axis():
    entry = dynamic("fixed_id", categories=["a", "b"])
    with pytest.raises(ExpansionError, match="lacks"):
        expand_dynamic(entry)


def test_residual_placeholder_is_an_error():
    # {variant} appears in a field but the variants axis is empty.
    entry = dynamic("m_{category}", short_name="{variant} thing", categories=["a"])
    with pytest.raises(ExpansionError, match="unsubstituted placeholder"):
        expand_dynamic(entry)


def test_duplicate_axis_token_rejected():
    with pytest.raises(ExpansionError, match="duplicate"):
        parse_axis(["a", "a"], "categories")


@pytest.mark.parametrize("raw", ["not-a-list", 5, [1, 2]])
def test_axis_shape_errors(raw):
    with pytest.raises(ExpansionError):
        parse_axis(raw, "variants")


def _nested(depth: int) -> list:
    item: list = []
    for _ in range(depth):
        item = [item]
    return item


@pytest.mark.parametrize(
    "raw",
    [
        ["a", _nested(950)],
        ["a", list(range(5000))],
        {"a": list(range(5000))},
        {"y" * 5000: 1},
        ["z" * 5000, "z" * 5000],
        {"t" * 5000: {"variants": []}},
    ],
    ids=[
        "deep item", "long item", "long overrides", "long token", "long duplicate",
        "long token with an axis override",
    ],
)
def test_axis_errors_echo_a_capped_value(raw):
    with pytest.raises(ExpansionError) as excinfo:
        parse_axis(raw, "categories")
    message = str(excinfo.value)
    assert message.startswith(("categories", "duplicate categories"))
    assert len(message) < 200


def test_entry_too_deep_to_walk_is_an_expansion_error():
    entry = MeasureEntry("m_{category}", {"categories": ["a"], "statement": _nested(5000)})
    with pytest.raises(ExpansionError) as excinfo:
        expand_dynamic(entry)
    assert str(excinfo.value) == "dynamic entry 'm_{category}' nested too deeply"


def test_axis_errors_echo_a_short_value_whole():
    with pytest.raises(ExpansionError) as excinfo:
        parse_axis({"a": ["b", 1]}, "variants")
    assert str(excinfo.value) == "variants['a'] overrides must be an object, got ['b', 1]"


def test_parse_axis_empty_forms():
    assert parse_axis(None, "categories") == {}
    assert parse_axis([], "categories") == {}
    assert parse_axis({}, "categories") == {}


@pytest.mark.parametrize("axis", ["categories", "variants"])
@pytest.mark.parametrize("named", ["categories", "variants"])
def test_override_may_not_name_an_axis(axis, named):
    # Left in, the override would put the axis back into a concrete measure,
    # which then no longer expands as a concrete entry.
    data = {"long_name": "M {category}", "categories": ["c"], "variants": ["v"]}
    data[axis] = {"a": {"long_name": "A", named: ["x"]}, "b": {}}
    entry = dynamic("m_{category}_{variant}", **data)
    with pytest.raises(ExpansionError) as excinfo:
        expand_dynamic(entry)
    assert str(excinfo.value) == f"{axis}['a'] overrides may not set {named!r}"


def test_expand_file_replaces_in_place_and_keeps_references():
    mi = parse_measure_info(
        json.dumps(
            {
                "first": {"unit": "household"},
                "dyn_{variant}": {"variants": ["a", "b"]},
                "last": {"unit": "person"},
                "_references": {"r1": {"title": "T"}},
            }
        )
    )
    expanded = expand_file(mi)
    assert list(expanded.entries) == ["first", "dyn_a", "dyn_b", "last"]
    assert expanded.references.keys() == {"r1"}


def test_expand_file_detects_cross_entry_collision():
    mi = parse_measure_info(
        json.dumps({"m_x": {"unit": "u"}, "m_{category}": {"categories": ["x"]}})
    )
    with pytest.raises(ExpansionError, match="collides"):
        expand_file(mi)


_tokens = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=6), unique=True, min_size=0, max_size=6
)


@given(_tokens, _tokens)
def test_cardinality_and_uniqueness_property(categories, variants):
    measure_id = "m"
    if categories:
        measure_id += "_{category}"
    if variants:
        measure_id += "_{variant}"
    data = {}
    if categories:
        data["categories"] = categories
    if variants:
        data["variants"] = variants
    expanded = expand_dynamic(MeasureEntry(measure_id=measure_id, data=data))
    expected = max(1, len(categories)) * max(1, len(variants))
    assert len(expanded) == expected
    assert len({e.measure_id for e in expanded}) == expected
    for entry in expanded:
        assert "{category}" not in entry.measure_id
        assert "{variant}" not in entry.measure_id


# ---------------------------------------------------------------- reference
# The two-walk expansion that substitutes every base value, overwrites it
# with the overrides, then walks the result again for a leftover
# placeholder. expand_dynamic must give the same ids, data (key order
# included) and error texts for every input whose overrides name no axis.


class _Spec(NamedTuple):
    token: str
    overrides: dict


def _reference_parse_axis(raw: object, axis: str) -> list[_Spec]:
    if raw is None or raw == [] or raw == {}:
        return []
    specs: list[_Spec] = []
    if isinstance(raw, list):
        for item in raw:
            if not isinstance(item, str):
                raise ExpansionError(f"{axis} list items must be strings, got {_echo(item)}")
            specs.append(_Spec(item, {}))
    elif isinstance(raw, dict):
        for token, overrides in raw.items():
            if overrides is None:
                overrides = {}
            if not isinstance(overrides, dict):
                raise ExpansionError(
                    f"{axis}[{_echo(token)}] overrides must be an object, got {_echo(overrides)}"
                )
            specs.append(_Spec(str(token), dict(overrides)))
    else:
        raise ExpansionError(f"{axis} must be a list or object, got {type(raw).__name__}")
    seen: set[str] = set()
    for spec in specs:
        if spec.token in seen:
            raise ExpansionError(f"duplicate {axis} token {_echo(spec.token)}")
        seen.add(spec.token)
    return specs


def _reference_substitute(value: Any, category: str | None, variant: str | None) -> Any:
    if isinstance(value, str):
        if category is not None:
            value = value.replace("{category}", category)
        if variant is not None:
            value = value.replace("{variant}", variant)
        return value
    if isinstance(value, list):
        return [_reference_substitute(v, category, variant) for v in value]
    if isinstance(value, dict):
        return {k: _reference_substitute(v, category, variant) for k, v in value.items()}
    return value


def _reference_residue(value: Any) -> str | None:
    if isinstance(value, str):
        for marker in ("{category}", "{variant}"):
            if marker in value:
                return marker
        return None
    if isinstance(value, list):
        for v in value:
            marker = _reference_residue(v)
            if marker:
                return marker
        return None
    if isinstance(value, dict):
        for v in value.values():
            marker = _reference_residue(v)
            if marker:
                return marker
    return None


def _reference_expand(entry: MeasureEntry) -> list[MeasureEntry]:
    categories = _reference_parse_axis(entry.data.get("categories"), "categories")
    variants = _reference_parse_axis(entry.data.get("variants"), "variants")
    if not categories and not variants:
        return [entry]
    placeholder = {"categories": "{category}", "variants": "{variant}"}
    for axis_name, specs in (("categories", categories), ("variants", variants)):
        if specs and placeholder[axis_name] not in entry.measure_id:
            raise ExpansionError(
                f"id template {entry.measure_id!r} lacks {placeholder[axis_name]}"
                f" for its non-empty {axis_name} axis"
            )
    base = {k: v for k, v in entry.data.items() if k not in ("categories", "variants")}
    expanded: list[MeasureEntry] = []
    seen_ids: set[str] = set()
    for cat, var in product(categories or [None], variants or [None]):
        cat_token = cat.token if cat else None
        var_token = var.token if var else None
        new_id = _reference_substitute(entry.measure_id, cat_token, var_token)
        data = {k: _reference_substitute(v, cat_token, var_token) for k, v in base.items()}
        for spec in (cat, var):
            if spec is None:
                continue
            for element, text in spec.overrides.items():
                data[element] = _reference_substitute(text, cat_token, var_token)
        marker = _reference_residue(new_id) or _reference_residue(data)
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


# Texts that often hold a placeholder, whole or broken; most entries are
# well formed, so most examples expand.
_TEXT = st.sampled_from(["a", "{category}", "{variant}", "{variant} of {category}", "{", ""])
_TOKENS = st.sampled_from(["a", "b", "c", "{category}", "{variant}"])
_ELEMENTS = st.sampled_from(["long_name", "short_name", "statement", "unit"])
_LEAVES = st.none() | st.integers(0, 2) | _TEXT
_FLAT = _LEAVES | st.lists(_LEAVES, max_size=2) | st.dictionaries(_TEXT, _LEAVES, max_size=2)
_VALUES = _FLAT | st.lists(_FLAT, max_size=2)
_OVERRIDES = st.dictionaries(_ELEMENTS, _VALUES, min_size=1, max_size=2) | st.none()
_AXES = (
    st.dictionaries(_TOKENS, _OVERRIDES, min_size=1, max_size=3)
    | st.lists(_TOKENS, min_size=1, max_size=3)
    | st.none()
)


@st.composite
def _dynamic_entries(draw) -> MeasureEntry:
    data = dict(draw(st.lists(st.tuples(_ELEMENTS, _VALUES), max_size=3)))
    data["categories"], data["variants"] = draw(_AXES), draw(_AXES)
    template = "m" + "_{category}" * bool(data["categories"]) + "_{variant}" * bool(data["variants"])
    return MeasureEntry(draw(st.just(template) | _TEXT.map(template.__add__)), data)


def _outcome(expand, entry: MeasureEntry) -> list[tuple[str, str]] | str:
    try:
        return [(e.measure_id, json.dumps(e.data)) for e in expand(entry)]
    except ExpansionError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(_dynamic_entries())
@example(
    MeasureEntry(
        "m_{category}_{variant}",
        {
            "statement": "{variant} in {category}",
            "unit": "u",
            "categories": {"a": {"unit": "{category} people", "long_name": "A"}, "b": None},
            "variants": {"x": {"unit": "per {variant}"}, "y": {}},
        },
    )
)
@example(MeasureEntry("m_{category}", {"unit": ["{variant}", "{category}"], "categories": ["{variant}"]}))
# Both placeholders left in one value, and two combinations giving one id.
@example(MeasureEntry("m_{category}", {"unit": "{variant}{category}category}", "categories": ["{"]}))
@example(MeasureEntry("m_{category}_{variant}", {"categories": ["{variant}", "a"], "variants": ["a"]}))
@example(MeasureEntry("m", {"categories": ["a", "a", 1], "variants": 5}))
@example(MeasureEntry("m_{category}", {"categories": {"a": ["b", 1], "{category}": None}}))
@example(MeasureEntry("m_{variant}_{category}", {"categories": ["a"], "variants": "a"}))
def test_expand_dynamic_matches_the_two_walk_reference(entry):
    assert _outcome(expand_dynamic, entry) == _outcome(_reference_expand, entry)


# ---------------------------------------------------------------- ids path
# expand_ids must give expand_dynamic's ids, or its error text, for every
# entry: where it judges the strings once per entry and where it falls back.

# Strings in which a token completes a placeholder across a join, foreign
# templates, strings holding the sentinel NUL, and braces left open.
_ID_TEXT = st.sampled_from(
    ["a", "{category}", "{variant}"] * 4
    + [
        "", "{", "}", "{variant} of {category}",
        "{{category}ategory}", "{v{category}t}", "{cat{variant}egory}", "{{variant}}",
        "{value} of households in {region.name}.", "{x}", "{category", "\0", "{\0}",
        "a\0{category}", "{ {category} }", "{category}variant}", "{category{variant}",
    ]
)
# Most tokens hold no brace and no NUL, so most entries are judged without the walk.
_ID_TOKENS = st.sampled_from(["a", "b", "c", "arian", "ategory", "", "a_b"] * 3 + ["{", "}", "{x}", "\0", "a\0"])
_ID_LEAVES = st.none() | st.integers(0, 2) | _ID_TEXT
_ID_FLAT = _ID_LEAVES | st.lists(_ID_LEAVES, max_size=2) | st.dictionaries(_ID_TEXT, _ID_LEAVES, max_size=2)
_ID_VALUES = _ID_FLAT | st.lists(_ID_FLAT, max_size=2)
_ID_OVERRIDES = st.dictionaries(_ELEMENTS, _ID_VALUES, min_size=1, max_size=2) | st.none()
_ID_AXES = (
    st.dictionaries(_ID_TOKENS, _ID_OVERRIDES, min_size=1, max_size=3)
    | st.lists(_ID_TOKENS, min_size=1, max_size=3)
    | st.none()
)


# A text and a token of one axis that complete a placeholder once joined.
_JOINS = st.sampled_from(
    [
        ("{{category}ategory}", "categories", "c"),
        ("{v{category}t}", "categories", "arian"),
        ("{cat{variant}egory}", "variants", ""),
        ("x {{variant}ariant} {category}", "variants", "v"),
    ]
)


@st.composite
def _id_entries(draw) -> MeasureEntry:
    data = dict(draw(st.lists(st.tuples(_ELEMENTS, _ID_VALUES), max_size=3)))
    for axis in ("categories", "variants"):
        raw = draw(_ID_AXES)
        if raw is not None or draw(st.booleans()):
            data[axis] = raw
    join = draw(st.none() | _JOINS)
    if join is not None:
        text, axis, token = join
        data[draw(_ELEMENTS)] = [draw(_ID_VALUES), text]
        data[axis] = [token, *(t for t in data.get(axis) or () if isinstance(t, str) and t != token)]
    template = "m" + "_{category}" * bool(data.get("categories")) + "_{variant}" * bool(data.get("variants"))
    return MeasureEntry(draw(st.just(template) | _ID_TEXT.map(template.__add__)), data)


def _ids_outcome(expand, entry: MeasureEntry) -> list[str] | str:
    try:
        return expand(entry)
    except ExpansionError as exc:
        return str(exc)


def _full_ids(entry: MeasureEntry) -> list[str]:
    return [measure.measure_id for measure in expand_dynamic(entry)]


def _judged_ids(entry: MeasureEntry) -> list[str]:
    return expand_ids(entry, expand_dynamic)


@settings(max_examples=120, deadline=None)
@given(_id_entries())
@example(MeasureEntry("m_{category}", {"unit": "{{category}ategory}", "categories": ["c"]}))
@example(MeasureEntry("m_{category}", {"unit": "{v{category}t}", "categories": ["arian"]}))
@example(MeasureEntry("m_{variant}", {"unit": "{cat{variant}egory}", "variants": [""]}))
@example(MeasureEntry("m_{category}", {"unit": ["x", {"k": "{variant}"}], "categories": ["a"]}))
@example(MeasureEntry("m_{category}", {"unit": "{\0}", "categories": ["a"]}))
@example(MeasureEntry("m_{category}", {"categories": ["{", "}"]}))
@example(MeasureEntry("m_{category}", {"unit": "{category}variant}", "categories": ["{"]}))
@example(MeasureEntry("m_{variant}", {"unit": "{category{variant}", "variants": ["}"]}))
@example(MeasureEntry("m_{category}", {"categories": ["a\0", "b"]}))
@example(MeasureEntry("m_{category}_{variant}", {"categories": ["a_b", "a"], "variants": ["c", "b_c"]}))
@example(
    MeasureEntry(
        "m_{category}_{variant}",
        {
            "statement": "{value} of {category} in {region.name}.",
            "categories": {"a": {"unit": "{v{category}t}"}, "arian": None},
            "variants": {"x": {"long_name": "{variant} {category}"}, "y": {}},
        },
    )
)
def test_expand_ids_matches_expand_dynamic(entry):
    assert _ids_outcome(_judged_ids, entry) == _ids_outcome(_full_ids, entry)


def test_the_generated_statement_takes_the_ids_path():
    # "{value}" and "{region.name}" are no placeholders, so an entry built
    # like the generated ones is judged without its full walk.
    entry = MeasureEntry(
        "m_{category}_{variant}",
        {
            "statement": "{value} of households in {region.name}.",
            "sources": [{"name": "Survey of {category}"}],
            "categories": ["naics11", "naics21"],
            "variants": {"rate": {"long_name": "{variant} of {category}"}},
        },
    )

    def refused(_):
        raise AssertionError("full walk")

    assert expand_ids(entry, refused) == _full_ids(entry)


@pytest.mark.parametrize("depth", [50, 5000])
@pytest.mark.parametrize("where", ["base", "override"])
def test_expand_ids_on_entries_nested_in_code(depth, where):
    # Built in code, a value may nest deeper than either walk can go.
    data: dict = {"categories": ["a", "b"]}
    if where == "base":
        data["statement"] = _nested(depth)
    else:
        data["categories"] = {"a": {"statement": _nested(depth)}, "b": None}
    entry = MeasureEntry("m_{category}", data)
    assert _ids_outcome(_judged_ids, entry) == _ids_outcome(_full_ids, entry)
    if depth == 5000:
        assert _ids_outcome(_judged_ids, entry) == "dynamic entry 'm_{category}' nested too deeply"
