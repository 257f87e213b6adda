from __future__ import annotations

import csv
import dataclasses
import json
import math
import re
import tempfile
from decimal import ROUND_HALF_UP, Decimal
from fnmatch import fnmatch
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import example, given, settings, strategies as st

from commonslint.checks import (
    CHECK_NAMES,
    CHECK_ORDER,
    CHECKS,
    CheckItem,
    _Run,
    format_percentage,
    run_suite,
)
from commonslint.cli import main
from commonslint.config import default_config, parse_config
from commonslint.errors import ConfigError, DomainError, ExpansionError
from commonslint.expansion import expand_file
from commonslint.scanner import ParseFailure, parse_data_table, scan_repo
from commonslint.schema import CORE_ELEMENTS
from repo_fixtures import (
    ABSENT,
    LONG_NAME_101,
    build_planted_repo,
    clean_entry,
    flagged_items,
    oracle_payload,
    report_for,
    reports_for,
    write_info,
    write_table,
)

CONFIG = default_config()


def snapshot_of(tmp_path, config=CONFIG):
    return scan_repo(tmp_path, config)


# ---------------------------------------------------------------- catalog shape


def test_catalog_names_frozen():
    assert CHECK_ORDER == (
        "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10", "T11", "T12", "T13", "T14",
    )
    assert "T1" not in CHECK_NAMES  # the catalog gap is deliberate
    assert CHECK_NAMES == {
        "T2": "test_percent_data",
        "T3": "test_measure_info_structure",
        "T4": "test_measure_type",
        "T5": "test_measure_info_missing_measures",
        "T6": "test_columns",
        "T7": "test_measure_info_keys",
        "T8": "test_jsons",
        "T9": "test_region_type",
        "T10": "test_known_measures",
        "T11": "test_file_name",
        "T12": "test_code_exists",
        "T13": "test_file_name_len",
        "T14": "test_measure_info_extra_measures",
    }


def test_check_item_closed_vocabulary():
    with pytest.raises(ValueError, match="verdict"):
        CheckItem(path="x", verdict="dubious")
    with pytest.raises(ValueError, match="detail"):
        CheckItem(path="x", verdict="invalid")


def test_check_item_keeps_its_dataclass_contract():
    # CheckItem is public: its fields, value semantics and immutability are
    # part of the API, whatever its constructor does inside.
    assert [(f.name, f.default) for f in dataclasses.fields(CheckItem)] == [
        ("path", dataclasses.MISSING),
        ("verdict", dataclasses.MISSING),
        ("key", None),
        ("detail", ""),
    ]
    item = CheckItem("a/b.csv", "invalid", "m", "bad")
    assert item == CheckItem(path="a/b.csv", verdict="invalid", key="m", detail="bad")
    assert item != CheckItem("a/b.csv", "invalid", "m", "worse")
    assert item != ("a/b.csv", "invalid", "m", "bad")
    assert hash(item) == hash(CheckItem("a/b.csv", "invalid", "m", "bad"))
    assert len({item, CheckItem("a/b.csv", "invalid", "m", "bad"), CheckItem("x", "valid")}) == 2
    assert repr(item) == "CheckItem(path='a/b.csv', verdict='invalid', key='m', detail='bad')"
    assert repr(CheckItem("x", "valid")) == "CheckItem(path='x', verdict='valid', key=None, detail='')"
    assert dataclasses.asdict(item) == {
        "path": "a/b.csv", "verdict": "invalid", "key": "m", "detail": "bad",
    }
    assert dataclasses.astuple(item) == ("a/b.csv", "invalid", "m", "bad")
    assert dataclasses.replace(item, verdict="valid", detail="") == CheckItem("a/b.csv", "valid", "m")
    with pytest.raises(ValueError, match="missing item for a/b.csv needs a detail"):
        dataclasses.replace(item, verdict="missing", detail="")
    for name in ("path", "verdict", "key", "detail", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(item, name, "x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        del item.path
    assert item == CheckItem("a/b.csv", "invalid", "m", "bad")
    with pytest.raises(TypeError):
        CheckItem("x")
    with pytest.raises(TypeError):
        CheckItem("x", "valid", None, "", "extra")


@pytest.mark.parametrize(
    ("args", "message"),
    [
        # The verdict is judged before the detail, each with its own message.
        (("p", "dubious"), "unknown verdict: 'dubious'"),
        (("p", "dubious", None, ""), "unknown verdict: 'dubious'"),
        (("p", 3), "unknown verdict: 3"),
        (("d/t.csv", "invalid"), "invalid item for d/t.csv needs a detail"),
        (("d/t.csv", "missing", "k"), "missing item for d/t.csv needs a detail"),
        (("d/t.csv", "extra", "k", ""), "extra item for d/t.csv needs a detail"),
        (("d/t.csv", "error", None, None), "error item for d/t.csv needs a detail"),
    ],
)
def test_check_item_validation_messages(args, message):
    with pytest.raises(ValueError) as excinfo:
        CheckItem(*args)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("verdict", ["valid", "skipped"])
def test_check_item_detail_optional_for_passing_verdicts(verdict):
    assert CheckItem("p", verdict).detail == ""
    assert CheckItem("p", verdict, detail="why").detail == "why"


# ---------------------------------------------------------------- format_percentage


@pytest.mark.parametrize(
    ("count", "total", "expected"),
    [(141, 234, "60.3%"), (34, 237, "14.3%"), (0, 10, "0.0%"), (10, 10, "100.0%")],
)
def test_format_percentage_examples(count, total, expected):
    assert format_percentage(count, total) == expected


@pytest.mark.parametrize(("count", "total"), [(1, 0), (0, 0), (-1, 5), (6, 5)])
def test_format_percentage_domain_errors(count, total):
    with pytest.raises(DomainError):
        format_percentage(count, total)


def _reference_percentage(count: int, total: int) -> str:
    """The Decimal formula format_percentage rounded with before it rounded in integers."""
    pct = (Decimal(count) * 100 / Decimal(total)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
    return f"{pct}%"


def test_format_percentage_matches_the_decimal_reference():
    pairs = [(count, total) for total in range(1, 200) for count in range(total + 1)]
    # Ties and near-ties at large totals.
    pairs += [(1, 2_000), (3, 2_000), (10**9 + 1, 2 * 10**12), (10**12 - 1, 10**12), (1, 10**12)]
    assert [format_percentage(*pair) for pair in pairs] == [
        _reference_percentage(*pair) for pair in pairs
    ]


@given(st.integers(min_value=1, max_value=10_000).flatmap(
    lambda total: st.tuples(st.integers(min_value=0, max_value=total), st.just(total))
))
def test_format_percentage_parses_back_close(pair):
    count, total = pair
    rendered = format_percentage(count, total)
    assert rendered.endswith("%")
    assert abs(float(rendered[:-1]) - 100 * count / total) <= 0.05 + 1e-9


# ---------------------------------------------------------------- T2


def test_t2_boundaries_inclusive(tmp_path):
    write_table(
        tmp_path / "t.csv",
        [
            ("01", "2021", "m", "12.5", "percent", "county"),
            ("02", "2021", "m", "99.9", "percent", "county"),
            ("03", "2021", "m", "0.0", "percent", "county"),
            ("04", "2021", "m", "100.0", "percent", "county"),
        ],
    )
    (report,) = reports_for(snapshot_of(tmp_path), CONFIG, "T2")
    (item,) = report.items
    assert item.verdict == "valid"


def test_t2_out_of_range(tmp_path):
    write_table(tmp_path / "t.csv", [("01", "2021", "m", "104.2", "percent", "county")])
    (report,) = reports_for(snapshot_of(tmp_path), CONFIG, "T2")
    (item,) = report.items
    assert item.verdict == "invalid"
    assert "104.2" in item.detail


def test_t2_suspected_fraction(tmp_path):
    write_table(
        tmp_path / "t.csv",
        [
            ("01", "2021", "m", "0.12", "percent", "county"),
            ("02", "2021", "m", "0.45", "percent", "county"),
            ("03", "2021", "m", "0.88", "percent", "county"),
        ],
    )
    (report,) = reports_for(snapshot_of(tmp_path), CONFIG, "T2")
    (item,) = report.items
    assert item.verdict == "invalid"
    assert "0-1 fraction" in item.detail


def test_t2_fraction_needs_min_rows(tmp_path):
    write_table(
        tmp_path / "t.csv",
        [("01", "2021", "m", "0.5", "percent", "county"), ("02", "2021", "m", "0.7", "percent", "county")],
    )
    (report,) = reports_for(snapshot_of(tmp_path), CONFIG, "T2")
    assert report.items[0].verdict == "valid"
    # Lowering the threshold flips the same data to invalid.
    lax = parse_config({"fraction_min_rows": 2})
    (report,) = reports_for(snapshot_of(tmp_path), lax, "T2")
    assert report.items[0].verdict == "invalid"


def test_t2_non_numeric_is_error_blank_is_ignored(tmp_path):
    write_table(
        tmp_path / "t.csv",
        [
            ("01", "2021", "m", "n/a", "percent", "county"),
            ("01", "2021", "ok", "", "percent", "county"),
            ("02", "2021", "ok", "50.0", "percent", "county"),
        ],
    )
    (report,) = reports_for(snapshot_of(tmp_path), CONFIG, "T2")
    verdicts = {item.key: item.verdict for item in report.items}
    assert verdicts == {"m": "error", "ok": "valid"}


@pytest.mark.parametrize("nan", ["nan", "NaN", "-nan"])
def test_t2_nan_is_error(tmp_path, nan):
    write_table(
        tmp_path / "t.csv",
        [
            ("01", "2021", "m", "50.0", "percent", "county"),
            ("02", "2021", "m", nan, "percent", "county"),
        ],
    )
    (report,) = reports_for(snapshot_of(tmp_path), CONFIG, "T2")
    (item,) = report.items
    assert item.verdict == "error"
    assert item.detail == f"non-numeric value {nan!r} for percent measure"


def test_t2_ignores_non_percent_measures(tmp_path):
    write_table(tmp_path / "t.csv", [("01", "2021", "m", "5000", "count", "county")])
    (report,) = reports_for(snapshot_of(tmp_path), CONFIG, "T2")
    assert report.total == 0


def _t2_oracle(path: Path, fraction_min_rows: int) -> list[CheckItem]:
    """T2 items recomputed from csv.DictReader rows, no engine code."""
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    groups: dict[str, list[str]] = {}
    for row in rows:
        if row.get("measure_type", "").strip().lower() == "percent":
            groups.setdefault(row.get("measure", ""), []).append(row.get("value", ""))
    items = []
    for measure in sorted(groups):
        raw = [v for v in groups[measure] if v.strip()]
        numbers = []
        for v in raw:
            try:
                numbers.append(float(v))
            except ValueError:
                numbers.append(math.nan)
        bad = [v for v, x in zip(raw, numbers) if math.isnan(x)]
        out = [x for x in numbers if x < 0 or x > 100]
        if bad:
            verdict, detail = "error", f"non-numeric value {bad[0]!r} for percent measure"
        elif out:
            verdict, detail = "invalid", f"value {out[0]} outside the 0-100 percent range"
        elif len(numbers) >= fraction_min_rows and all(0 <= x <= 1 for x in numbers):
            verdict, detail = "invalid", (
                f"suspected 0-1 fraction: all {len(numbers)} values fall within"
                " [0, 1]; percents use the 0-100 scale"
            )
        else:
            verdict, detail = "valid", ""
        items.append(CheckItem(path.name, verdict, measure or None, detail))
    return items


_CELLS = {
    "measure": st.sampled_from(["a", "b", ""]),
    "measure_type": st.sampled_from(["percent", "Percent ", "count"]),
    "geoid": st.sampled_from(["01", "02", ""]),
    "region_type": st.sampled_from(["county", "state", ""]),
}
_VALUES = st.sampled_from(
    ["", " ", "50", "12.5", "0", "100", "100.5", "-3", "1e2", "nan", "NaN", "inf", "-inf", "n/a"]
) | st.floats(-10, 120).map(lambda x: f"{x:.2f}")
_FRACTIONS = st.sampled_from(["", "0", "0.25", "0.5", "1", "1.0"])


@st.composite
def _tables(draw):
    """A header (names may repeat or be missing) and rows, some after a blank line."""
    dropped = draw(st.sampled_from([None, "measure", "measure_type", "value"]))
    extra = draw(st.lists(st.sampled_from([*_CELLS, "value"]), max_size=3))
    base = [c for c in ("measure", "measure_type", "value") if c != dropped]
    header = draw(st.permutations(base + extra))
    values = draw(st.sampled_from([_VALUES, _FRACTIONS]))
    row = st.tuples(*(_CELLS.get(column, values) for column in header))
    rows = draw(st.lists(row, max_size=12))
    blanks = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    return header, rows, blanks


@settings(max_examples=150, deadline=None)
@given(table=_tables(), fraction_min_rows=st.integers(1, 4))
def test_t2_matches_a_dictreader_oracle(table, fraction_min_rows):
    header, rows, blanks = table
    config = parse_config({"fraction_min_rows": fraction_min_rows})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for row, blank in zip(rows, blanks):
                if blank:
                    handle.write("\r\n")
                writer.writerow(row)
        (report,) = reports_for(scan_repo(tmp, config), config, "T2")
        assert list(report.items) == _t2_oracle(path, fraction_min_rows)

        parsed = parse_data_table(path, "t.csv")
        with path.open(encoding="utf-8", newline="") as handle:
            dict_rows = list(csv.DictReader(handle))
        assert parsed.row_count == len(dict_rows)
        for column, distinct in (
            ("measure", parsed.distinct_measures),
            ("measure_type", parsed.distinct_measure_types),
            ("region_type", parsed.distinct_region_types),
        ):
            assert distinct == {row[column] for row in dict_rows if column in row}


# ---------------------------------------------------------------- T3 / T7


def test_t3_t7_clean_entry(tmp_path):
    write_info(tmp_path / "measure_info.json", {"m": clean_entry("m")})
    t3, t7 = reports_for(snapshot_of(tmp_path), CONFIG, "T3", "T7")
    assert [i.verdict for i in t3.items] == ["valid"]
    assert [i.verdict for i in t7.items] == ["valid"]


def test_t3_flags_disallowed_key_t7_flags_absent_and_blank(tmp_path):
    write_info(
        tmp_path / "measure_info.json",
        {
            "bad_key": clean_entry("bad_key", colour_scheme="viridis"),
            "sparse": clean_entry("sparse", short_name=ABSENT, unit=""),
        },
    )
    t3, t7 = reports_for(snapshot_of(tmp_path), CONFIG, "T3", "T7")
    t3_bad = {i.key: i for i in t3.items if i.verdict != "valid"}
    assert set(t3_bad) == {"bad_key"}
    assert "colour_scheme" in t3_bad["bad_key"].detail
    t7_bad = {i.key: i for i in t7.items if i.verdict != "valid"}
    assert set(t7_bad) == {"sparse"}
    assert "blank" in t7_bad["sparse"].detail


# Entry keys come from the core elements plus names outside them, the empty
# name among them. Each value is drawn with whether T7 must count it blank.
_KEY_NAMES = (*CORE_ELEMENTS, "", "colour_scheme", "notes", "region_type")
_TAGGED_VALUES = st.sampled_from(
    [(value, True) for value in (None, "", [], {})]
    + [(value, False) for value in (0, False, " ", "x", [0], {"a": 1})]
)
# None keeps the default key set.
_KEY_SETS = st.none() | st.lists(st.sampled_from(_KEY_NAMES), unique=True)


def _filled(data: dict) -> dict:
    return {key: (value, False) for key, value in data.items()}


def _key_oracle(path, measure_id, entry, allowed, expected):
    """T3's and T7's items for one tagged entry, by asking every name in turn."""
    names = sorted(_KEY_NAMES)
    disallowed = [k for k in names if k in entry and k not in allowed]
    absent = [k for k in names if k in expected and k not in entry]
    blank = [k for k in names if k in expected and k in entry and entry[k][1]]
    t3 = [f"keys outside the allowable list: {', '.join(disallowed)}"] if disallowed else []
    t7 = [
        f"{label}: {', '.join(keys)}"
        for label, keys in (("absent", absent), ("blank", blank))
        if keys
    ]
    return tuple(
        CheckItem(path, "invalid", key=measure_id, detail="; ".join(problems))
        if problems
        else CheckItem(path, "valid", key=measure_id)
        for problems in (t3, t7)
    )


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.dictionaries(st.sampled_from(_KEY_NAMES), _TAGGED_VALUES, max_size=6), max_size=3
    ),
    allowed=_KEY_SETS,
    expected=_KEY_SETS,
)
# A complete entry is valid under the defaults.
@example(entries=[_filled(clean_entry("m0"))], allowed=None, expected=None)
# A disallowed key, a blank key and absent keys, each reported apart.
@example(
    entries=[
        {"short_name": ("", True), "colour_scheme": ("viridis", False)},
        {},
        {"unit": ("", True)},
    ],
    allowed=None,
    expected=None,
)
# The empty name is a key like any other.
@example(entries=[{"": ("x", False)}, {}], allowed=None, expected=[""])
# Schema overrides replace the default key sets.
@example(
    entries=[_filled({"short_name": "s", "long_name": "l"})],
    allowed=["short_name"],
    expected=["unit"],
)
def test_t3_t7_match_a_key_set_oracle(entries, allowed, expected):
    config = parse_config({"schema": {"allowed_keys": allowed, "expected_keys": expected}})
    allowed_set = set(CORE_ELEMENTS if allowed is None else allowed)
    expected_set = set(expected) if expected is not None else (
        set(CORE_ELEMENTS) - {"categories", "variants"}
    )
    ids = [f"m{i}" for i in range(len(entries))]
    with tempfile.TemporaryDirectory() as tmp:
        write_info(
            Path(tmp) / "measure_info.json",
            {
                mid: {key: value for key, (value, _) in entry.items()}
                for mid, entry in zip(ids, entries)
            },
        )
        t3, t7 = reports_for(scan_repo(tmp, config), config, "T3", "T7")
    oracle = [
        _key_oracle("measure_info.json", mid, entry, allowed_set, expected_set)
        for mid, entry in zip(ids, entries)
    ]
    assert list(t3.items) == [items[0] for items in oracle]
    assert list(t7.items) == [items[1] for items in oracle]


def test_t3_reserved_structures_allowed(tmp_path):
    write_info(
        tmp_path / "measure_info.json",
        {
            "dyn_{category}_{variant}": clean_entry(
                "dyn", categories=["a"], variants=["v"]
            ),
        },
        references={"lou04": {"title": "T"}},
    )
    (t3,) = reports_for(snapshot_of(tmp_path), CONFIG, "T3")
    assert all(i.verdict == "valid" for i in t3.items)
    assert {i.key for i in t3.items} == {"dyn_{category}_{variant}", "_references"}


def test_t3_flags_empty_reference(tmp_path):
    write_info(tmp_path / "measure_info.json", {"m": clean_entry("m")}, references={"r1": {}})
    (t3,) = reports_for(snapshot_of(tmp_path), CONFIG, "T3")
    ref_item = next(i for i in t3.items if i.key == "_references")
    assert ref_item.verdict == "invalid"


def test_t3_t7_unparseable_file_is_error(tmp_path):
    (tmp_path / "measure_info.json").write_text('{"m":', encoding="utf-8")
    t3, t7 = reports_for(snapshot_of(tmp_path), CONFIG, "T3", "T7")
    assert [i.verdict for i in t3.items] == ["error"]
    assert [i.verdict for i in t7.items] == ["error"]


# ---------------------------------------------------------------- T5 / T14


def _paired_repo(tmp_path, info_ids, data_ids):
    write_info(
        tmp_path / "data" / "distribution" / "measure_info.json",
        {mid: clean_entry(mid) for mid in info_ids},
    )
    write_table(
        tmp_path / "data" / "distribution" / "t.csv",
        [("01", "2021", mid, "50.0", "percent", "county") for mid in data_ids],
    )


def test_t5_t14_agreement(tmp_path):
    _paired_repo(tmp_path, ["a", "b"], ["a", "b"])
    t5, t14 = reports_for(snapshot_of(tmp_path), CONFIG, "T5", "T14")
    assert all(i.verdict == "valid" for i in t5.items)
    assert all(i.verdict == "valid" for i in t14.items)


def test_t5_missing_measure(tmp_path):
    _paired_repo(tmp_path, ["a"], ["a", "b"])
    t5, t14 = reports_for(snapshot_of(tmp_path), CONFIG, "T5", "T14")
    assert flagged_items(t5) == {("data/distribution/t.csv", "b", "missing")}
    assert flagged_items(t14) == set()


def test_t14_extra_measure(tmp_path):
    _paired_repo(tmp_path, ["a", "a_old"], ["a"])
    t5, t14 = reports_for(snapshot_of(tmp_path), CONFIG, "T5", "T14")
    assert flagged_items(t5) == set()
    assert flagged_items(t14) == {
        ("data/distribution/measure_info.json", "a_old", "extra")
    }


def test_t5_unpaired_table_distinct_verdict_class(tmp_path):
    write_table(tmp_path / "loose.csv", [("01", "2021", "m", "1.0", "percent", "county")])
    (t5,) = reports_for(snapshot_of(tmp_path), CONFIG, "T5")
    (item,) = t5.items
    assert item.verdict == "invalid"
    assert "no measure_info" in item.detail


def test_t5_pairs_with_nearest_ancestor(tmp_path):
    # Root metadata covers m_root; the nested dir has its own file which wins.
    write_info(tmp_path / "measure_info.json", {"m_root": clean_entry("m_root")})
    write_info(tmp_path / "nested" / "measure_info.json", {"m_near": clean_entry("m_near")})
    write_table(tmp_path / "nested" / "t.csv", [("01", "2021", "m_root", "5", "count", "county")])
    t5, t14 = reports_for(snapshot_of(tmp_path), CONFIG, "T5", "T14")
    assert flagged_items(t5) == {("nested/t.csv", "m_root", "missing")}
    # m_root is extra for the root file (no tables pair with it), m_near for its own.
    assert ("measure_info.json", "m_root", "extra") in flagged_items(t14)
    assert ("nested/measure_info.json", "m_near", "extra") in flagged_items(t14)


def test_ambiguous_pairing_is_an_error(tmp_path):
    config = parse_config({"metadata_filename": "measure_info*.json"})
    write_info(tmp_path / "measure_info.json", {"a": clean_entry("a")})
    write_info(tmp_path / "measure_info_v2.json", {"a": clean_entry("a")})
    write_table(tmp_path / "t.csv", [("01", "2021", "a", "5", "count", "county")])
    t5, t14 = reports_for(snapshot_of(tmp_path, config), config, "T5", "T14")
    assert [i.verdict for i in t5.items] == ["error"]
    assert all(i.verdict == "error" for i in t14.items)
    assert t14.total == 2


def test_broken_info_gives_errors_on_both_sides(tmp_path):
    (tmp_path / "measure_info.json").write_text("{bad json", encoding="utf-8")
    write_table(tmp_path / "t.csv", [("01", "2021", "a", "5", "count", "county")])
    t5, t14 = reports_for(snapshot_of(tmp_path), CONFIG, "T5", "T14")
    assert [i.verdict for i in t5.items] == ["error"]
    assert [i.verdict for i in t14.items] == ["error"]


def test_t5_t14_use_expanded_ids(tmp_path):
    write_info(
        tmp_path / "measure_info.json",
        {"m_{variant}": clean_entry("m", variants=["mean", "median"])},
    )
    write_table(
        tmp_path / "t.csv",
        [
            ("01", "2021", "m_mean", "5", "count", "county"),
            ("01", "2021", "m_median", "6", "count", "county"),
        ],
    )
    t5, t14 = reports_for(snapshot_of(tmp_path), CONFIG, "T5", "T14")
    assert all(i.verdict == "valid" for i in t5.items)
    assert {i.key for i in t14.items} == {"m_mean", "m_median"}
    assert all(i.verdict == "valid" for i in t14.items)


def test_unexpandable_dynamic_entry_is_error_not_crash(tmp_path):
    write_info(
        tmp_path / "measure_info.json",
        {"fixed_id": clean_entry("fixed_id", categories=["a", "b"])},
    )
    write_table(tmp_path / "t.csv", [("01", "2021", "fixed_id", "5", "count", "county")])
    (t14,) = reports_for(snapshot_of(tmp_path), CONFIG, "T14")
    (item,) = t14.items
    assert item.verdict == "error"
    assert item.key == "fixed_id"


@pytest.mark.parametrize(
    ("order", "failed_key"),
    [(["bb_{category}", "bb_a"], "bb_a"), (["bb_a", "bb_{category}"], "bb_{category}")],
)
def test_expansion_collision_is_error_as_in_expand(tmp_path, order, failed_key):
    # The later of two entries whose ids collide after expansion fails, with
    # the message ``expand`` stops on.
    entries = {
        "bb_{category}": clean_entry("bb", categories=["a", "b"]),
        "bb_a": clean_entry("bb_a"),
    }
    path = tmp_path / "measure_info.json"
    path.write_text(json.dumps({mid: entries[mid] for mid in order}), encoding="utf-8")
    write_table(
        tmp_path / "t.csv",
        [
            ("01", "2021", "bb_a", "5", "count", "county"),
            ("01", "2021", "bb_b", "6", "count", "county"),
        ],
    )
    snapshot = snapshot_of(tmp_path)
    suite = run_suite(snapshot, CONFIG)
    assert [r.check.id for r in suite.reports if not r.passed] == ["T14"]
    assert not suite.overall_pass
    t14 = report_for(suite, "T14")
    assert flagged_items(t14) == {("measure_info.json", failed_key, "error")}
    (error,) = [i for i in t14.items if i.verdict == "error"]
    with pytest.raises(ExpansionError) as raised:
        expand_file(snapshot.parsed_measure_infos[0])
    assert str(raised.value) == "expanded id 'bb_a' collides with an existing entry"
    assert str(raised.value) in error.detail


def test_check_survives_a_paired_table_that_fails_to_parse(tmp_path, capsys):
    dist = tmp_path / "repo" / "d0" / "data" / "distribution"
    dist.mkdir(parents=True)
    (dist / "measure_info.json").write_text('{"m": {"measure_type": "count"}}\n', encoding="utf-8")
    (dist / "m.csv").write_text(
        "geoid,year,measure,value,measure_type\n1,2021,m,3,count,x\n", encoding="utf-8"
    )
    code = main(["check", "--repo", str(tmp_path / "repo"), "--out", str(tmp_path / "out")])
    assert "Traceback" not in capsys.readouterr().err
    assert code == 1
    assert (tmp_path / "out" / "suite.json").is_file()


# ---------------------------------------------------------------- T4 / T6 / T9 / T10


def test_t4_t9_vocabularies(tmp_path):
    write_table(
        tmp_path / "t.csv",
        [
            ("01", "2021", "m", "1", "percent", "county"),
            ("01", "2021", "m2", "2", "bogus_type", "galaxy"),
        ],
    )
    t4, t9 = reports_for(snapshot_of(tmp_path), CONFIG, "T4", "T9")
    assert flagged_items(t4) == {("t.csv", "bogus_type", "invalid")}
    assert flagged_items(t9) == {("t.csv", "galaxy", "invalid")}


def test_t6_missing_and_unexpected_columns(tmp_path):
    write_table(
        tmp_path / "t.csv",
        [("2021", "m", "1", "percent", "surprise")],
        columns=("year", "measure", "value", "measure_type", "wildcard"),
    )
    (t6,) = reports_for(snapshot_of(tmp_path), CONFIG, "T6")
    (item,) = t6.items
    assert item.verdict == "invalid"
    assert "missing columns: geoid" in item.detail
    assert "unexpected columns: wildcard" in item.detail


def test_t6_optional_columns_allowed(tmp_path):
    write_table(
        tmp_path / "t.csv",
        [("01", "2021", "m", "1", "count", "county", "Albemarle")],
        columns=("geoid", "year", "measure", "value", "measure_type", "region_type", "region_name"),
    )
    (t6,) = reports_for(snapshot_of(tmp_path), CONFIG, "T6")
    assert [i.verdict for i in t6.items] == ["valid"]


def test_t9_vacuous_without_region_type_column(tmp_path):
    write_table(
        tmp_path / "t.csv",
        [("01", "2021", "m", "1", "count")],
        columns=("geoid", "year", "measure", "value", "measure_type"),
    )
    (t9,) = reports_for(snapshot_of(tmp_path), CONFIG, "T9")
    assert t9.total == 0


def test_t10_skipped_without_known_list(tmp_path):
    write_table(tmp_path / "t.csv", [("01", "2021", "m", "1", "count", "county")])
    (t10,) = reports_for(snapshot_of(tmp_path), CONFIG, "T10")
    assert [i.verdict for i in t10.items] == ["skipped"]


def test_t10_with_known_list(tmp_path):
    config = parse_config({"known_measures": ["m"]})
    write_table(
        tmp_path / "t.csv",
        [("01", "2021", "m", "1", "count", "county"), ("01", "2021", "rogue", "1", "count", "county")],
    )
    (t10,) = reports_for(snapshot_of(tmp_path), config, "T10")
    assert flagged_items(t10) == {("t.csv", "rogue", "invalid")}


def test_unparseable_table_is_error_in_all_four(tmp_path):
    (tmp_path / "ragged.csv").write_text("a,b\n1,2,3\n", encoding="utf-8")
    reports = reports_for(snapshot_of(tmp_path), CONFIG, "T4", "T6", "T9", "T10")
    for report in reports:
        assert [i.verdict for i in report.items] == ["error"]


# ---------------------------------------------------------------- T11 / T12 / T13


def test_t11_naming_violations(tmp_path):
    (tmp_path / "Urgent Care Final.CSV").write_text("a\n", encoding="utf-8")
    (tmp_path / "fine-name.csv").write_text("a\n", encoding="utf-8")
    (t11,) = reports_for(snapshot_of(tmp_path), CONFIG, "T11")
    bad = {i.path: i for i in t11.items if i.verdict == "invalid"}
    assert set(bad) == {"Urgent Care Final.CSV"}
    assert "pattern" in bad["Urgent Care Final.CSV"].detail


def test_t11_extension_allowlist(tmp_path):
    (tmp_path / "binary.exe").write_text("x", encoding="utf-8")
    (t11,) = reports_for(snapshot_of(tmp_path), CONFIG, "T11")
    (item,) = [i for i in t11.items if i.verdict == "invalid"]
    assert "allowlist" in item.detail


def test_t11_extension_entries_match_in_any_case(tmp_path):
    (tmp_path / "a.csv").write_text("a\n", encoding="utf-8")
    (tmp_path / "b.JSON").write_text("{}", encoding="utf-8")
    config = parse_config({"naming": {"extensions": ["CSV", "json"], "pattern": ".+"}})
    (t11,) = reports_for(snapshot_of(tmp_path, config), config, "T11")
    assert [(i.path, i.verdict) for i in t11.items] == [("a.csv", "valid"), ("b.JSON", "valid")]


def test_t12_missing_and_present_code(tmp_path):
    write_table(
        tmp_path / "ds" / "data" / "distribution" / "t.csv",
        [("01", "2021", "m", "1", "count", "county")],
    )
    t11, t12 = reports_for(snapshot_of(tmp_path), CONFIG, "T11", "T12")
    assert flagged_items(t12) == {("ds/data/distribution", None, "invalid")}
    # Adding a populated code/distribution dir fixes it.
    code = tmp_path / "ds" / "code" / "distribution" / "build.py"
    code.parent.mkdir(parents=True)
    code.write_text("pass\n", encoding="utf-8")
    (t12,) = reports_for(snapshot_of(tmp_path), CONFIG, "T12")
    assert [i.verdict for i in t12.items] == ["valid"]


def test_t13_length_boundary(tmp_path):
    (tmp_path / ("b" * 96 + ".txt")).write_text("x", encoding="utf-8")  # exactly 100
    (tmp_path / LONG_NAME_101).write_text("x", encoding="utf-8")  # 101
    (t13,) = reports_for(snapshot_of(tmp_path), CONFIG, "T13")
    verdicts = {i.path: i.verdict for i in t13.items}
    assert verdicts["b" * 96 + ".txt"] == "valid"
    assert verdicts[LONG_NAME_101] == "invalid"


# Extensions in mixed case, so that T11's case rule shows.
_EXTENSIONS = st.sampled_from(["csv", "CSV", "Csv", "json", "JSON", "txt", "exe", "gz"])
_STEMS = st.text(alphabet="abZ9_- .", max_size=6)


@st.composite
def _named_trees(draw):
    """A filename_limit, and file names: with an extension, without one, dotfiles,
    and names of exactly the limit and one past it. Each goes at the root or in sub/."""
    limit = draw(st.integers(min_value=6, max_value=12))
    name = st.one_of(
        st.builds("{}.{}".format, _STEMS, _EXTENSIONS),
        _STEMS,
        st.builds(".{}".format, _EXTENSIONS),
        st.builds(
            lambda ext, over: "n" * (limit - len(ext) - 1 + over) + "." + ext,
            _EXTENSIONS,
            st.integers(min_value=0, max_value=1),
        ),
    ).filter(lambda n: n not in ("", ".", ".."))
    names = draw(st.lists(name, unique=True, max_size=6))
    return limit, [("sub/" if draw(st.booleans()) else "") + n for n in names]


def _name_oracle(path: str, config) -> tuple[CheckItem, CheckItem]:
    """T11's and T13's items for one file, from the README's rules."""
    base = PurePosixPath(path).name
    _, dot, after = base.rpartition(".")
    extension = after.lower() if dot else ""
    t11 = []
    if re.fullmatch(config.naming_pattern, base) is None:
        t11.append(f"name does not match pattern {config.naming_pattern}")
    if extension not in {e.lower() for e in config.allowed_extensions}:
        t11.append(f"extension {extension or '(none)'} not in the allowlist")
    t13 = []
    if len(base) > config.filename_limit:
        t13.append(f"file name is {len(base)} characters; limit is {config.filename_limit}")
    return tuple(
        CheckItem(path, "invalid", detail="; ".join(problems))
        if problems
        else CheckItem(path, "valid")
        for problems in (t11, t13)
    )


@settings(max_examples=40, deadline=None)
@given(
    tree=_named_trees(),
    extensions=st.none() | st.lists(st.sampled_from(["csv", "CSV", "Json", "TXT", "gz"]), max_size=3),
    pattern=st.sampled_from([None, r"[A-Za-z0-9._ -]*"]),
)
# An upper-case entry admits its lower-case files, and a file of exactly the
# limit is valid while one past it is not.
@example(tree=(8, ["a.csv", "b.CSV", "nnnn.csv", "nnnnn.csv"]), extensions=["CSV"], pattern=None)
# A dotfile's extension is the text after its dot; a name with no dot has none.
@example(tree=(8, [".csv", "sub/ab", "a.", "sub/.JSON"]), extensions=None, pattern=None)
def test_t11_t13_match_a_name_oracle(tree, extensions, pattern):
    limit, paths = tree
    naming = {"extensions": extensions} if extensions is not None else {}
    if pattern is not None:
        naming["pattern"] = pattern
    config = parse_config({"filename_limit": limit, "naming": naming})
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "sub").mkdir()
        for path in paths:
            (Path(tmp) / path).write_bytes(b"")
        t11, t13 = reports_for(scan_repo(tmp, config), config, "T11", "T13")
    oracle = [_name_oracle(path, config) for path in sorted(paths)]
    assert list(t11.items) == [items[0] for items in oracle]
    assert list(t13.items) == [items[1] for items in oracle]


# ---------------------------------------------------------------- T8


def test_t8_valid_and_invalid_json(tmp_path):
    (tmp_path / "good.json").write_text('{"a": 1}', encoding="utf-8")
    (tmp_path / "bad.json").write_text('{"a": }', encoding="utf-8")
    (report,) = reports_for(snapshot_of(tmp_path), CONFIG, "T8")
    verdicts = {i.path: i.verdict for i in report.items}
    assert verdicts == {"good.json": "valid", "bad.json": "invalid"}
    bad = next(i for i in report.items if i.path == "bad.json")
    assert "line" in bad.detail


def test_t8_vacuous_without_json_files(tmp_path):
    (tmp_path / "notes.txt").write_text("hello", encoding="utf-8")
    (report,) = reports_for(snapshot_of(tmp_path), CONFIG, "T8")
    assert report.total == 0
    assert report.passed


def test_t8_reads_the_extension_from_the_basename(tmp_path):
    # A root file named `json` has no extension, as T11 reads it.
    (tmp_path / "json").write_text("{not json", encoding="utf-8")
    (tmp_path / "ok.json").write_text('{"a": 1}', encoding="utf-8")
    (report,) = reports_for(snapshot_of(tmp_path), CONFIG, "T8")
    assert [(i.path, i.verdict) for i in report.items] == [("ok.json", "valid")]


_T8_PATHS = st.tuples(
    st.sampled_from(["", "sub/"]),
    st.sampled_from(["", "a", "json", "b.json", "measure_info"]),
    st.sampled_from(["", ".json", ".JSON", ".geojson", ".GeoJSON", ".json.gz", ".txt"]),
).map("".join).filter(lambda path: path.rpartition("/")[2] != "")
_T8_CONTENTS = [
    b'{"m": {"a": 1}}',
    b"{not json",
    b"[1, 2]",  # a measure_info file that fails only its structure check
    b'{"m": 1}',
    b'{"a": 1, "a": 2}',
    b'{"a": "\xff"}',
    b"",
]


def _t8_oracle(root: Path, paths: list[str]) -> list[tuple[str, str]]:
    """T8's (path, verdict) items, from the README's rules."""
    items = []
    for path in sorted(paths):
        base = PurePosixPath(path).name
        _, dot, after = base.rpartition(".")
        judged = dot and after.lower() in ("json", "geojson")
        if not (judged or fnmatch(base, CONFIG.metadata_filename)):
            continue
        try:
            json.loads((root / path).read_bytes().decode("utf-8"))
        except (OSError, ValueError):
            items.append((path, "invalid"))
        else:
            items.append((path, "valid"))
    return items


@settings(max_examples=30, deadline=None)
@given(
    files=st.lists(
        st.tuples(_T8_PATHS, st.sampled_from(_T8_CONTENTS), st.booleans()),
        unique_by=lambda file: file[0],
        max_size=6,
    )
)
# A root file named `json` has no extension and is not judged.
@example(files=[("json", b"{not json", False), ("b.json", b"{}", False)])
# A file gone after the walk is unreadable, so invalid; a dotfile is judged.
@example(
    files=[
        ("a.json", b"{}", True),
        ("sub/measure_info.json", b"{not json", True),
        ("measure_info.json", b"[1, 2]", False),
        ("sub/.GeoJSON", b"{not json", False),
    ]
)
def test_t8_matches_a_json_oracle(files):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "sub").mkdir()
        for path, data, _ in files:
            (root / path).write_bytes(data)
        snapshot = scan_repo(root, CONFIG)
        # Removed after the walk, so the snapshot lists a file it cannot read.
        for path, _, gone in files:
            if gone:
                (root / path).unlink()
        (report,) = reports_for(snapshot, CONFIG, "T8")
        items = [(item.path, item.verdict) for item in report.items]
        assert items == _t8_oracle(root, [path for path, _, _ in files])


# ---------------------------------------------------------------- suite


def test_run_suite_clean_repo_passes(clean_repo):
    suite = run_suite(scan_repo(clean_repo, CONFIG), CONFIG)
    assert suite.overall_pass
    assert [r.check.id for r in suite.reports] == list(CHECK_ORDER)


def test_run_suite_selection(clean_repo):
    suite = run_suite(scan_repo(clean_repo, CONFIG), CONFIG, selected={"T8"})
    assert [r.check.id for r in suite.reports] == ["T8"]
    with pytest.raises(ConfigError, match="T99"):
        run_suite(scan_repo(clean_repo, CONFIG), CONFIG, selected={"T99"})


def test_run_suite_planted_fails_and_counts_conserve(planted_repo):
    root, _ = planted_repo
    from commonslint.config import load_config

    config = load_config(repo_root=root)
    suite = run_suite(scan_repo(root, config), config)
    assert not suite.overall_pass
    for report in suite.reports:
        assert sum(report.counts.values()) == report.total == len(report.items)


def test_report_counts_once_and_passed_agrees_with_its_items(planted_repo):
    root, _ = planted_repo
    suite = run_suite(scan_repo(root, CONFIG), CONFIG)
    for report in suite.reports:
        assert report.counts is report.counts
        assert report.passed == all(i.verdict in ("valid", "skipped") for i in report.items)
    assert {r.passed for r in suite.reports} == {True, False}


def test_run_suite_idempotent(planted_repo):
    root, _ = planted_repo
    snapshot = scan_repo(root, CONFIG)
    assert run_suite(snapshot, CONFIG) == run_suite(snapshot, CONFIG)


def test_warn_tier_does_not_gate(tmp_path):
    config = parse_config({"known_measures": ["known"]})
    write_info(
        tmp_path / "data" / "distribution" / "measure_info.json",
        {"rogue": clean_entry("rogue"), "known": clean_entry("known")},
    )
    write_table(
        tmp_path / "data" / "distribution" / "t.csv",
        [
            ("01", "2021", "rogue", "1", "count", "county"),
            ("01", "2021", "known", "1", "count", "county"),
        ],
    )
    code = tmp_path / "code" / "distribution" / "build.py"
    code.parent.mkdir(parents=True, exist_ok=True)
    code.write_text("pass\n", encoding="utf-8")
    suite = run_suite(scan_repo(tmp_path, config), config)
    # T10 flags rogue but is warn-tier by default, so the suite passes.
    assert flagged_items(report_for(suite, "T10")) == {("data/distribution/t.csv", "rogue", "invalid")}
    assert suite.overall_pass
    # Strict mode upgrades the warning to enforced and the suite fails.
    strict = run_suite(scan_repo(tmp_path, config), config, strict=True)
    assert not strict.overall_pass


def test_dev_mode_downgrades_everything(planted_repo):
    root, _ = planted_repo
    suite = run_suite(scan_repo(root, CONFIG), CONFIG, dev=True)
    assert suite.overall_pass
    assert set(suite.enforcement.values()) == {"warn"}


def test_dev_and_strict_together_are_a_config_error(planted_repo):
    root, _ = planted_repo
    with pytest.raises(ConfigError, match="dev and strict are exclusive"):
        run_suite(scan_repo(root, CONFIG), CONFIG, dev=True, strict=True)


def test_off_tier_excluded_from_gating(tmp_path):
    (tmp_path / LONG_NAME_101).write_text("x", encoding="utf-8")
    config = parse_config({"checks": {"T13": {"enforcement": "off"}}})
    suite = run_suite(scan_repo(tmp_path, config), config)
    assert not report_for(suite, "T13").passed
    assert suite.overall_pass


def test_path_scoping_excludes_items(tmp_path):
    (tmp_path / "legacy").mkdir()
    (tmp_path / "legacy" / LONG_NAME_101).write_text("x", encoding="utf-8")
    config = parse_config({"checks": {"T13": {"exclude": ["legacy/*"]}}})
    suite = run_suite(scan_repo(tmp_path, config), config)
    assert report_for(suite, "T13").total == 0
    assert suite.overall_pass


def test_monotonicity_adding_violations_never_helps(planted_repo):
    root, _ = planted_repo
    from commonslint.config import load_config

    config = load_config(repo_root=root)
    before = run_suite(scan_repo(root, config), config)
    # Plant one more violating file (a second over-long name).
    (root / "assets" / ("c" * 97 + ".txt")).write_text("x", encoding="utf-8")
    after = run_suite(scan_repo(root, config), config)
    for cid in CHECK_ORDER:
        b, a = report_for(before, cid).counts, report_for(after, cid).counts
        for verdict in ("invalid", "missing", "extra", "error"):
            assert a[verdict] >= b[verdict]
    assert not after.overall_pass


def test_suite_report_serializes(planted_repo):
    root, _ = planted_repo
    suite = run_suite(scan_repo(root, CONFIG), CONFIG)
    payload = oracle_payload(suite)
    json.dumps(payload)  # JSON-serializable
    assert [c["id"] for c in payload["checks"]] == list(CHECK_ORDER)
    assert dataclasses.asdict(suite.reports[0].items[0]).keys() == {
        "path", "verdict", "key", "detail",
    }


# ---------------------------------------------------------------- runner oracle
# The runner's own rules, written again from the README: a check's items are
# those of the subjects in its include/exclude scope (for a repo check, the
# items whose path is in scope), a subject that failed to parse gives one
# error item, a check passes when every item is valid or skipped, dev and
# strict move only the enforced and warn tiers, and the run passes when every
# enforced check passes. Checks run alone give the items of the full run.


@pytest.fixture(scope="module")
def runner_snapshot(tmp_path_factory):
    root = tmp_path_factory.mktemp("runner") / "repo"
    build_planted_repo(root)
    (root / "d6_broken" / "data").mkdir(parents=True)
    (root / "d6_broken" / "data" / "ragged.csv").write_text("a,b\n1,2,3\n", encoding="utf-8")
    (root / "d6_broken" / "data" / "measure_info.json").write_text('{"m":', encoding="utf-8")
    snapshot = scan_repo(root, CONFIG)
    assert any(isinstance(t, ParseFailure) for t in snapshot.data_tables)
    assert any(isinstance(i, ParseFailure) for i in snapshot.measure_info_files)
    return snapshot


_PATTERNS = st.sampled_from(
    ["*", "d0_clean/*", "d[0-2]*", "*.csv", "*.json", "*/distribution/*", "assets/*", "d6*", "none"]
)
_SETTINGS = st.fixed_dictionaries(
    {},
    optional={
        "enforcement": st.sampled_from(["enforced", "warn", "off"]),
        "include": st.lists(_PATTERNS, min_size=1, max_size=2),
        "exclude": st.lists(_PATTERNS, min_size=1, max_size=2),
    },
)


def _in_scope(path: str, settings: dict) -> bool:
    include, exclude = settings.get("include", []), settings.get("exclude", [])
    if include and not any(fnmatch(path, pattern) for pattern in include):
        return False
    return not any(fnmatch(path, pattern) for pattern in exclude)


def _oracle_items(check, snapshot, config, settings: dict) -> list[CheckItem]:
    run = _Run(snapshot, config)
    if check.subject == "repo":
        return [item for item in check.visit(snapshot, run) if _in_scope(item.path, settings)]
    subjects = {
        "table": snapshot.data_tables, "info": snapshot.measure_info_files, "file": snapshot.files,
    }[check.subject]
    items: list[CheckItem] = []
    for subject in subjects:
        if not _in_scope(subject.path, settings):
            continue
        if isinstance(subject, ParseFailure):
            noun = "table" if check.subject == "table" else "file"
            detail = f"{noun} could not be parsed: {subject.message}"
            items.append(CheckItem(subject.path, "error", detail=detail))
        else:
            items.extend(check.visit(subject, run))
    return items


def _oracle_tier(check_id: str, settings: dict, dev: bool, strict: bool) -> str:
    tier = settings.get("enforcement", "warn" if check_id == "T10" else "enforced")
    if dev and tier == "enforced":
        return "warn"
    if strict and tier == "warn":
        return "enforced"
    return tier


@settings(max_examples=25, deadline=None)
@given(
    configured=st.dictionaries(st.sampled_from(CHECK_ORDER), _SETTINGS, max_size=5),
    mode=st.sampled_from([(False, False), (True, False), (False, True)]),
    selected=st.none() | st.sets(st.sampled_from(CHECK_ORDER), min_size=1, max_size=3),
)
@example(configured={"T11": {"include": ["d0_clean/*"]}}, mode=(False, False), selected=None)
@example(configured={"T5": {"exclude": ["d0_clean/*"]}, "T6": {"exclude": ["d6*"]}},
         mode=(False, False), selected=None)
@example(configured={"T13": {"enforcement": "off"}, "T10": {}}, mode=(False, True), selected=None)
# In scope, T10 holds only skipped items: it passes, and strict mode gates on it.
@example(configured={"T10": {"include": ["d0_clean/*"]}}, mode=(False, True), selected={"T10"})
def test_run_suite_matches_the_runner_oracle(runner_snapshot, configured, mode, selected):
    dev, strict = mode
    config = parse_config({"checks": configured})
    suite = run_suite(runner_snapshot, config, selected, dev=dev, strict=strict)
    chosen = [check for check in CHECKS if selected is None or check.id in selected]
    assert [report.check for report in suite.reports] == chosen

    enforcement = {}
    for check, report in zip(chosen, suite.reports):
        settings = configured.get(check.id, {})
        items = _oracle_items(check, runner_snapshot, config, settings)
        assert list(report.items) == items
        assert report.passed == all(item.verdict in ("valid", "skipped") for item in items)
        enforcement[check.id] = _oracle_tier(check.id, settings, dev, strict)
    assert suite.enforcement == enforcement
    assert suite.overall_pass == all(
        report.passed for report in suite.reports if enforcement[report.check.id] == "enforced"
    )
    # Each check run alone gives the report it gives in the full run.
    full = run_suite(runner_snapshot, config, dev=dev, strict=strict)
    by_id = {report.check.id: report for report in full.reports}
    for report in suite.reports:
        assert report == by_id[report.check.id]

