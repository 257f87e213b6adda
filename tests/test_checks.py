from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, strategies as st

from commonslint.checks import (
    CHECK_NAMES,
    CHECK_ORDER,
    CheckItem,
    format_percentage,
    run_suite,
)
from commonslint.cli import main
from commonslint.config import default_config, parse_config
from commonslint.errors import ConfigError, DomainError, ExpansionError
from commonslint.expansion import expand_file
from commonslint.scanner import scan_repo
from repo_fixtures import (
    ABSENT,
    LONG_NAME_101,
    clean_entry,
    flagged_items,
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
    t14 = suite.report_for("T14")
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
    assert flagged_items(suite.report_for("T10")) == {("data/distribution/t.csv", "rogue", "invalid")}
    assert suite.overall_pass
    # Strict mode upgrades the warning to enforced and the suite fails.
    strict = run_suite(scan_repo(tmp_path, config), config, strict=True)
    assert not strict.overall_pass


def test_dev_mode_downgrades_everything(planted_repo):
    root, _ = planted_repo
    suite = run_suite(scan_repo(root, CONFIG), CONFIG, dev=True)
    assert suite.overall_pass
    assert set(suite.enforcement.values()) == {"warn"}


def test_off_tier_excluded_from_gating(tmp_path):
    (tmp_path / LONG_NAME_101).write_text("x", encoding="utf-8")
    config = parse_config({"checks": {"T13": {"enforcement": "off"}}})
    suite = run_suite(scan_repo(tmp_path, config), config)
    assert not suite.report_for("T13").passed
    assert suite.overall_pass


def test_path_scoping_excludes_items(tmp_path):
    (tmp_path / "legacy").mkdir()
    (tmp_path / "legacy" / LONG_NAME_101).write_text("x", encoding="utf-8")
    config = parse_config({"checks": {"T13": {"exclude": ["legacy/*"]}}})
    suite = run_suite(scan_repo(tmp_path, config), config)
    assert suite.report_for("T13").total == 0
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
        b, a = before.report_for(cid).counts, after.report_for(cid).counts
        for verdict in ("invalid", "missing", "extra", "error"):
            assert a[verdict] >= b[verdict]
    assert not after.overall_pass


def test_suite_report_serializes(planted_repo):
    root, _ = planted_repo
    suite = run_suite(scan_repo(root, CONFIG), CONFIG)
    from commonslint.reports import suite_to_payload

    payload = suite_to_payload(suite)
    json.dumps(payload)  # JSON-serializable
    assert [c["id"] for c in payload["checks"]] == list(CHECK_ORDER)
    assert dataclasses.asdict(suite.reports[0].items[0]).keys() == {
        "path", "verdict", "key", "detail",
    }
