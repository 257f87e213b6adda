from __future__ import annotations

import json
import os
import stat
from collections import Counter
from pathlib import Path

import pytest

from commonslint.cli import main
from commonslint.metadata import MAX_JSON_DEPTH, load_measure_info
from repo_fixtures import clean_entry, count_parses, write_info

CHECKLIST = {
    "F1": "WorkingTowards", "F2": "WorkingTowards", "F3": "Achieving",
    "F4": "WorkingTowards", "A1": "Achieving", "A1.1": "Achieving",
    "A1.2": "Achieving", "A2": "NotAddressing", "I1": "WorkingTowards",
    "I2": "WorkingTowards", "I3": "NotAddressing", "R1": "WorkingTowards",
    "R1.1": "WorkingTowards", "R1.2": "Achieving", "R1.3": "WorkingTowards",
}


# ---------------------------------------------------------------- check


def test_check_clean_repo_passes(clean_repo, tmp_path, capsys):
    code = main(["check", "--repo", str(clean_repo), "--out", str(tmp_path / "r")])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: pass" in out
    assert out.count("\n") >= 14  # one line per check plus overall plus reports
    assert (tmp_path / "r" / "index.html").is_file()
    assert (tmp_path / "r" / "suite.json").is_file()


def test_check_planted_repo_fails(planted_repo, tmp_path, capsys):
    root, _ = planted_repo
    code = main(["check", "--repo", str(root), "--out", str(tmp_path / "r")])
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: fail" in out
    assert "T2 test_percent_data:" in out
    payload = json.loads((tmp_path / "r" / "suite.json").read_text("utf-8"))
    assert payload["overall_pass"] is False


def test_check_selected_tests_only(planted_repo, tmp_path, capsys):
    root, _ = planted_repo
    code = main(
        ["check", "--repo", str(root), "--tests", "T13", "--out", str(tmp_path / "r")]
    )
    out = capsys.readouterr().out
    assert code == 1  # the planted over-long filename
    assert "T13 test_file_name_len:" in out
    assert "T2 " not in out


@pytest.mark.parametrize("out", ["reports", "./reports/", "absolute", "."])
def test_check_does_not_read_its_own_reports(planted_repo, tmp_path, monkeypatch, capsys, out):
    root, _ = planted_repo
    monkeypatch.chdir(root)
    out = str(root / "reports") if out == "absolute" else out
    main(["check", "--out", str(tmp_path / "outside")])
    outside = capsys.readouterr().out
    runs = []
    for _ in range(2):
        main(["check", "--out", out])
        runs.append((capsys.readouterr().out, (Path(out) / "suite.json").read_bytes()))
    assert runs[0] == runs[1]
    # The verdicts are those of a run that writes outside the repository.
    assert runs[0][0].splitlines()[:-1] == outside.splitlines()[:-1]
    # Other files in the output directory are still checked.
    (Path(out) / "notes.json").write_text("{}", encoding="utf-8")
    main(["check", "--no-reports", "--tests", "T8", "--out", out])
    assert "T8 test_jsons: 8/9" in capsys.readouterr().out


def test_check_unknown_test_id_is_usage_error(clean_repo, capsys):
    code = main(["check", "--repo", str(clean_repo), "--tests", "T99", "--no-reports"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert "T99" in captured.err


@pytest.mark.parametrize("tests", [",", " ", " , ", ""])
def test_check_tests_naming_no_check_is_usage_error(clean_repo, tmp_path, capsys, tests):
    out = tmp_path / "r"
    code = main(["check", "--repo", str(clean_repo), "--tests", tests, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: --tests")
    assert not out.exists()


def test_check_missing_repo_is_error(tmp_path, capsys):
    code = main(["check", "--repo", str(tmp_path / "nope"), "--no-reports"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_check_no_reports_writes_nothing(clean_repo, tmp_path, capsys):
    out_dir = tmp_path / "r"
    code = main(["check", "--repo", str(clean_repo), "--out", str(out_dir), "--no-reports"])
    capsys.readouterr()
    assert code == 0
    assert not out_dir.exists()


def test_check_dev_mode_never_gates(planted_repo, tmp_path, capsys):
    root, _ = planted_repo
    code = main(["check", "--repo", str(root), "--dev", "--no-reports"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: pass" in out
    assert "[warn]" in out


def test_check_strict_and_dev_conflict(clean_repo):
    with pytest.raises(SystemExit):
        main(["check", "--repo", str(clean_repo), "--strict", "--dev"])


def test_check_tier_shown_per_line(clean_repo, capsys):
    main(["check", "--repo", str(clean_repo), "--no-reports"])
    out = capsys.readouterr().out
    assert "T10 test_known_measures:" in out
    t10_line = next(line for line in out.splitlines() if line.startswith("T10"))
    assert t10_line.endswith("[warn]")


@pytest.mark.parametrize(
    "config",
    [
        "filename_limit: abc",
        "fraction_min_rows: [1]",
        "schema: {vocabularies: [a]}",
        "checks: {T99: {}}",
        "checks: {T2: {enforcement: yes}}",
        'naming: {pattern: "("}',
        "a: [\n  b: c",
    ],
)
def test_config_errors_exit_2_with_one_line(tmp_path, capsys, config):
    (tmp_path / ".commonslint.yml").write_text(config + "\n", encoding="utf-8")
    code = main(["check", "--repo", str(tmp_path), "--no-reports"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "config, key",
    [
        ("filename_limt: 5", "filename_limt"),
        ("columns: {requird: [geoid]}", "columns.requird"),
        ("naming: {patern: x}", "naming.patern"),
        ("schema: {char_limits: {long_name: 3}}", "schema.char_limits"),
        ("checks: {T2: {enforcment: warn}}", "checks.T2.enforcment"),
        ("schema: {vocabularies: {regoin_type: [state]}}", "schema.vocabularies.regoin_type"),
    ],
)
def test_unknown_config_key_exits_2_naming_it(tmp_path, capsys, config, key):
    (tmp_path / ".commonslint.yml").write_text(config + "\n", encoding="utf-8")
    code = main(["check", "--repo", str(tmp_path), "--no-reports"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: unknown config key '{key}' (known: ")
    assert err.count("\n") == 1


def test_unquoted_off_tier_reads_as_off(tmp_path, capsys):
    (tmp_path / ".commonslint.yml").write_text("checks: {T13: {enforcement: off}}\n", encoding="utf-8")
    (tmp_path / ("x" * 120 + ".txt")).write_text("x", encoding="utf-8")
    code = main(["check", "--repo", str(tmp_path), "--no-reports", "--tests", "T13"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].endswith("[off]")


# ---------------------------------------------------------------- reads per command


@pytest.fixture
def parses(monkeypatch):
    return count_parses(monkeypatch)


def _each_once(root, pattern: str) -> Counter:
    return Counter(p.relative_to(root).as_posix() for p in root.rglob(pattern))


def test_full_check_parses_each_file_once(planted_repo, tmp_path, parses, capsys):
    root, _ = planted_repo
    tables, infos = parses
    main(["check", "--repo", str(root), "--out", str(tmp_path / "r")])
    assert tables == _each_once(root, "*.csv")
    assert infos == _each_once(root, "measure_info.json")
    assert len(tables) == 6 and len(infos) == 6


def test_dict_reads_metadata_only(planted_repo, tmp_path, parses, capsys):
    root, _ = planted_repo
    tables, infos = parses
    assert main(["dict", "--repo", str(root), "--out", str(tmp_path / "d")]) == 0
    assert tables == Counter()
    assert infos == _each_once(root, "measure_info.json")


@pytest.mark.parametrize(
    "argv",
    [["scan"], ["scan", "--json"], ["check", "--tests", "T11", "--no-reports"]],
)
def test_scan_and_file_name_check_parse_nothing(planted_repo, parses, capsys, argv):
    root, _ = planted_repo
    main([*argv, "--repo", str(root)])
    assert parses == (Counter(), Counter())


# ---------------------------------------------------------------- scan


def test_scan_text_output(clean_repo, capsys):
    code = main(["scan", "--repo", str(clean_repo)])
    out = capsys.readouterr().out
    assert code == 0
    assert "measure_info" in out
    assert "[distribution]" in out
    assert "files:" in out.splitlines()[-1]


def test_scan_json_output(clean_repo, capsys):
    code = main(["scan", "--repo", str(clean_repo), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    kinds = {f["kind"] for f in payload["files"]}
    assert {"measure_info", "tabular_data", "code"} <= kinds
    paths = [f["path"] for f in payload["files"]]
    assert paths == sorted(paths)


# ---------------------------------------------------------------- expand


def test_expand_writes_materialized_file(tmp_path, capsys):
    src = tmp_path / "measure_info.json"
    write_info(
        src,
        {
            "bb_{category}_{variant}": clean_entry(
                "bb", categories=["dl", "ul"], variants=["mean", "median"]
            )
        },
    )
    out_file = tmp_path / "expanded" / "measure_info.json"
    code = main(["expand", "--in", str(src), "--out", str(out_file)])
    printed = capsys.readouterr().out
    assert code == 0
    assert "expanded 1 entries into 4" in printed
    expanded = load_measure_info(out_file)
    assert sorted(expanded.entries) == [
        "bb_dl_mean", "bb_dl_median", "bb_ul_mean", "bb_ul_median",
    ]
    for entry in expanded:
        assert "categories" not in entry.data
        assert "variants" not in entry.data


def test_expand_parse_error_exits_2(tmp_path, capsys):
    src = tmp_path / "broken.json"
    src.write_text("{nope", encoding="utf-8")
    code = main(["expand", "--in", str(src), "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_expand_expansion_error_exits_2(tmp_path, capsys):
    src = tmp_path / "measure_info.json"
    write_info(src, {"fixed": clean_entry("fixed", categories=["a", "b"])})
    code = main(["expand", "--in", str(src), "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_expand_missing_input_exits_2(tmp_path, capsys):
    code = main(["expand", "--in", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- dict


def test_dict_renders_site(clean_repo, tmp_path, capsys):
    code = main(["dict", "--repo", str(clean_repo), "--out", str(tmp_path / "d")])
    out = capsys.readouterr().out
    assert code == 0
    assert "measures" in out
    assert (tmp_path / "d" / "index.html").is_file()
    assert (tmp_path / "d" / "measures").is_dir()


def test_dict_empty_repo_is_fine(tmp_path, capsys):
    empty = tmp_path / "repo"
    empty.mkdir()
    code = main(["dict", "--repo", str(empty), "--out", str(tmp_path / "d")])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 measures" in out


def test_dict_shows_source_fields_that_are_not_strings(tmp_path, capsys):
    sources = [
        {"name": 3, "location": 5, "url": 7, "date_accessed": 2022},
        {"name": None, "location": ["x"], "url": {"a": 1}, "date_accessed": False},
        {"location": 0, "url": 0, "date_accessed": None},
    ]
    write_info(tmp_path / "repo" / "measure_info.json", {"m": clean_entry("m", sources=sources)})
    code = main(["dict", "--repo", str(tmp_path / "repo"), "--out", str(tmp_path / "d")])
    assert code == 0
    page = (tmp_path / "d" / "measures" / "m.html").read_text("utf-8")
    assert '    <li><a href="7">3, 5, accessed 2022</a></li>\n' in page
    assert (
        '    <li><a href="{&#x27;a&#x27;: 1}">None, [&#x27;x&#x27;], accessed False</a></li>\n'
        in page
    )
    # A falsy location or url is not shown; neither is a null date.
    assert "    <li></li>\n" in page


# ---------------------------------------------------------------- fair


def test_fair_assessment_file(tmp_path, capsys):
    levels = {"RDA-A2-01M": 1, "RDA-F1-01M": 4}
    path = tmp_path / "a.json"
    path.write_text(json.dumps(levels), encoding="utf-8")
    code = main(["fair", "--assessment", str(path), "--out", str(tmp_path / "f")])
    out = capsys.readouterr().out
    assert code == 0
    assert "coverage: 4.9%" in out
    assert "Essential: RDA-A2-01M" in out
    assert "warning: at least one Essential indicator" in out
    assert (tmp_path / "f" / "fair.html").is_file()
    assert (tmp_path / "f" / "fair.json").is_file()


def test_fair_checklist_file(tmp_path, capsys):
    path = tmp_path / "checklist.json"
    path.write_text(json.dumps(CHECKLIST), encoding="utf-8")
    code = main(["fair", "--checklist", str(path), "--out", str(tmp_path / "f")])
    out = capsys.readouterr().out
    assert code == 0
    assert "coverage: 100.0%" in out
    assert "Essential: RDA-A2-01M" in out
    payload = json.loads((tmp_path / "f" / "fair.json").read_text("utf-8"))
    assert payload["has_essential_gap"] is True


def test_fair_no_gaps_message(tmp_path, capsys):
    path = tmp_path / "checklist.json"
    path.write_text(
        json.dumps({p: "Achieving" for p in CHECKLIST}), encoding="utf-8"
    )
    code = main(["fair", "--checklist", str(path), "--out", str(tmp_path / "f")])
    out = capsys.readouterr().out
    assert code == 0
    assert "no gaps at level 1" in out
    assert "warning:" not in out


def test_fair_unknown_indicator_exits_2(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"RDA-ZZ-99X": 3}), encoding="utf-8")
    code = main(["fair", "--assessment", str(path), "--out", str(tmp_path / "f")])
    assert code == 2
    assert "unknown indicator" in capsys.readouterr().err


def test_fair_non_string_checklist_category_exits_2(tmp_path, capsys):
    path = tmp_path / "checklist.json"
    path.write_text(json.dumps({"F1": {"a": 1}}), encoding="utf-8")
    code = main(["fair", "--checklist", str(path), "--out", str(tmp_path / "f")])
    assert code == 2
    assert capsys.readouterr().err == "error: checklist category for F1 must be a string, got dict\n"


def test_fair_requires_a_source():
    with pytest.raises(SystemExit):
        main(["fair"])


def test_fair_missing_file_exits_2(tmp_path, capsys):
    code = main(["fair", "--assessment", str(tmp_path / "nope.json"), "--out", str(tmp_path / "f")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_yaml_error_names_line_and_column(tmp_path, capsys):
    (tmp_path / ".commonslint.yml").write_text("a: [\n  b: c\n", encoding="utf-8")
    code = main(["check", "--repo", str(tmp_path), "--no-reports"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.endswith("expected ',' or ']', but got '<stream end>' (line 3, column 1)\n")


@pytest.mark.parametrize("command", ["config", "checklist", "assessment", "assessment_csv"])
def test_non_utf8_input_exits_2_with_one_line(tmp_path, capsys, command):
    path = tmp_path / {"config": "c.yml", "assessment_csv": "a.csv"}.get(command, "a.json")
    path.write_bytes(b"\xff\xfe\x00")
    out = str(tmp_path / "f")
    argv = {
        "config": ["check", "--repo", str(tmp_path), "--config", str(path), "--no-reports"],
        "checklist": ["fair", "--checklist", str(path), "--out", out],
        "assessment": ["fair", "--assessment", str(path), "--out", out],
        "assessment_csv": ["fair", "--assessment", str(path), "--out", out],
    }[command]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "not valid UTF-8" in err
    assert err.count("\n") == 1


# ---------------------------------------------------------------- nesting

# Deep enough to exhaust the JSON and YAML decoders' recursion limits.
DEEP = "[" * 100_000
# A dynamic entry nested deeper than MAX_JSON_DEPTH: a parse error, never expanded.
DEEP_DYNAMIC = '{"m_{category}": {"categories": ["a"], "statement": %s}}' % (
    "[" * 600 + "]" * 600
)


def test_check_reports_deeply_nested_json_as_invalid(clean_repo, tmp_path, capsys):
    dataset = clean_repo / "nested" / "data" / "distribution"
    dataset.mkdir(parents=True)
    (dataset / "measure_info.json").write_text(DEEP, encoding="utf-8")
    (dataset / "layer.geojson").write_text(DEEP, encoding="utf-8")
    code = main(["check", "--repo", str(clean_repo), "--out", str(tmp_path / "r")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert "overall: fail" in captured.out
    payload = json.loads((tmp_path / "r" / "suite.json").read_text("utf-8"))
    (t8,) = [c for c in payload["checks"] if c["id"] == "T8"]
    flagged = {i["path"]: i["detail"] for i in t8["items"] if i["verdict"] == "invalid"}
    assert flagged == {
        "nested/data/distribution/measure_info.json": "nested/data/distribution/measure_info.json: nested too deeply",
        "nested/data/distribution/layer.geojson": "nested too deeply",
    }


@pytest.mark.parametrize(
    "command", ["config", "expand", "checklist", "assessment", "expand_dynamic"]
)
def test_deeply_nested_input_exits_2_with_one_line(tmp_path, capsys, command):
    path = tmp_path / ("input.yml" if command == "config" else "input.json")
    path.write_text(DEEP_DYNAMIC if command == "expand_dynamic" else DEEP, encoding="utf-8")
    argv = {
        "config": ["check", "--repo", str(tmp_path), "--config", str(path), "--no-reports"],
        "expand": ["expand", "--in", str(path), "--out", str(tmp_path / "o.json")],
        "expand_dynamic": ["expand", "--in", str(path), "--out", str(tmp_path / "o.json")],
        "checklist": ["fair", "--checklist", str(path), "--out", str(tmp_path / "f")],
        "assessment": ["fair", "--assessment", str(path), "--out", str(tmp_path / "f")],
    }[command]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.endswith("nested too deeply\n")
    assert err.count("\n") == 1


def test_check_reports_a_too_deep_dynamic_entry_under_t14(tmp_path, capsys):
    info = tmp_path / "data" / "distribution" / "measure_info.json"
    info.parent.mkdir(parents=True)
    info.write_text(DEEP_DYNAMIC, encoding="utf-8")
    code = main(["check", "--repo", str(tmp_path), "--out", str(tmp_path / "r")])
    assert code == 1
    assert capsys.readouterr().err == ""
    payload = json.loads((tmp_path / "r" / "suite.json").read_text("utf-8"))
    (t14,) = [c for c in payload["checks"] if c["id"] == "T14"]
    assert t14["items"] == [
        {
            "path": "data/distribution/measure_info.json",
            "key": None,
            "verdict": "error",
            "detail": "file could not be parsed:"
            " data/distribution/measure_info.json: nested too deeply",
        }
    ]


@pytest.mark.parametrize("depth", [MAX_JSON_DEPTH, MAX_JSON_DEPTH + 1])
def test_check_dict_and_expand_agree_at_the_depth_limit(tmp_path, capsys, depth):
    # The root object and the entry hold the statement's lists.
    statement = "[" * (depth - 2) + "]" * (depth - 2)
    info = tmp_path / "data" / "distribution" / "measure_info.json"
    info.parent.mkdir(parents=True)
    info.write_text(
        '{"m_{category}": {"categories": ["a"], "statement": %s}}' % statement, encoding="utf-8"
    )
    (info.parent / "t.csv").write_text("measure,value\nm_a,1\n", encoding="utf-8")
    parses = depth <= MAX_JSON_DEPTH

    argv = ["check", "--repo", str(tmp_path), "--tests", "T8,T14", "--out", str(tmp_path / "r")]
    assert main(argv) == (0 if parses else 1)
    payload = json.loads((tmp_path / "r" / "suite.json").read_text("utf-8"))
    t8, t14 = ([item["verdict"] for item in c["items"]] for c in payload["checks"])
    assert (t8, t14) == ((["valid"], ["valid"]) if parses else (["invalid"], ["error"]))

    assert main(["dict", "--repo", str(tmp_path), "--out", str(tmp_path / "d")]) == 0
    assert f"({1 if parses else 0} measures" in capsys.readouterr().out

    code = main(["expand", "--in", str(info), "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    if parses:
        assert (code, err) == (0, "")
        assert list(load_measure_info(tmp_path / "o.json").entries) == ["m_a"]
    else:
        assert (code, err) == (2, f"error: {info}: nested too deeply\n")


# ---------------------------------------------------------------- unencodable text


def test_check_reports_an_undecodable_file_name(tmp_path, capsys):
    dataset = tmp_path / "data" / "distribution"
    dataset.mkdir(parents=True)
    try:
        with open(os.path.join(os.fsencode(dataset), b"\xffbad.csv"), "wb") as handle:
            handle.write(b"a,b\n1,2\n")
    except OSError:
        pytest.skip("the file system refuses a non-UTF-8 file name")
    code = main(["check", "--repo", str(tmp_path), "--out", str(tmp_path / "r")])
    assert code == 1
    assert capsys.readouterr().err == ""
    payload = json.loads((tmp_path / "r" / "suite.json").read_text("utf-8"))
    paths = {item["path"] for check in payload["checks"] for item in check["items"]}
    assert "data/distribution/\udcffbad.csv" in paths


def test_scan_prints_an_undecodable_file_name_escaped(tmp_path, capsys):
    # capsys's stdout encodes strictly, as a UTF-8 locale's does.
    try:
        with open(os.path.join(os.fsencode(tmp_path), b"\xffbad.csv"), "wb") as handle:
            handle.write(b"a,b\n1,2\n")
    except OSError:
        pytest.skip("the file system refuses a non-UTF-8 file name")
    assert main(["scan", "--repo", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == " tabular_data  \\udcffbad.csv\n1 files: 1 tabular_data\n"
    assert captured.err == ""


def test_lone_surrogate_measure_id_is_written_escaped(tmp_path, capsys):
    info = tmp_path / "data" / "distribution" / "measure_info.json"
    info.parent.mkdir(parents=True)
    info.write_text('{"m\\udcff": {}}', encoding="utf-8")
    assert main(["check", "--repo", str(tmp_path), "--out", str(tmp_path / "r")]) == 1
    payload = json.loads((tmp_path / "r" / "suite.json").read_text("utf-8"))
    keys = {item["key"] for check in payload["checks"] for item in check["items"]}
    assert "m\udcff" in keys
    assert main(["dict", "--repo", str(tmp_path), "--out", str(tmp_path / "d")]) == 0
    assert "m\\udcff" in (tmp_path / "d" / "measures" / "m.html").read_text("utf-8")
    out = tmp_path / "o.json"
    assert main(["expand", "--in", str(info), "--out", str(out)]) == 0
    assert list(load_measure_info(out).entries) == ["m\udcff"]
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------- written files


def test_written_files_get_the_umask_mode_and_leave_no_temp_file(clean_repo, tmp_path, capsys):
    out = tmp_path / "out"
    checklist = tmp_path / "checklist.json"
    checklist.write_text(json.dumps(CHECKLIST), encoding="utf-8")
    info = clean_repo / "d0_clean" / "data" / "distribution" / "measure_info.json"
    previous = os.umask(0o027)
    try:
        assert main(["check", "--repo", str(clean_repo), "--out", str(out / "check")]) == 0
        assert main(["dict", "--repo", str(clean_repo), "--out", str(out / "dict")]) == 0
        assert main(["fair", "--checklist", str(checklist), "--out", str(out / "fair")]) == 0
        assert main(["expand", "--in", str(info), "--out", str(out / "expand" / "o.json")]) == 0
        # Replacing a file gives it the umask's mode too.
        assert main(["expand", "--in", str(info), "--out", str(out / "expand" / "o.json")]) == 0
    finally:
        os.umask(previous)
    written = [path for path in out.rglob("*") if path.is_file()]
    assert {path.relative_to(out).parts[0] for path in written} == {
        "check", "dict", "fair", "expand"
    }
    assert [path for path in written if path.name.startswith(".")] == []
    assert {stat.S_IMODE(path.stat().st_mode) for path in written} == {0o640}


# ---------------------------------------------------------------- parser


def test_subcommand_required():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv", [["check", "--bogus"], ["fair"], ["check", "--strict", "--dev"]])
def test_usage_errors_exit_2_with_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    captured = capsys.readouterr()
    assert exited.value.code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_config_flag_respected(tmp_path, capsys):
    (tmp_path / "file.txt").write_text("x", encoding="utf-8")
    cfg = tmp_path / "custom.yml"
    cfg.write_text("filename_limit: 3\n", encoding="utf-8")
    code = main(
        ["check", "--repo", str(tmp_path), "--config", str(cfg), "--no-reports", "--tests", "T13"]
    )
    out = capsys.readouterr().out
    assert code == 1  # "file.txt" exceeds the 3-char limit from the custom config
    assert "overall: fail" in out
