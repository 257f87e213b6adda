from __future__ import annotations

import gzip
import json
from pathlib import Path

import pytest

from commonslint.config import default_config
from commonslint.errors import ParseError
from commonslint.metadata import MeasureInfoFile
from commonslint.scanner import ParseFailure, classify, parse_data_table, scan_repo
from repo_fixtures import count_parses, write_table


CONFIG = default_config()


@pytest.mark.parametrize(
    ("path", "kind"),
    [
        ("a/data/distribution/measure_info.json", "measure_info"),
        ("measure_info.json", "measure_info"),
        ("a/data/distribution/table.csv", "tabular_data"),
        ("table.CSV", "tabular_data"),
        ("a/data/distribution/table.csv.gz", "tabular_data"),
        ("a/data/distribution/points.geojson", "layer_data"),
        ("a/code/distribution/clean.csv", "code"),
        ("code/helpers/util.py", "code"),
        ("README.md", "other"),
        ("a/data/distribution/notes.txt", "other"),
    ],
)
def test_classification_precedence(path, kind):
    assert classify(path, CONFIG).kind == kind


def test_measure_info_beats_code_directory():
    cf = classify("a/code/distribution/measure_info.json", CONFIG)
    assert cf.kind == "measure_info"


def test_distribution_detection_and_sibling_code_dir():
    cf = classify("dataset/data/distribution/x.csv", CONFIG)
    assert cf.in_distribution
    assert cf.sibling_code_dir == "dataset/code/distribution"
    top = classify("data/distribution/x.csv", CONFIG)
    assert top.in_distribution
    assert top.sibling_code_dir == "code/distribution"
    assert not classify("dataset/data/x.csv", CONFIG).in_distribution


def test_scan_clean_repo_inventory(clean_repo):
    snapshot = scan_repo(clean_repo, CONFIG)
    kinds = {f.path: f.kind for f in snapshot.files}
    assert kinds["d0_clean/data/distribution/measure_info.json"] == "measure_info"
    assert kinds["d0_clean/data/distribution/broadband_county.csv"] == "tabular_data"
    assert kinds["d0_clean/data/distribution/centers.geojson"] == "layer_data"
    assert kinds["d0_clean/code/distribution/build.py"] == "code"
    assert len(snapshot.parsed_measure_infos) == 1
    assert isinstance(snapshot.parsed_measure_infos[0], MeasureInfoFile)
    (table,) = snapshot.parsed_tables
    assert table.distinct_measures >= {"no_computer", "bb_dl_mean"}
    assert table.distinct_region_types == {"county"}


def test_scan_is_deterministic_up_to_timestamp(clean_repo):
    first = scan_repo(clean_repo, CONFIG)
    second = scan_repo(clean_repo, CONFIG)
    assert first == second
    assert first.measure_info_files == second.measure_info_files
    assert first.data_tables == second.data_tables
    assert first.json_syntax == second.json_syntax


def test_scan_skips_ignored_dirs(clean_repo):
    git = clean_repo / ".git"
    git.mkdir()
    (git / "config.json").write_text("{broken", encoding="utf-8")
    snapshot = scan_repo(clean_repo, CONFIG)
    assert not any(f.path.startswith(".git/") for f in snapshot.files)


def test_scan_missing_root_raises():
    with pytest.raises(FileNotFoundError):
        scan_repo("/no/such/dir/anywhere", CONFIG)


def test_scan_records_broken_measure_info_with_stage(tmp_path):
    (tmp_path / "measure_info.json").write_text('{"m1": }', encoding="utf-8")
    snapshot = scan_repo(tmp_path, CONFIG)
    (failure,) = snapshot.measure_info_files
    assert isinstance(failure, ParseFailure)
    assert failure.stage == "json"
    # Broken syntax shows up in the JSON-syntax map too (for T8).
    assert snapshot.json_syntax["measure_info.json"] is not None


def test_structurally_broken_measure_info_is_still_readable_json(tmp_path):
    (tmp_path / "measure_info.json").write_text('["not", "a", "mapping"]', encoding="utf-8")
    snapshot = scan_repo(tmp_path, CONFIG)
    (failure,) = snapshot.measure_info_files
    assert failure.stage == "structure"
    assert snapshot.json_syntax["measure_info.json"] is None


def test_json_syntax_map_covers_plain_json_and_geojson(tmp_path):
    (tmp_path / "good.json").write_text('{"a": 1}', encoding="utf-8")
    (tmp_path / "bad.geojson").write_text('{"type": }', encoding="utf-8")
    (tmp_path / "not_json.txt").write_text("{definitely not json", encoding="utf-8")
    snapshot = scan_repo(tmp_path, CONFIG)
    assert snapshot.json_syntax["good.json"] is None
    assert "line 1" in snapshot.json_syntax["bad.geojson"]
    assert "not_json.txt" not in snapshot.json_syntax


def test_parse_data_table_basic(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, [("01", "2021", "m", "1.5", "percent", "county")])
    table = parse_data_table(path, "t.csv")
    assert table.columns == ("geoid", "year", "measure", "value", "measure_type", "region_type")
    assert table.row_count == 1
    assert table.distinct_measures == {"m"}
    assert table.distinct_measure_types == {"percent"}
    assert table.distinct_region_types == {"county"}
    (stats,) = table.percent_measures.values()
    assert (stats.count, stats.first_bad, stats.first_out, stats.all_fractions) == (
        1, None, None, False
    )


def test_parse_data_table_gzip_transparent(tmp_path):
    path = tmp_path / "t.csv.gz"
    content = "geoid,measure,value,measure_type\n01,m,2,percent\n"
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write(content)
    table = parse_data_table(path, "t.csv.gz")
    assert table.columns == ("geoid", "measure", "value", "measure_type")
    assert table.row_count == 1
    assert table.distinct_measures == {"m"}
    # The value column is read through the decompressing stream too.
    assert table.percent_measures["m"].count == 1
    assert not table.percent_measures["m"].all_fractions


@pytest.mark.parametrize("name", ["t.csv", "t.csv.gz"])
def test_rows_len_is_the_data_row_count_without_rereading(tmp_path, monkeypatch, name):
    path = tmp_path / name
    content = "measure,value\n\nm,1\nm,2\n\n\nn,3\n"
    if name.endswith(".gz"):
        with gzip.open(path, "wt", encoding="utf-8", newline="") as handle:
            handle.write(content)
    else:
        path.write_text(content, encoding="utf-8", newline="")
    table = parse_data_table(path, name)
    path.unlink()
    # The length comes from the parse; the file is gone.
    assert len(table.rows) == table.row_count == 3


def test_parse_data_table_last_duplicate_column_wins(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "measure,measure_type,value,measure,measure_type\n"
        "a,count,5,b,percent\n"
        "a,percent,500,c,count\n",
        encoding="utf-8",
    )
    table = parse_data_table(path, "t.csv")
    assert table.distinct_measures == {"b", "c"}
    assert table.distinct_measure_types == {"percent", "count"}
    assert table.distinct_region_types == frozenset()
    assert list(table.percent_measures) == ["b"]
    assert table.percent_measures["b"].first_out is None


def test_parse_data_table_strips_bom(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"\xef\xbb\xbfgeoid,value\n01,2\n")
    assert parse_data_table(path, "t.csv").columns == ("geoid", "value")


def test_parse_data_table_ragged_row(tmp_path):
    path = tmp_path / "t.csv"
    # The line is the file line the ragged row ends on, past quoted newlines.
    for text, line in [("a,b,c\n1,2\n", 2), ('a,b\n"x\ny",1\n1,2,3\n', 4)]:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            parse_data_table(path, "t.csv")
        assert excinfo.value.stage == "csv"
        assert excinfo.value.line == line


def test_parse_data_table_empty_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ParseError, match="empty"):
        parse_data_table(path, "t.csv")


def test_scan_records_table_failures_without_aborting(tmp_path):
    write_table(tmp_path / "good.csv", [("01", "2021", "m", "1", "count", "county")])
    (tmp_path / "ragged.csv").write_text("a,b\n1,2,3\n", encoding="utf-8")
    snapshot = scan_repo(tmp_path, CONFIG)
    kinds = {type(t).__name__ for t in snapshot.data_tables}
    assert kinds == {"DataTable", "ParseFailure"}


def test_snapshot_paths_are_sorted_posix(planted_repo):
    root, _ = planted_repo
    snapshot = scan_repo(root, CONFIG)
    paths = [f.path for f in snapshot.files]
    assert paths == sorted(paths)
    assert all("\\" not in p for p in paths)
    assert Path(snapshot.root) == root


def test_snapshot_views_parse_on_first_access_only(clean_repo, monkeypatch):
    tables, infos = count_parses(monkeypatch)
    snapshot = scan_repo(clean_repo, CONFIG)
    assert not tables and not infos
    first = snapshot.data_tables
    assert snapshot.data_tables is first
    assert tables == {t.path: 1 for t in first} and tables
    assert not infos


def test_scan_leaves_out_symlinks_that_leave_the_root(tmp_path):
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "x.json").write_text("{", encoding="utf-8")
    (outside / "t.csv").write_text("a,b\n1,2\n", encoding="utf-8")
    root = tmp_path / "repo"
    dist = root / "d" / "data" / "distribution"
    dist.mkdir(parents=True)
    (dist / "real.json").write_text("{}", encoding="utf-8")
    (dist / "link.json").symlink_to("../../../../outside/x.json")
    (dist / "abs.csv").symlink_to(outside / "t.csv")
    (dist / "inside.json").symlink_to("real.json")
    snapshot = scan_repo(root, CONFIG)
    assert [f.path for f in snapshot.files] == [
        "d/data/distribution/inside.json",
        "d/data/distribution/real.json",
    ]
    assert snapshot.json_syntax == {
        "d/data/distribution/inside.json": None,
        "d/data/distribution/real.json": None,
    }
    assert snapshot.data_tables == ()
