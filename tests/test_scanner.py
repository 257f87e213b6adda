from __future__ import annotations

import contextlib
import dataclasses
import gzip
import json
import os
import tempfile
from collections import Counter
from fnmatch import fnmatch
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import example, given, settings, strategies as st

from commonslint.config import default_config
from commonslint.errors import ParseError
from commonslint.metadata import MeasureInfoFile
from commonslint.scanner import (
    ClassifiedFile,
    ParseFailure,
    RepoSnapshot,
    classify,
    parse_data_table,
    scan_repo,
)
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


def test_json_syntax_verdict_does_not_depend_on_the_file_name(tmp_path):
    # Both are read as bytes: a CRLF counts two bytes toward the offset, and
    # a non-UTF-8 file gets the same message.
    for content in (b'{"a": 1,\r\n "b": }', b'{"a": "\xff"}'):
        (tmp_path / "measure_info.json").write_bytes(content)
        (tmp_path / "x.json").write_bytes(content)
        syntax = scan_repo(tmp_path, CONFIG).json_syntax
        assert syntax["x.json"] is not None
        assert syntax["measure_info.json"] == f"measure_info.json: {syntax['x.json']}"
    (tmp_path / "x.json").write_bytes(b'{"a": 1,\r\n "b": }')
    syntax = scan_repo(tmp_path, CONFIG).json_syntax
    assert syntax["x.json"] == "Expecting value (line 2, offset 16)"


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


def test_parse_data_table_skips_blank_lines_before_the_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("\n\r\ngeoid,measure,value,measure_type\n1,m,5,percent\n", encoding="utf-8")
    table = parse_data_table(path, "t.csv")
    assert table.columns == ("geoid", "measure", "value", "measure_type")
    assert table.row_count == 1
    assert table.percent_measures["m"].count == 1
    # Only blank lines read as an empty file, not as a table with no columns.
    path.write_text("\n\n\r\n", encoding="utf-8")
    with pytest.raises(ParseError, match="empty file, no header row"):
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


def test_snapshot_views_parse_on_first_access_only(clean_repo, monkeypatch, tmp_path):
    parses = count_parses(monkeypatch)
    snapshot = scan_repo(clean_repo, CONFIG)
    assert parses() == (Counter(), Counter())
    first = snapshot.data_tables
    assert snapshot.data_tables is first
    tables, infos = parses()
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


# ---------------------------------------------------------------- walk oracle


def _oracle_classify(rel_path, config):
    """``classify`` as written over ``PurePosixPath``: the reference for the string one."""
    pure = PurePosixPath(rel_path)
    lower = pure.name.lower()
    for ext in (".gz", ".bz2", ".xz"):
        if lower.endswith(ext):
            lower = lower[: -len(ext)]
            break
    suffix = PurePosixPath(lower).suffix
    if fnmatch(pure.name, config.metadata_filename):
        kind = "measure_info"
    elif "code" in pure.parts[:-1]:
        kind = "code"
    elif suffix == ".csv":
        kind = "tabular_data"
    elif suffix == ".geojson":
        kind = "layer_data"
    else:
        kind = "other"
    parts = pure.parts
    dataset = next(
        (parts[:i] for i in range(len(parts) - 1) if parts[i : i + 2] == ("data", "distribution")),
        None,
    )
    sibling = None
    if dataset is not None and kind in ("tabular_data", "layer_data"):
        sibling = str(PurePosixPath(*dataset, "code", "distribution"))
    return ClassifiedFile(
        path=str(pure), kind=kind, in_distribution=dataset is not None, sibling_code_dir=sibling
    )


def _oracle_scan(root, config):
    """``scan_repo`` as written over ``os.walk`` and ``pathlib``: the reference walk."""
    root_path = Path(root)
    real_root = root_path.resolve()
    rel_paths = []
    for dirpath, dirnames, filenames in os.walk(root_path):
        dirnames[:] = sorted(d for d in dirnames if d not in config.ignore_dirs)
        for filename in sorted(filenames):
            full = Path(dirpath) / filename
            if not full.is_file():
                continue
            if full.is_symlink() and not full.resolve().is_relative_to(real_root):
                continue
            rel_paths.append(full.relative_to(root_path).as_posix())
    rel_paths.sort()
    return RepoSnapshot(
        root=str(root_path), files=tuple(_oracle_classify(rel, config) for rel in rel_paths)
    )


_DIRS = ("a", "a-b", "code", "data", "distribution", "skip", ".git")
_NAMES = ("measure_info.json", "t.csv", "T.CSV.GZ", "l.geojson", "x.json", "n.txt", ".csv", "z")
_NODES = ("file", "link_in", "link_out", "link_broken", "link_loop", "link_dir", "fifo", "undecodable")
_WALK_CONFIG = dataclasses.replace(CONFIG, ignore_dirs=frozenset({".git", "skip"}))

_trees = st.lists(
    st.tuples(
        st.lists(st.sampled_from(_DIRS), max_size=4).map(tuple),
        st.sampled_from(_NAMES),
        st.sampled_from(_NODES),
    ),
    max_size=10,
)


def _build(base: Path, tree) -> Path:
    """Lay ``tree`` out under ``base/repo``; ``base/outside.csv`` lies outside the root."""
    root = base / "repo"
    root.mkdir()
    (root / "inside.csv").write_text("a\n1\n", encoding="utf-8")
    (base / "outside.csv").write_text("a\n1\n", encoding="utf-8")
    for dirs, name, node in tree:
        parent = root.joinpath(*dirs)
        parent.mkdir(parents=True, exist_ok=True)
        target = parent / name
        if os.path.lexists(target):
            continue
        if node == "file":
            target.write_text("{}", encoding="utf-8")
        elif node == "link_in":
            target.symlink_to(os.path.relpath(root / "inside.csv", parent))
        elif node == "link_out":
            target.symlink_to(base / "outside.csv")
        elif node == "link_broken":
            target.symlink_to("no-such-file")
        elif node == "link_loop":
            target.symlink_to(name)
        elif node == "link_dir":
            target.symlink_to(os.path.relpath(root, parent), target_is_directory=True)
        elif node == "fifo":
            os.mkfifo(target)
        else:
            try:
                Path(os.fsdecode(os.fsencode(target) + b"\xff")).write_bytes(b"{}")
            except OSError:
                pass  # the file system refuses the name
    return root


@settings(max_examples=100, deadline=None)
@given(tree=_trees)
@example(
    tree=[
        (("a", ".git"), "x.json", "file"),
        (("a", "skip", "b"), "t.csv", "file"),
        (("d", "data", "distribution"), "t.csv", "link_in"),
        (("d", "data", "distribution"), "x.json", "link_out"),
        (("d", "data", "distribution"), "l.geojson", "link_broken"),
        (("d", "data", "distribution"), "z", "link_loop"),
        (("d", "code"), "z", "link_dir"),
        (("d",), "n.txt", "fifo"),
        (("a-b",), "measure_info.json", "undecodable"),
        (("d", "data", "distribution"), "T.CSV.GZ", "file"),
        (("code",), ".csv", "file"),
    ]
)
def test_scan_matches_the_os_walk_oracle(tree):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        root = _build(base, tree)
        spellings = [("repo", base), ("repo/", base), (".", root), (str(root), root)]
        for spelling, cwd in spellings:
            with contextlib.chdir(cwd):
                assert scan_repo(spelling, _WALK_CONFIG) == _oracle_scan(spelling, _WALK_CONFIG)
