from __future__ import annotations

import contextlib
import dataclasses
import errno
import gzip
import json
import lzma
import os
import pickle
import signal
import tempfile
import threading
import time
from collections import Counter
from fnmatch import fnmatch
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import example, given, settings, strategies as st

from commonslint import scanner
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
from repo_fixtures import count_parses, split_tables, write_table


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


# ---------------------------------------------------------------- split table parse

_TABLE_FAULTS = ("none", "ragged", "empty", "blank_lines", "undecodable", "gz", "xz", "corrupt_gz")
_table_sets = st.lists(
    st.tuples(st.sampled_from(_TABLE_FAULTS), st.integers(min_value=0, max_value=400)),
    min_size=2,
    max_size=8,
)


def _write_tables(root: Path, tables) -> None:
    """One table per (fault, rows) pair, of ``rows`` data rows before the fault."""
    for n, (fault, rows) in enumerate(tables):
        text = "measure,value,measure_type,region_type\n" + "".join(
            f"m{i % 7},{(i * 37) % 130 / (1 + i % 3)},{('percent', 'count')[i % 2]},county\n"
            for i in range(rows)
        )
        data = {
            "ragged": text + "m,1\n",
            "empty": "",
            "blank_lines": "\n\n" + text,
        }.get(fault, text).encode("utf-8")
        name = f"t{n}.csv"
        if fault == "undecodable":
            data += b"m\xff,1,count,county\n"
        elif fault in ("gz", "corrupt_gz"):
            name += ".gz"
            data = gzip.compress(data)
            if fault == "corrupt_gz":
                data = data[: len(data) // 2] + b"\0" * 8
        elif fault == "xz":
            name += ".xz"
            data = lzma.compress(data)
        (root / name).write_bytes(data)


def _in_process_tables(root: Path) -> tuple:
    with pytest.MonkeyPatch.context() as patch:
        split_tables(patch, None)
        return scan_repo(root, CONFIG).data_tables


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@settings(max_examples=25, deadline=None)
@given(tables=_table_sets, cpus=st.integers(min_value=2, max_value=3))
def test_split_table_parse_equals_the_in_process_parse(tables, cpus):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write_tables(root, tables)
        expected = _in_process_tables(root)
        with pytest.MonkeyPatch.context() as patch:
            forked = split_tables(patch, cpus)
            split = scan_repo(root, CONFIG).data_tables
    assert len(forked) == min(cpus, len(tables)) - 1
    # The same tables and failures, down to each message, in walk order.
    assert split == expected
    assert _no_child_left()


def _mixed_tables(root: Path) -> tuple:
    """Four tables and a ragged one; returns their in-process parse."""
    for n in range(4):
        write_table(root / f"t{n}.csv", [("01", "2021", f"m{n}", "5", "percent", "county")] * (n + 1))
    (root / "ragged.csv").write_text("a,b\n1,2,3\n", encoding="utf-8")
    return _in_process_tables(root)


def test_split_shares_are_balanced_by_size(monkeypatch):
    # The last two tables weigh 0 bytes, as an empty and an unreadable file do.
    sizes = [9000, 1000, 1000, 3000, 4000, 1000, 0, 0]
    assert scanner._shares(sizes) == [list(range(len(sizes)))]  # below the size floor
    split_tables(monkeypatch, 2)
    # Largest first, each to the lighter share, then to the one with fewer tables.
    assert scanner._shares(sizes) == [[0, 5], [4, 3, 1, 2, 6, 7]]
    split_tables(monkeypatch, 3)
    assert scanner._shares(sizes[6:]) == [[0], [1]]
    assert scanner._shares([sizes[6]] * 4) == [[0, 3], [1], [2]]


@pytest.mark.parametrize("fault", ["exit", "sigkill", "short_read", "fork_fails"])
def test_split_table_parse_survives_a_failed_child(tmp_path, monkeypatch, fault):
    expected = _mixed_tables(tmp_path)
    parent = os.getpid()
    forked = split_tables(monkeypatch, 3)
    if fault == "fork_fails":

        def refused() -> int:
            raise OSError(errno.EAGAIN, "fork refused")

        monkeypatch.setattr(os, "fork", refused)
    elif fault == "short_read":
        dumps = pickle.dumps
        monkeypatch.setattr(pickle, "dumps", lambda obj, protocol: dumps(obj, protocol)[:-3])
    else:
        parse = scanner.parse_data_table

        def dying(full, rel):
            if os.getpid() != parent:
                if fault == "exit":
                    os._exit(1)
                os.kill(os.getpid(), signal.SIGKILL)
            return parse(full, rel)

        monkeypatch.setattr(scanner, "parse_data_table", dying)
    assert scan_repo(tmp_path, CONFIG).data_tables == expected
    assert len(forked) == (0 if fault == "fork_fails" else 2)
    assert _no_child_left()


def test_split_table_parse_raises_what_the_in_process_parse_raises(tmp_path, monkeypatch):
    _mixed_tables(tmp_path)
    parse = scanner.parse_data_table

    def failing(full, rel):
        if rel == "t2.csv":
            raise RuntimeError(f"bug on {rel}")
        return parse(full, rel)

    monkeypatch.setattr(scanner, "parse_data_table", failing)
    for cpus in (None, 3):
        forked = split_tables(monkeypatch, cpus)
        with pytest.raises(RuntimeError, match="^bug on t2.csv$"):
            scan_repo(tmp_path, CONFIG).data_tables
        assert len(forked) == (cpus or 1) - 1
        assert _no_child_left()


def test_split_table_parse_kills_and_reaps_its_children_on_interrupt(tmp_path, monkeypatch):
    _mixed_tables(tmp_path)
    parent = os.getpid()

    def interrupted(full, rel):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(scanner, "parse_data_table", interrupted)
    forked = split_tables(monkeypatch, 3)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        scan_repo(tmp_path, CONFIG).data_tables
    assert len(forked) == 2 and time.monotonic() - started < 30
    assert _no_child_left()


def test_split_table_parse_does_not_fork_beside_another_thread(tmp_path, monkeypatch):
    expected = _mixed_tables(tmp_path)
    forked = split_tables(monkeypatch, 3)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        tables = scan_repo(tmp_path, CONFIG).data_tables
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert forked == [] and tables == expected


def test_snapshot_paths_are_sorted_posix(planted_repo):
    root, _ = planted_repo
    snapshot = scan_repo(root, CONFIG)
    paths = [f.path for f in snapshot.files]
    assert paths == sorted(paths)
    assert all("\\" not in p for p in paths)
    assert Path(snapshot.root) == root


def test_snapshot_views_parse_on_first_access_only(clean_repo, monkeypatch, tmp_path):
    parses = count_parses(monkeypatch, tmp_path / "parses.log")
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
