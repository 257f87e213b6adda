"""The table cache: warm parses equal fresh ones, keys, and caches that must be passed over."""

from __future__ import annotations

import csv
import gzip
import hashlib
import inspect
import io
import json
import os
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from commonslint import cli, scanner, table_cache
from commonslint.cli import main
from commonslint.config import default_config
from commonslint.scanner import DataTable, ParseFailure, scan_repo
from repo_fixtures import build_planted_repo, count_parses, settle_files, write_table

CONFIG = default_config()


@pytest.fixture
def cache_home(tmp_path, monkeypatch) -> Path:
    """A cache home of this test's own, and a table cache that any table size turns on."""
    home = tmp_path / "cache-home"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    monkeypatch.setattr(scanner, "_CACHE_MIN_BYTES", 0)
    return home


def _fresh(root: Path) -> tuple:
    return scan_repo(root, CONFIG).data_tables


def _cached(root: Path) -> tuple:
    return scan_repo(root, CONFIG, cache_tables=True).data_tables


def _entries(root: Path) -> dict:
    return json.loads(table_cache.cache_path(root).read_text("utf-8"))["tables"]


def _same(tables: tuple, expected: tuple) -> None:
    """Equal, down to the order of each table's percent measures."""
    assert tables == expected
    for table, other in zip(tables, expected):
        if isinstance(table, DataTable):
            assert list(table.percent_measures.items()) == list(other.percent_measures.items())


# ---------------------------------------------------------------- warm equals fresh

_COLUMNS = ("measure", "measure_type", "value", "region_type", "geoid")
_CELLS = {
    "measure": st.sampled_from(["m", "m_a", "é", "测量", "\U0001f600", "", " m "]),
    "measure_type": st.sampled_from(["percent", " Percent ", "count", ""]),
    "value": st.sampled_from(
        ["50", "0.5", "150", "-3", "", " ", "nan", "NaN", "inf", "-inf", "1e999", "-1e999"]
        + ["n/a", "é"]
    ),
    "region_type": st.sampled_from(["county", "tract", ""]),
    "geoid": st.sampled_from(["01", "02"]),
}


@st.composite
def _table_files(draw) -> tuple[str, bytes]:
    """A table file's name and bytes: repeated columns, blank lines, a BOM, maybe gzip."""
    columns = draw(st.lists(st.sampled_from(_COLUMNS), min_size=1, max_size=6))
    rows = draw(
        st.lists(st.tuples(*(_CELLS[name] for name in columns)).map(list), max_size=6)
    )
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        if draw(st.booleans()):
            out.write("\n")
        writer.writerow(row)
    data = out.getvalue().encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.booleans()):
        return "t.csv.gz", gzip.compress(data, mtime=0)
    return "t.csv", data


@settings(max_examples=40, deadline=None)
@given(files=st.lists(_table_files(), min_size=1, max_size=3))
@example(files=[("t.csv", b"measure,measure_type,value\nm,percent,1e999\nm,percent,-inf\n")])
@example(files=[("t.csv", b"geoid\n01\n"), ("t.csv", b"a,b\n1,2,3\n")])
def test_a_warm_cached_parse_equals_a_fresh_parse(files):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(Path(tmp) / "cache-home"))
        patch.setattr(scanner, "_CACHE_MIN_BYTES", 0)
        root = Path(tmp) / "repo"
        root.mkdir()
        for n, (name, data) in enumerate(files):
            (root / f"{n}{name}").write_bytes(data)
        settle_files(root)
        expected = _fresh(root)
        _same(_cached(root), expected)
        with pytest.MonkeyPatch.context() as counting:
            parses = count_parses(counting, Path(tmp) / "parses.log")
            warm = _cached(root)
        _same(warm, expected)
        # Only failures are parsed again.
        failed = Counter(t.path for t in expected if isinstance(t, ParseFailure))
        assert parses()[0] == failed


# ---------------------------------------------------------------- keys


def _rows(n: int) -> list[tuple]:
    return [("01", "2021", f"m{i}", str(i), "percent", "county") for i in range(n)]


def test_a_changed_byte_misses_and_a_failure_is_parsed_again(tmp_path, cache_home, monkeypatch):
    root = tmp_path / "repo"
    write_table(root / "a.csv", _rows(3))
    write_table(root / "b.csv", _rows(4))
    (root / "ragged.csv").write_text("a,b\n1,2,3\n", encoding="utf-8")
    settle_files(root)
    _cached(root)
    data = (root / "b.csv").read_bytes()
    (root / "b.csv").write_bytes(data.replace(b"m3,3", b"m3,4"))
    expected = _fresh(root)
    parses = count_parses(monkeypatch, tmp_path / "parses.log")
    _same(_cached(root), expected)
    assert parses()[0] == Counter({"b.csv": 1, "ragged.csv": 1})


def test_the_same_bytes_under_another_codec_do_not_collide(tmp_path, cache_home, monkeypatch):
    data = gzip.compress(b"measure,value,measure_type\nm,5,percent\n", mtime=0)
    root = tmp_path / "repo"
    root.mkdir()
    (root / "t.csv.gz").write_bytes(data)
    settle_files(root)
    assert isinstance(_cached(root)[0], DataTable)
    (root / "u.csv").write_bytes(data)
    settle_files(root)
    parses = count_parses(monkeypatch, tmp_path / "parses.log")
    tables = _cached(root)
    assert parses()[0] == Counter({"u.csv": 1})
    assert tables == _fresh(root)
    assert isinstance(tables[1], ParseFailure)
    assert list(_entries(root)) == [".gz:" + hashlib.sha256(data).hexdigest()]


def test_a_table_changed_after_its_hash_is_not_cached(tmp_path, cache_home, monkeypatch):
    path = tmp_path / "t.csv"
    write_table(path, _rows(2))
    settle_files(tmp_path)
    before = path.read_bytes()
    parse = scanner.parse_data_table

    def edited_then_parsed(full, rel):
        write_table(path, _rows(5))
        return parse(full, rel)

    with monkeypatch.context() as patch:
        patch.setattr(scanner, "parse_data_table", edited_then_parsed)
        assert _cached(tmp_path)[0].row_count == 5
    assert not table_cache.cache_path(tmp_path).exists()
    path.write_bytes(before)
    assert _cached(tmp_path) == _fresh(tmp_path)


def test_a_table_written_just_before_its_hash_is_not_cached(tmp_path, cache_home):
    # Same size, same inode and, within a timestamp tick, the same mtime: a
    # rewrite right after the hash would not show in the stamp. So a table is
    # kept only once its mtime lies _SETTLE_NS before the hash.
    write_table(tmp_path / "t.csv", _rows(2))
    for age_s, kept in ((0, False), (1, False), (3, True)):
        then = time.time_ns() - age_s * 10**9
        os.utime(tmp_path / "t.csv", ns=(then, then))
        assert _cached(tmp_path) == _fresh(tmp_path)
        cache = table_cache.cache_path(tmp_path)
        assert (cache.exists() and len(_entries(tmp_path)) == 1) == kept


def test_an_unreadable_table_fails_as_in_a_fresh_parse_and_weighs_nothing(tmp_path, cache_home):
    write_table(tmp_path / "a.csv", _rows(2))
    write_table(tmp_path / "gone.csv", _rows(2))
    cached = scan_repo(tmp_path, CONFIG, cache_tables=True)
    fresh = scan_repo(tmp_path, CONFIG)
    (tmp_path / "gone.csv").unlink()
    assert cached.data_tables == fresh.data_tables
    assert isinstance(cached.data_tables[1], ParseFailure)
    assert table_cache._key(tmp_path / "gone.csv") == (None, None)
    assert scanner._sizes_on_disk([(tmp_path / "gone.csv", "gone.csv")]) == [0]


def test_only_a_cached_scan_of_enough_table_bytes_writes(
    planted_repo, tmp_path, cache_home, monkeypatch
):
    root, _ = planted_repo
    settle_files(root)
    assert _fresh(root)
    for argv in (["scan"], ["scan", "--json"], ["dict", "--out", str(tmp_path / "d")]):
        main([*argv, "--repo", str(root)])
    assert not cache_home.exists()
    size = sum(scanner._sizes_on_disk(list(scan_repo(root, CONFIG)._paths_of_kind("tabular_data"))))
    monkeypatch.setattr(scanner, "_CACHE_MIN_BYTES", size + 1)
    _cached(root)
    assert not cache_home.exists()
    monkeypatch.setattr(scanner, "_CACHE_MIN_BYTES", size)
    _cached(root)
    assert [p.name for p in (cache_home / "commonslint").iterdir()] == [
        table_cache.cache_path(root).name
    ]


def test_the_cache_lives_in_the_cache_home_and_never_in_the_repository(tmp_path, monkeypatch):
    root = tmp_path / "repo"
    root.mkdir()
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    for xdg in ("", "relative/cache"):
        monkeypatch.setenv("XDG_CACHE_HOME", xdg)
        assert table_cache.cache_path(root).parent == tmp_path / "home" / ".cache" / "commonslint"
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    path = table_cache.cache_path(root)
    assert path.parent == tmp_path / "xdg" / "commonslint"
    # One file per repository root, named by its real path.
    (tmp_path / "link").symlink_to(root, target_is_directory=True)
    assert table_cache.cache_path(tmp_path / "link") == path
    assert table_cache.cache_path(tmp_path) != path
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", "relative/home")
    assert table_cache.cache_path(root) is None


# ---------------------------------------------------------------- caches passed over


def _check(root: Path, out: Path, capsys, cached: bool = True) -> tuple:
    """Exit code, stdout and suite.json of ``check``, or of a ``check`` without the cache."""
    with pytest.MonkeyPatch.context() as patch:
        if not cached:
            patch.setattr(cli, "scan_repo", lambda root, config, **_: scan_repo(root, config))
        code = main(["check", "--repo", str(root), "--out", str(out)])
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out, (out / "suite.json").read_bytes()


def _poisoned(text: str) -> str:
    """The cache ``text`` with every table emptied: well formed, and wrong."""
    doc = json.loads(text)
    for entry in doc["tables"].values():
        entry[:] = [[], 0, [], [], [], {}]
    return json.dumps(doc)


def _writes(edit):
    """A hostile case that writes ``edit(text)`` over the valid cache ``text``."""
    return lambda cache, text: cache.write_text(edit(text), "utf-8")


def _edited(change):
    """The valid cache text with ``change`` applied to its first entry."""

    def edit(text: str) -> str:
        doc = json.loads(text)
        change(next(iter(doc["tables"].values())))
        return json.dumps(doc)

    return _writes(edit)


def _field(index, value):
    return _edited(lambda entry: entry.__setitem__(index, value))


def _stat(index, value):
    stats = [1, None, None, True]
    stats[index] = value
    return _field(5, {"m": stats})


def _dir_a_file(cache: Path, text: str) -> None:
    cache.unlink()
    cache.parent.rmdir()
    cache.parent.write_text(text, "utf-8")


# Each hostile cache: how it is laid out, given the valid cache's text.
_HOSTILE = {
    "not_json": _writes(lambda text: "{not json"),
    "not_utf8": lambda cache, text: cache.write_bytes(b'{"format": 1, "tables": {"\xff": 1}}'),
    "empty": _writes(lambda text: ""),
    "too_deep": _writes(lambda text: "[" * 300 + "]" * 300),
    "duplicate_key": _writes(lambda text: text[:-1] + ',"format":1}'),
    "foreign_format": _writes(lambda text: _poisoned(text).replace('"format": 1', '"format": 2')),
    "format_true": _writes(lambda text: _poisoned(text).replace('"format": 1', '"format": true')),
    "extra_key": _writes(lambda text: text[:-1] + ',"x":0}'),
    "a_list": _writes(lambda text: "[]"),
    "tables_a_list": _writes(lambda text: '{"format":1,"tables":[]}'),
    "short_entry": _edited(lambda entry: entry.pop()),
    "columns_not_strings": _field(0, [1]),
    "rows_a_string": _field(1, "5"),
    "rows_negative": _field(1, -1),
    "rows_a_bool": _field(1, True),
    "measures_a_dict": _field(2, {}),
    "percent_a_list": _field(5, []),
    "count_a_float": _stat(0, 1.0),
    "count_negative": _stat(0, -1),
    "first_bad_a_number": _stat(1, 5),
    "first_out_nan": _stat(2, float("nan")),
    "first_out_an_int": _stat(2, 150),
    "fractions_an_int": _stat(3, 1),
    "file_a_directory": lambda cache, text: (cache.unlink(), cache.mkdir(), (cache / "x").touch()),
    "file_a_fifo": lambda cache, text: (cache.unlink(), os.mkfifo(cache)),
    "dir_a_file": _dir_a_file,
}


@pytest.fixture
def cold_run(tmp_path, capsys, cache_home):
    """A planted repository after one check run, its cache file and that file's text."""
    root = tmp_path / "planted"
    build_planted_repo(root)
    settle_files(root)
    _check(root, tmp_path / "out", capsys)
    cache = table_cache.cache_path(root)
    return root, cache, cache.read_text("utf-8")


@pytest.mark.parametrize("case", sorted(_HOSTILE))
def test_a_hostile_cache_changes_no_output(cold_run, tmp_path, capsys, case):
    root, cache, text = cold_run
    _HOSTILE[case](cache, text)
    expected = _check(root, tmp_path / "out", capsys, cached=False)
    assert _check(root, tmp_path / "out", capsys) == expected


def test_a_cache_in_the_checkout_is_not_believed(tmp_path, capsys, cache_home):
    # A checkout may hold any file, a well-formed cache among them; none is read.
    root = tmp_path / "planted"
    build_planted_repo(root)
    settle_files(root)
    _check(root, tmp_path / "out", capsys)
    cache = table_cache.cache_path(root)
    text = cache.read_text("utf-8")
    cache.unlink()
    for planted in (root / ".commonslint_cache" / "tables.json", root / cache.name):
        planted.parent.mkdir(exist_ok=True)
        planted.write_text(_poisoned(text), "utf-8")
    expected = _check(root, tmp_path / "out", capsys, cached=False)
    assert _check(root, tmp_path / "out", capsys) == expected
    assert root not in table_cache.cache_path(root).parents


def test_an_oversized_cache_is_neither_read_nor_written(cold_run, tmp_path, capsys, monkeypatch):
    root, cache, text = cold_run
    cache.write_text(_poisoned(text), "utf-8")
    monkeypatch.setattr(table_cache, "_MAX_BYTES", len(_poisoned(text)) - 1)
    expected = _check(root, tmp_path / "out", capsys, cached=False)
    assert _check(root, tmp_path / "out", capsys) == expected
    assert cache.read_text("utf-8") == _poisoned(text)


@pytest.mark.parametrize("home", ["under_a_file", "unknown"])
def test_a_cache_home_that_cannot_be_used_changes_no_output(
    tmp_path, capsys, cache_home, monkeypatch, home
):
    root = tmp_path / "planted"
    build_planted_repo(root)
    settle_files(root)
    expected = _check(root, tmp_path / "out", capsys, cached=False)
    if home == "under_a_file":
        (tmp_path / "a-file").write_text("", "utf-8")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "a-file" / "cache"))
    else:
        monkeypatch.delenv("XDG_CACHE_HOME")

        def unknown(cls):
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.setattr(Path, "home", classmethod(unknown))
        assert table_cache.cache_path(root) is None
    assert _check(root, tmp_path / "out", capsys) == expected
    if home == "under_a_file":
        assert (tmp_path / "a-file").read_text("utf-8") == ""


# ---------------------------------------------------------------- format guard

# What the cache's entries depend on. Any change to this code must come with
# a new table_cache.FORMAT, so that caches written by the old code are passed
# over: add the new format's fingerprint here, and never edit an old one.
_PARSE_CODE = (
    scanner.parse_data_table,
    scanner.PercentStats,
    scanner.DataTable,
    scanner._open_table,
    scanner._codec,
)
_FINGERPRINTS = {
    1: "3b8c48450533300e7e09beeead616bd0d3f52a226a31eb7fd0a3c7652c7bda37",
}


def test_the_parse_code_is_pinned_to_the_cache_format():
    source = "\n".join(inspect.getsource(code) for code in _PARSE_CODE)
    fingerprint = hashlib.sha256(source.encode("utf-8")).hexdigest()
    assert max(_FINGERPRINTS) == table_cache.FORMAT
    assert len(set(_FINGERPRINTS.values())) == len(_FINGERPRINTS)
    assert _FINGERPRINTS[table_cache.FORMAT] == fingerprint
