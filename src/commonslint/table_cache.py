"""The table cache: each table's parse, kept by the bytes of its file.

When a snapshot's tables hold at least ``scanner._CACHE_MIN_BYTES`` on
disk, its ``data_tables`` come from ``cached_tables``, for ``check`` and a
library read alike. Each table file is read once, to hash it. A table
whose key the cache holds is built from the cache and not parsed; the
others are parsed in this process, one by one.

- Key: the compression suffix ``_open_table`` decodes the file by (``.gz``,
  ``.bz2``, ``.xz`` or none), then the SHA-256 of the file's bytes on disk.
- Value: everything a ``DataTable`` holds but its path: the columns, the
  row count, the three distinct sets, and each percent measure's
  ``PercentStats`` as ``[count, first_bad, first_out, all_fractions]``.
- A table that fails to parse is not cached, so its failure is always that
  of a fresh parse. Nor is one whose file changed between its hash and its
  parse, nor one last written less than ``_SETTLE_NS`` before its hash: a
  file rewritten in place within one timestamp tick of its hash keeps its
  inode, size and mtime, so only a settled mtime shows that no write
  followed the hash. An entry thus always holds the parse of its key's bytes.

The cache is one file per repository root, ``<cache
home>/commonslint/tables-<digest of the root's real path>.json``. The cache
home is ``$XDG_CACHE_HOME`` when that names an absolute path and
``~/.cache`` otherwise. So the cache is never a file of the repository, and
no checkout can bring entries of its own. The file holds exactly the
entries of the last run on that root, and it is rewritten only when their
keys change. A cache that cannot be read or written, or that is not exactly
this format, is passed over: the run's results are those of a run without
it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import stat
import time
from pathlib import Path

from .errors import ParseError
from .metadata import decode_utf8, parse_json, reject_duplicate_keys
from .reports import write_atomic
from .scanner import DataTable, ParseFailure, PercentStats, TableRows, _codec, _parse_table

# The version of the entries' layout and of the parse that made them. Bump
# it with any change to what a parse gathers, so that older caches are
# passed over; tests/test_table_cache.py pins the parse code to it.
FORMAT = 1
# A cache file larger than this is neither read nor written.
_MAX_BYTES = 16 << 20
# How long before its hash a table must have been last written to be cached.
# It covers the coarsest common file timestamp (FAT's 2 s).
_SETTLE_NS = 2_000_000_000
_CHUNK = 1 << 20


def cached_tables(root: Path, jobs: list[tuple[Path, str]]) -> list[DataTable | ParseFailure]:
    """Each (full path, repo path) job's table or failure, as ``_parse_table`` gives it.

    Only the tables the cache of ``root`` does not hold are parsed; the
    cache is then rewritten if the run's keys differ from those it held.
    """
    path = cache_path(root)
    cached = _load(path) if path else {}
    started = time.time_ns()
    keys, stamps = zip(*(_key(full) for full, _ in jobs)) if jobs else ((), ())
    results: list[DataTable | ParseFailure] = []
    entries: dict[str, list] = {}
    for (full, rel), key, stamp in zip(jobs, keys, stamps):
        if key in cached:
            entries[key] = cached[key]
            results.append(_decode(cached[key], rel))
            continue
        table = _parse_table(full, rel)
        results.append(table)
        # Kept: a table parsed from the bytes that were hashed, and settled before the hash.
        if (
            isinstance(table, DataTable)
            and stamp is not None
            and stamp[2] < started - _SETTLE_NS
            and _stamp(full) == stamp
        ):
            entries[key] = _encode(table)
    if path and entries.keys() != cached.keys():
        _store(path, entries)
    return results


def cache_path(root: Path) -> Path | None:
    """The cache file of the repository at ``root``, or None when no cache home is known."""
    home = os.environ.get("XDG_CACHE_HOME", "")
    try:
        base = Path(home) if os.path.isabs(home) else Path.home() / ".cache"
        real = os.fsencode(root.resolve())
    except (OSError, RuntimeError):  # no home directory, or a symlink loop
        return None
    if not base.is_absolute():
        return None
    return base / "commonslint" / f"tables-{hashlib.sha256(real).hexdigest()[:32]}.json"


def _key(full: Path) -> tuple[str | None, tuple | None]:
    """The cache key of a table file and its ``_stamp`` when it was opened.

    (None, None) when the file cannot be read; its parse reports why.
    """
    try:
        with open(full, "rb") as handle:
            stamp = _stamp(handle.fileno())
            digest = hashlib.sha256()
            for chunk in iter(lambda: handle.read(_CHUNK), b""):
                digest.update(chunk)
    except OSError:
        return None, None
    return f"{_codec(full)}:{digest.hexdigest()}", stamp


def _stamp(file: Path | int) -> tuple | None:
    """What changes when a file is written or replaced: inode, size, mtime."""
    try:
        st = os.stat(file)
    except OSError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns


def _encode(table: DataTable) -> list:
    return [
        list(table.columns),
        table.row_count,
        sorted(table.distinct_measures),
        sorted(table.distinct_measure_types),
        sorted(table.distinct_region_types),
        {
            measure: [stats.count, stats.first_bad, stats.first_out, stats.all_fractions]
            for measure, stats in table.percent_measures.items()
        },
    ]


def _decode(entry: list, rel: str) -> DataTable:
    columns, rows, measures, measure_types, region_types, percent = entry
    return DataTable(
        path=rel,
        columns=tuple(columns),
        rows=TableRows(rows),
        distinct_measures=frozenset(measures),
        distinct_measure_types=frozenset(measure_types),
        distinct_region_types=frozenset(region_types),
        percent_measures={measure: PercentStats(*stats) for measure, stats in percent.items()},
    )


def _load(path: Path) -> dict[str, list]:
    """The entries of the cache file, or {} when it is missing or not usable.

    The file must be a regular one, so that no FIFO blocks the run. Every
    field of every entry is checked; one that is not what ``_encode``
    writes drops the whole file.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return {}
        with open(path, "rb") as handle:
            raw = handle.read(_MAX_BYTES + 1)
        if len(raw) > _MAX_BYTES:
            return {}
        doc = parse_json(decode_utf8(raw), object_pairs_hook=reject_duplicate_keys)
    except (OSError, ParseError):
        return {}
    if not (
        type(doc) is dict
        and doc.keys() == {"format", "tables"}
        and type(doc["format"]) is int
        and doc["format"] == FORMAT
        and type(doc["tables"]) is dict
        and all(map(_valid_entry, doc["tables"].values()))
    ):
        return {}
    return doc["tables"]


def _valid_entry(entry: object) -> bool:
    if not (type(entry) is list and len(entry) == 6):
        return False
    columns, rows, *sets, percent = entry
    return (
        _strings(columns)
        and _count(rows)
        and all(map(_strings, sets))
        and type(percent) is dict
        and all(map(_valid_stats, percent.values()))
    )


def _valid_stats(stats: object) -> bool:
    if not (type(stats) is list and len(stats) == 4):
        return False
    count, first_bad, first_out, all_fractions = stats
    return (
        _count(count)
        and (first_bad is None or type(first_bad) is str)
        and (first_out is None or (type(first_out) is float and not math.isnan(first_out)))
        and type(all_fractions) is bool
    )


def _strings(value: object) -> bool:
    return type(value) is list and all(type(item) is str for item in value)


def _count(value: object) -> bool:
    return type(value) is int and value >= 0


def _store(path: Path, entries: dict[str, list]) -> None:
    """Write ``entries`` as the cache file, making its directory (mode 0700) if need be.

    A cache that cannot be written is left as it is.
    """
    text = json.dumps({"format": FORMAT, "tables": entries}, separators=(",", ":"))
    if len(text) > _MAX_BYTES:  # ASCII: one byte per character
        return
    try:
        path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        write_atomic(path, (text,))
    except OSError:
        pass
