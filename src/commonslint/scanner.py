"""Repository scanning: walk and classify files, parse them on demand.

The walk is eager: ``scan_repo`` lists and classifies every file and reads
none. The parsed views of the snapshot (measure_info files, data tables,
JSON syntax verdicts) each read their files the first time they are
accessed and keep the result, so a command reads only the files it uses,
and each of them once. A data table is read in one streaming pass that
keeps no rows, only what the checks need. Parsing is lenient: failures are
recorded in the view rather than raised, so a single bad file never aborts
a suite run. When there are enough table bytes to pay for it, the tables
are parsed by this process and forked children together (``_parse_tables``).

A snapshot scanned with ``cache_tables=True``, as ``commonslint check``
scans, takes its tables through the table cache (``table_cache``) when
their bytes on disk reach ``_CACHE_MIN_BYTES``: each table is read once to
hash it, and only the tables whose bytes the cache does not know are
parsed. Below that size the tables are parsed as without the cache.
"""

from __future__ import annotations

import bz2
import csv
import gzip
import io
import lzma
import math
import os
import threading
import zlib
from dataclasses import dataclass, field
from fnmatch import fnmatch
from functools import cached_property
from pathlib import Path

from .config import RepoConfig, default_config
from .errors import ParseError
from .metadata import MeasureInfoFile, decode_utf8, parse_json, parse_measure_info

_TABULAR_EXTENSIONS = {".csv"}
_COMPRESSION_OPENERS = {".gz": gzip.open, ".bz2": bz2.open, ".xz": lzma.open}
# Extensions of the non-metadata files that get a JSON syntax verdict (T8).
_JSON_EXTENSIONS = frozenset({"json", "geojson"})
# Table bytes on disk below which the tables are parsed in this process
# alone. On a 2-CPU host a forked child took about 4 ms from fork to reaped
# results, and the parse ran at 11-17 MB of on-disk bytes per second, so a
# MiB split in two saves 30-45 ms. Smaller table sets are mostly small files
# to open, which slows down in both processes: 0.6 MB in 400 tables gained
# nothing from a split.
_SPLIT_MIN_BYTES = 1 << 20
# Table bytes on disk below which a cached snapshot parses its tables as an
# uncached one does, never touching the cache. A warm run still opens and
# hashes every table and loads the cache file: on 0.6 MB in 404 tables that
# cost about what the parse costs, while `check` on 5.1 MB in 21 tables went
# from 0.18 s to 0.025 s.
_CACHE_MIN_BYTES = 1 << 20


@dataclass(frozen=True)
class ClassifiedFile:
    """One regular file under the repo root, with its derived classification."""

    path: str
    kind: str
    in_distribution: bool
    sibling_code_dir: str | None = None

    @property
    def basename(self) -> str:
        return self.path.rpartition("/")[2]


@dataclass(frozen=True)
class ParseFailure:
    """Recorded in the snapshot when a metadata or data file fails to parse."""

    path: str
    message: str
    stage: str = "json"


@dataclass(slots=True)
class PercentStats:
    """T2's aggregates over the non-blank values of one percent-typed measure.

    ``first_bad`` is the first raw value that is non-numeric or NaN,
    ``first_out`` the first number outside 0-100, and ``all_fractions``
    whether every number lies in [0, 1]. None of them depends on the config.
    """

    count: int = 0
    first_bad: str | None = None
    first_out: float | None = None
    all_fractions: bool = True

    def add(self, raw: str) -> None:
        """Fold one raw value in; a blank value is not counted."""
        if not raw.strip():
            return
        self.count += 1
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        # float() accepts "nan", which is no more a percent than "n/a".
        if math.isnan(value):
            if self.first_bad is None:
                self.first_bad = raw
        elif not 0 <= value <= 100:
            if self.first_out is None:
                self.first_out = value
            self.all_fractions = False
        elif value > 1:
            self.all_fractions = False


@dataclass(frozen=True)
class TableRows:
    """The data rows of one table, of which only the count is kept.

    ``len()`` is the row count of the parse. The benchmark tracer counts rows
    through it; remove it once the run counters live in the library.
    """

    count: int

    def __len__(self) -> int:
        return self.count


@dataclass(frozen=True)
class DataTable:
    """What one pass over a tabular distribution file gathers; no row is kept.

    The ``distinct_*`` sets hold the raw values of their column, empty when
    the table has no such column. ``percent_measures`` maps each measure
    with at least one row whose ``measure_type`` is ``percent`` to its T2
    aggregates. Where a header repeats a column name, the last one wins.
    """

    path: str
    columns: tuple[str, ...]
    rows: TableRows
    distinct_measures: frozenset[str] = frozenset()
    distinct_measure_types: frozenset[str] = frozenset()
    distinct_region_types: frozenset[str] = frozenset()
    percent_measures: dict[str, PercentStats] = field(default_factory=dict)

    @property
    def row_count(self) -> int:
        """Data rows in the file, blank lines excluded."""
        return len(self.rows)


@dataclass(frozen=True)
class RepoSnapshot:
    """One repository tree: its classified files, and the views parsed from them.

    ``scan_repo`` fills the fields. Each parsed view reads its files on
    first access and keeps the result; a file changed after the walk is
    read as it is at that access. Two scans of an unchanged tree are equal,
    and so are their views. ``cache_tables`` says whether ``data_tables``
    may go through the table cache; it changes no view, and equality ignores it.
    """

    root: str
    files: tuple[ClassifiedFile, ...]
    cache_tables: bool = field(default=False, compare=False)

    def _paths_of_kind(self, kind: str):
        root = Path(self.root)
        return ((root / cf.path, cf.path) for cf in self.files if cf.kind == kind)

    @cached_property
    def measure_info_files(self) -> tuple[MeasureInfoFile | ParseFailure, ...]:
        """Each measure_info file, parsed, or the failure that stopped its parse."""
        infos: list[MeasureInfoFile | ParseFailure] = []
        for full, rel in self._paths_of_kind("measure_info"):
            try:
                infos.append(parse_measure_info(full.read_bytes(), path=rel))
            except ParseError as exc:
                infos.append(ParseFailure(path=rel, message=str(exc), stage=exc.stage))
            except OSError as exc:
                infos.append(ParseFailure(path=rel, message=f"unreadable: {exc}"))
        return tuple(infos)

    @cached_property
    def data_tables(self) -> tuple[DataTable | ParseFailure, ...]:
        """Each tabular file, parsed, or the failure that stopped its parse."""
        jobs = list(self._paths_of_kind("tabular_data"))
        sizes = _sizes_on_disk(jobs)
        if self.cache_tables and sum(sizes) >= _CACHE_MIN_BYTES:
            from .table_cache import cached_tables  # only here is hashlib loaded

            return tuple(cached_tables(Path(self.root), jobs, sizes))
        return tuple(_parse_tables(jobs, sizes))

    @cached_property
    def json_syntax(self) -> dict[str, str | None]:
        """Syntax verdict per JSON-bearing file: None if it parses, else the error."""
        info_failures = {
            m.path: m for m in self.measure_info_files if isinstance(m, ParseFailure)
        }
        syntax: dict[str, str | None] = {}
        for cf in self.files:
            if cf.kind == "measure_info":
                failure = info_failures.get(cf.path)
                # A structural failure is still readable JSON.
                syntax[cf.path] = failure.message if failure and failure.stage == "json" else None
            elif cf.path.rsplit(".", 1)[-1].lower() in _JSON_EXTENSIONS:
                syntax[cf.path] = _json_verdict(Path(self.root) / cf.path)
        return syntax

    @property
    def parsed_measure_infos(self) -> list[MeasureInfoFile]:
        return [m for m in self.measure_info_files if isinstance(m, MeasureInfoFile)]

    @property
    def parsed_tables(self) -> list[DataTable]:
        return [t for t in self.data_tables if isinstance(t, DataTable)]


def _json_verdict(path: Path) -> str | None:
    # Decoded from the bytes as measure_info is, so the same bytes get the
    # same verdict: no newline translation, and the same UTF-8 message.
    try:
        parse_json(decode_utf8(path.read_bytes()))
    except ParseError as exc:
        return str(exc)
    except OSError as exc:
        return f"unreadable: {exc}"
    return None


def _strip_compression(name: str) -> str:
    lower = name.lower()
    for ext in _COMPRESSION_OPENERS:
        if lower.endswith(ext):
            return lower[: -len(ext)]
    return lower


def _dataset_root(parts: list[str]) -> list[str] | None:
    """Parts before the first data/distribution segment, or None."""
    for i in range(len(parts) - 1):
        if parts[i] == "data" and parts[i + 1] == "distribution":
            return parts[:i]
    return None


def _suffix(name: str) -> str:
    """The suffix of a file name, as ``PurePosixPath(name).suffix`` reads it."""
    i = name.rfind(".")
    return name[i:] if 0 < i < len(name) - 1 else ""


def classify(rel_path: str, config: RepoConfig) -> ClassifiedFile:
    """Classify one normalized repo-relative POSIX path. Pure function of path and config."""
    parts = rel_path.split("/")
    name = parts[-1]
    suffix = _suffix(_strip_compression(name))

    if fnmatch(name, config.metadata_filename):
        kind = "measure_info"
    elif "code" in parts[:-1]:
        kind = "code"
    elif suffix in _TABULAR_EXTENSIONS:
        kind = "tabular_data"
    elif suffix == ".geojson":
        kind = "layer_data"
    else:
        kind = "other"

    dataset = _dataset_root(parts)
    in_distribution = dataset is not None
    sibling = None
    if in_distribution and kind in ("tabular_data", "layer_data"):
        sibling = "/".join([*dataset, "code", "distribution"])
    return ClassifiedFile(
        path=rel_path, kind=kind, in_distribution=in_distribution, sibling_code_dir=sibling
    )


def _codec(path: Path) -> str:
    """The compression suffix ``_open_table`` decodes ``path`` by, or ''."""
    suffix = path.suffix.lower()
    return suffix if suffix in _COMPRESSION_OPENERS else ""


def _open_table(path: Path):
    opener = _COMPRESSION_OPENERS.get(_codec(path))
    if opener is not None:
        return io.TextIOWrapper(opener(path, "rb"), encoding="utf-8-sig", newline="")
    return open(path, "r", encoding="utf-8-sig", newline="")


def parse_data_table(file_path: str | Path, rel_path: str) -> DataTable:
    """Read a tabular file in one streaming pass and return what it gathered.

    Compression suffixes layered over the tabular extension are handled
    transparently. No row is kept: the pass collects the columns, the row
    count, the distinct measures, measure types and region types, and the
    T2 aggregates of each percent-typed measure. Raises ParseError for empty
    files and for ragged rows (field count differing from the header).
    """
    path = Path(file_path)
    try:
        with _open_table(path) as handle:
            reader = csv.reader(handle)
            # Blank lines before the header are skipped, as between data rows.
            for header in reader:
                if header:
                    break
            else:
                raise ParseError("empty file, no header row", path=rel_path, stage="csv")
            columns = tuple(col.strip() for col in header)
            width = len(columns)
            # The last of a repeated column name wins.
            index = {name: i for i, name in enumerate(columns)}
            measure_i, type_i, region_i, value_i = (
                index.get(name) for name in ("measure", "measure_type", "region_type", "value")
            )
            measures: set[str] = set()
            region_types: set[str] = set()
            # Each distinct measure type, and whether it reads as percent.
            is_percent: dict[str, bool] = {}
            percent: dict[str, PercentStats] = {}
            row_count = 0
            for row in reader:
                if not row:
                    continue
                if len(row) != width:
                    raise ParseError(
                        f"ragged row: {len(row)} fields, header has {width}",
                        path=rel_path,
                        line=reader.line_num,
                        stage="csv",
                    )
                row_count += 1
                if measure_i is not None:
                    measures.add(row[measure_i])
                if region_i is not None:
                    region_types.add(row[region_i])
                if type_i is None:
                    continue
                measure_type = row[type_i]
                percent_row = is_percent.get(measure_type)
                if percent_row is None:
                    percent_row = is_percent[measure_type] = (
                        measure_type.strip().lower() == "percent"
                    )
                if percent_row:
                    measure = "" if measure_i is None else row[measure_i]
                    stats = percent.get(measure)
                    if stats is None:
                        stats = percent[measure] = PercentStats()
                    stats.add("" if value_i is None else row[value_i])
    # A corrupt or truncated compressed file raises one of the last three.
    except (OSError, EOFError, lzma.LZMAError, zlib.error) as exc:
        raise ParseError(f"unreadable: {exc}", path=rel_path, stage="csv") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"undecodable table: {exc}", path=rel_path, stage="csv") from exc

    return DataTable(
        path=rel_path,
        columns=columns,
        rows=TableRows(row_count),
        distinct_measures=frozenset(measures),
        distinct_measure_types=frozenset(is_percent),
        distinct_region_types=frozenset(region_types),
        percent_measures=percent,
    )


def _parse_table(full: Path, rel: str) -> DataTable | ParseFailure:
    try:
        return parse_data_table(full, rel)
    except ParseError as exc:
        return ParseFailure(path=rel, message=str(exc), stage="csv")


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _sizes_on_disk(jobs: list[tuple[Path, str]]) -> list[int]:
    """Each job's bytes on disk, from ``os.stat``.

    They decide whether the table cache is used and how ``_shares`` splits.
    A file that cannot be stat'ed counts as 0; its parse reports it.
    """
    sizes = []
    for full, _ in jobs:
        try:
            sizes.append(os.stat(full).st_size)
        except OSError:
            sizes.append(0)
    return sizes


def _shares(sizes: list[int]) -> list[list[int]]:
    """The job indices each process parses, this process's share first.

    ``sizes`` holds each job's bytes on disk. One share holding every job
    unless a split can pay: ``os.fork`` exists, this process may run on two
    CPUs or more, no other thread is alive (a fork copies only the calling
    thread, and any lock another thread holds stays held in the child),
    there are two tables or more and their bytes reach ``_SPLIT_MIN_BYTES``.
    Then there is one share per CPU, up to one per table, balanced by size:
    largest table first, each to the share with the fewest bytes so far
    (then the fewest tables).
    """
    everything = [list(range(len(sizes)))]
    if not hasattr(os, "fork") or len(sizes) < 2 or threading.active_count() > 1:
        return everything
    count = min(_usable_cpus(), len(sizes))
    if count < 2 or sum(sizes) < _SPLIT_MIN_BYTES:
        return everything
    import heapq  # here, like the split's other imports: start-up does not pay for them

    shares: list[list[int]] = [[] for _ in range(count)]
    loads = [(0, 0, n) for n in range(count)]
    for i in sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True):
        load, tables, n = heapq.heappop(loads)
        shares[n].append(i)
        heapq.heappush(loads, (load + sizes[i], tables + 1, n))
    return shares


def _parse_tables(
    jobs: list[tuple[Path, str]], sizes: list[int]
) -> list[DataTable | ParseFailure]:
    """Parse each (full path, repo path) job; the results are in job order.

    ``sizes`` holds each job's bytes on disk, for ``_shares``. When it
    splits the jobs, one child is forked per extra share and sends back its
    results as a pickle over its own pipe while this process parses the
    first share. The results are equal to a parse of
    every job here, in order. A child that cannot be forked, exits non-zero,
    is killed or sends a short read has its share parsed here, so an
    exception raised by a parse surfaces from this process. If this process
    raises meanwhile, every child still running is killed and reaped.
    """
    shares = _shares(sizes)
    if len(shares) == 1:
        return [_parse_table(*job) for job in jobs]
    import pickle
    import signal

    results: list = [None] * len(jobs)
    mine = shares[0]
    children: dict[int, tuple[int, list[int]]] = {}
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                mine += share
                continue
            if pid == 0:
                _child(jobs, share, write_fd)
            os.close(write_fd)
            children[pid] = (read_fd, share)
        for i in mine:
            results[i] = _parse_table(*jobs[i])
        for pid, (read_fd, share) in list(children.items()):
            chunks = []
            while chunk := os.read(read_fd, 1 << 16):
                chunks.append(chunk)
            _, status = os.waitpid(pid, 0)
            del children[pid]
            os.close(read_fd)
            parsed = None
            if status == 0:
                try:
                    parsed = pickle.loads(b"".join(chunks))
                except (pickle.UnpicklingError, EOFError):
                    pass
            if parsed is None:
                parsed = [_parse_table(*jobs[i]) for i in share]
            for i, table in zip(share, parsed):
                results[i] = table
    finally:
        for pid, (read_fd, _) in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_fd)
    return results


def _child(jobs: list[tuple[Path, str]], share: list[int], write_fd: int) -> None:
    """In a forked child: parse ``share``, write the pickled results, and exit.

    Never returns: ``os._exit`` skips the caller's code, ``atexit`` handlers
    and the flush of buffers inherited from the parent. Exit status 0 means
    every byte was written.
    """
    status = 1
    try:
        import pickle

        data = pickle.dumps([_parse_table(*jobs[i]) for i in share], pickle.HIGHEST_PROTOCOL)
        view = memoryview(data)
        while view:
            view = view[os.write(write_fd, view):]
        status = 0
    finally:
        os._exit(status)


def scan_repo(
    root: str | Path, config: RepoConfig | None = None, *, cache_tables: bool = False
) -> RepoSnapshot:
    """Walk a repository tree, classify its files and return their snapshot.

    Reads no file contents; the snapshot's parsed views do that on first
    access. Directories named in ``ignore_dirs`` are skipped at any depth,
    and symlinked directories are not entered. Only regular files are kept,
    and a symlink to one only if it resolves inside the root, so no later
    read leaves the tree. Unreadable directories are skipped. With
    ``cache_tables`` the snapshot's tables may go through the table cache,
    which lives outside the root and which they may read and write; without
    it the snapshot writes nothing.
    """
    config = config or default_config()
    root_path = Path(root)
    if not root_path.is_dir():
        raise FileNotFoundError(f"repository root not found: {root_path}")
    top = str(root_path)
    real_root = os.path.realpath(top)
    inside = real_root if real_root.endswith(os.sep) else real_root + os.sep

    rel_paths: list[str] = []
    # An explicit stack: a deep tree cannot reach the recursion limit.
    pending = [(top, "")]
    while pending:
        directory, prefix = pending.pop()
        try:
            with os.scandir(directory) as listing:
                entries = list(listing)
        except OSError:
            continue
        for entry in entries:
            # Entries answer from the directory's file types; a symlink costs a stat.
            if entry.is_dir(follow_symlinks=False):
                if entry.name not in config.ignore_dirs:
                    pending.append((entry.path, f"{prefix}{entry.name}/"))
            elif entry.is_file(follow_symlinks=False) or (
                entry.is_symlink()
                and os.path.isfile(entry.path)
                and (os.path.realpath(entry.path) + os.sep).startswith(inside)
            ):
                rel_paths.append(prefix + entry.name)
    rel_paths.sort()

    return RepoSnapshot(
        root=top,
        files=tuple(classify(rel, config) for rel in rel_paths),
        cache_tables=cache_tables,
    )
