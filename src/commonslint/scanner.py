"""Repository scanning: walk and classify files, parse them on demand.

The walk is eager: ``scan_repo`` lists and classifies every file and reads
none. The parsed views of the snapshot (measure_info files, data tables,
JSON syntax verdicts) each read their files the first time they are
accessed and keep the result, so a command reads only the files it uses,
and each of them once. A data table is read in one streaming pass that
keeps no rows, only what the checks need. Parsing is lenient: failures are
recorded in the view rather than raised, so a single bad file never aborts
a suite run. Every table is parsed in the calling process.

A snapshot takes its tables through the table cache (``table_cache``) when
their bytes on disk reach ``_CACHE_MIN_BYTES``: each table is read once to
hash it, and only the tables whose bytes the cache does not know are
parsed. Below that size the tables are parsed and the cache is not touched.
"""

from __future__ import annotations

import bz2
import csv
import gzip
import io
import lzma
import math
import os
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
# Table bytes on disk below which a snapshot parses its tables and never
# touches the cache. On 0.6 MB in 404 tables a warm cache reads them in
# about 60 % of the parse's time, yet neither a warm nor a cold `check`
# process is faster, and `import hashlib` adds 3.9 MB to its peak
# (BENCH_cache_gate.json). Above it, a warm `check` on 5.1 MB in 21 tables
# went from 0.18 s to 0.025 s.
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

    @property
    def extension(self) -> str:
        """The basename's text after its last dot, lower-cased; '' when it has no dot."""
        _, dot, after = self.basename.rpartition(".")
        return after.lower() if dot else ""


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
    and so are their views. ``data_tables`` goes through the table cache
    when the tables hold at least ``_CACHE_MIN_BYTES``; that changes no view.
    """

    root: str
    files: tuple[ClassifiedFile, ...]

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
        if _bytes_on_disk(jobs) >= _CACHE_MIN_BYTES:
            from .table_cache import cached_tables  # only here is hashlib loaded

            return tuple(cached_tables(Path(self.root), jobs))
        return tuple(_parse_table(*job) for job in jobs)

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
            elif cf.extension in _JSON_EXTENSIONS:
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


def _bytes_on_disk(jobs: list[tuple[Path, str]]) -> int:
    """The jobs' bytes on disk, from ``os.stat``, for the table cache's gate.

    A file that cannot be stat'ed counts as 0; its parse reports it.
    """
    total = 0
    for full, _ in jobs:
        try:
            total += os.stat(full).st_size
        except OSError:
            pass
    return total


def scan_repo(root: str | Path, config: RepoConfig | None = None) -> RepoSnapshot:
    """Walk a repository tree, classify its files and return their snapshot.

    Reads no file contents; the snapshot's parsed views do that on first
    access. Directories named in ``ignore_dirs`` are skipped at any depth,
    and symlinked directories are not entered. Only regular files are kept,
    and a symlink to one only if it resolves inside the root, so no later
    read leaves the tree. Unreadable directories are skipped. When its
    tables hold at least ``_CACHE_MIN_BYTES``, the snapshot reads and writes
    the table cache, which lives outside the root; below that it writes nothing.
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

    return RepoSnapshot(root=top, files=tuple(classify(rel, config) for rel in rel_paths))
