"""Repository scanning: walk and classify files, parse them on demand.

The walk is eager: ``scan_repo`` lists and classifies every file and reads
none. The parsed views of the snapshot (measure_info files, data tables,
JSON syntax verdicts) each read their files the first time they are
accessed and keep the result, so a command reads only the files it uses,
and each of them once. Parsing is lenient: failures are recorded in the
view rather than raised, so a single bad file never aborts a suite run.
"""

from __future__ import annotations

import bz2
import csv
import gzip
import io
import json
import lzma
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from fnmatch import fnmatch
from functools import cached_property
from pathlib import Path, PurePosixPath

from .config import RepoConfig, default_config
from .errors import ParseError
from .metadata import MeasureInfoFile, parse_measure_info

_TABULAR_EXTENSIONS = {".csv"}
_COMPRESSION_OPENERS = {".gz": gzip.open, ".bz2": bz2.open, ".xz": lzma.open}
# Extensions of the non-metadata files that get a JSON syntax verdict (T8).
_JSON_EXTENSIONS = frozenset({"json", "geojson"})


@dataclass(frozen=True)
class ClassifiedFile:
    """One regular file under the repo root, with its derived classification."""

    path: str
    kind: str
    in_distribution: bool
    sibling_code_dir: str | None = None

    @property
    def basename(self) -> str:
        return PurePosixPath(self.path).name


@dataclass(frozen=True)
class ParseFailure:
    """Recorded in the snapshot when a metadata or data file fails to parse."""

    path: str
    message: str
    stage: str = "json"
    line: int | None = None
    offset: int | None = None


@dataclass(frozen=True)
class DataTable:
    """A parsed tabular distribution file."""

    path: str
    columns: tuple[str, ...]
    rows: tuple[dict, ...] = ()
    distinct_measures: frozenset[str] = frozenset()
    distinct_measure_types: frozenset[str] = frozenset()
    distinct_region_types: frozenset[str] = frozenset()


@dataclass(frozen=True)
class RepoSnapshot:
    """One repository tree: its classified files, and the views parsed from them.

    ``scan_repo`` fills the fields. Each parsed view reads its files on
    first access and keeps the result; a file changed after the walk is
    read as it is at that access. Two scans of an unchanged tree are equal
    in every field except ``scan_timestamp``, and their views are equal.
    """

    root: str
    files: tuple[ClassifiedFile, ...]
    scan_timestamp: str = ""

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
                infos.append(
                    ParseFailure(
                        path=rel, message=str(exc), stage=exc.stage, line=exc.line, offset=exc.offset
                    )
                )
        return tuple(infos)

    @cached_property
    def data_tables(self) -> tuple[DataTable | ParseFailure, ...]:
        """Each tabular file, parsed, or the failure that stopped its parse."""
        tables: list[DataTable | ParseFailure] = []
        for full, rel in self._paths_of_kind("tabular_data"):
            try:
                tables.append(parse_data_table(full, rel))
            except ParseError as exc:
                tables.append(ParseFailure(path=rel, message=str(exc), stage="csv", line=exc.line))
        return tuple(tables)

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
    try:
        json.loads(path.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        return f"{exc.msg} (line {exc.lineno}, offset {exc.pos})"
    except (OSError, UnicodeDecodeError) as exc:
        return f"unreadable: {exc}"
    return None


def _strip_compression(name: str) -> str:
    lower = name.lower()
    for ext in _COMPRESSION_OPENERS:
        if lower.endswith(ext):
            return lower[: -len(ext)]
    return lower


def _dataset_root(parts: tuple[str, ...]) -> tuple[str, ...] | None:
    """Parts before the first data/distribution segment, or None."""
    for i in range(len(parts) - 1):
        if parts[i] == "data" and parts[i + 1] == "distribution":
            return parts[:i]
    return None


def classify(rel_path: str, config: RepoConfig) -> ClassifiedFile:
    """Classify one repo-relative path. Pure function of path and config."""
    pure = PurePosixPath(rel_path)
    name = pure.name
    stripped = _strip_compression(name)
    suffix = PurePosixPath(stripped).suffix

    if fnmatch(name, config.metadata_filename):
        kind = "measure_info"
    elif "code" in pure.parts[:-1]:
        kind = "code"
    elif suffix in _TABULAR_EXTENSIONS:
        kind = "tabular_data"
    elif suffix == ".geojson":
        kind = "layer_data"
    else:
        kind = "other"

    dataset = _dataset_root(pure.parts)
    in_distribution = dataset is not None
    sibling = None
    if in_distribution and kind in ("tabular_data", "layer_data"):
        sibling = str(PurePosixPath(*dataset, "code", "distribution")) if dataset else "code/distribution"
    return ClassifiedFile(
        path=str(pure), kind=kind, in_distribution=in_distribution, sibling_code_dir=sibling
    )


def _open_table(path: Path):
    opener = _COMPRESSION_OPENERS.get(path.suffix.lower())
    if opener is not None:
        return io.TextIOWrapper(opener(path, "rb"), encoding="utf-8-sig", newline="")
    return open(path, "r", encoding="utf-8-sig", newline="")


def parse_data_table(file_path: str | Path, rel_path: str) -> DataTable:
    """Parse a tabular file into a DataTable.

    Compression suffixes layered over the tabular extension are handled
    transparently. Raises ParseError for empty files and for ragged rows
    (field count differing from the header).
    """
    path = Path(file_path)
    try:
        with _open_table(path) as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError("empty file, no header row", path=rel_path, stage="csv")
            columns = tuple(col.strip() for col in header)
            rows = []
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(columns):
                    raise ParseError(
                        f"ragged row: {len(row)} fields, header has {len(columns)}",
                        path=rel_path,
                        line=line_no,
                        stage="csv",
                    )
                rows.append(dict(zip(columns, row)))
    except OSError as exc:
        raise ParseError(f"unreadable: {exc}", path=rel_path, stage="csv") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"undecodable table: {exc}", path=rel_path, stage="csv") from exc

    def distinct(column: str) -> frozenset[str]:
        if column not in columns:
            return frozenset()
        return frozenset(row[column] for row in rows)

    return DataTable(
        path=rel_path,
        columns=columns,
        rows=tuple(rows),
        distinct_measures=distinct("measure"),
        distinct_measure_types=distinct("measure_type"),
        distinct_region_types=distinct("region_type"),
    )


def scan_repo(root: str | Path, config: RepoConfig | None = None) -> RepoSnapshot:
    """Walk a repository tree, classify its files and return their snapshot.

    Reads no file contents; the snapshot's parsed views do that on first
    access. Symlinks that resolve outside the root are left out of the walk,
    so no later read leaves the tree.
    """
    config = config or default_config()
    root_path = Path(root)
    if not root_path.is_dir():
        raise FileNotFoundError(f"repository root not found: {root_path}")
    real_root = root_path.resolve()

    rel_paths: list[str] = []
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
        root=str(root_path),
        files=tuple(classify(rel, config) for rel in rel_paths),
        scan_timestamp=datetime.now(timezone.utc).isoformat(),
    )
