"""The validation catalog: checks T2-T14 over a repository snapshot.

The catalog is one registry, ``CHECKS``: each entry holds a frozen check
id, its report name, the subject it visits and a function returning that
check's items for one subject. A subject is one of

- ``"table"``: each data table, parsed or not;
- ``"info"``: each measure_info file, parsed or not;
- ``"file"``: each classified file;
- ``"repo"``: the whole snapshot, visited once.

The runner owns the work common to every check. It skips subjects outside
the check's ``include``/``exclude`` scope (for ``"repo"`` checks, the items
whose path is out of scope), and it turns a table or measure_info file that
failed to parse into one ``error`` item, so item functions only ever see
parsed subjects. Item functions are pure and never raise for repository
defects — defects become items — so a suite run always completes. Adding a
check means adding one registry entry. Check ids and report names are
frozen; the catalog starts at T2 and the gap is deliberate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from functools import cached_property
from pathlib import PurePosixPath
from typing import Callable, Iterable

from .config import RepoConfig, default_config
from .errors import ConfigError, DomainError, ExpansionError
from .expansion import expand_dynamic
from .metadata import MeasureInfoFile
from .scanner import ClassifiedFile, DataTable, ParseFailure, RepoSnapshot
from .schema import REFERENCES_KEY, validate_entry_keys

VERDICTS = ("valid", "invalid", "missing", "extra", "error", "skipped")
_DETAIL_REQUIRED = {"invalid", "missing", "extra", "error"}


@dataclass(frozen=True)
class CheckItem:
    """One examined subject: a path, optionally narrowed by a key."""

    path: str
    verdict: str
    key: str | None = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict: {self.verdict!r}")
        if self.verdict in _DETAIL_REQUIRED and not self.detail:
            raise ValueError(f"{self.verdict} item for {self.path} needs a detail")


@dataclass(frozen=True)
class Check:
    """A registry entry: frozen id, report filename stem, subject, item function."""

    id: str
    name: str
    subject: str
    visit: Callable[..., Iterable[CheckItem]]


@dataclass(frozen=True)
class CheckReport:
    """All items one check produced, with verdict counts."""

    check: Check
    items: tuple[CheckItem, ...] = ()

    @property
    def counts(self) -> dict[str, int]:
        tally = {verdict: 0 for verdict in VERDICTS}
        for item in self.items:
            tally[item.verdict] += 1
        return tally

    @property
    def total(self) -> int:
        return len(self.items)

    @property
    def passed(self) -> bool:
        return all(item.verdict in ("valid", "skipped") for item in self.items)

    def summary_line(self) -> str:
        """e.g. '141/234 (60.3%) valid' — or 'nothing to check' when empty."""
        if self.total == 0:
            return "0/0 valid (nothing to check)"
        valid = self.counts["valid"] + self.counts["skipped"]
        return f"{valid}/{self.total} ({format_percentage(valid, self.total)}) valid"


@dataclass(frozen=True)
class SuiteReport:
    """Ordered reports for one run, plus the enforcement decision."""

    root: str
    reports: tuple[CheckReport, ...]
    enforcement: dict[str, str] = field(default_factory=dict)
    overall_pass: bool = True

    def report_for(self, cid: str) -> CheckReport:
        for report in self.reports:
            if report.check.id == cid:
                return report
        raise KeyError(cid)


def format_percentage(count: int, total: int) -> str:
    """Render 100*count/total to one decimal, ties away from zero, '%'-suffixed."""
    if total <= 0:
        raise DomainError(f"total must be positive, got {total}")
    if count < 0 or count > total:
        raise DomainError(f"count must be within [0, {total}], got {count}")
    pct = (Decimal(count) * 100 / Decimal(total)).quantize(
        Decimal("0.1"), rounding=ROUND_HALF_UP
    )
    return f"{pct}%"


def _dir_of(path: str) -> str:
    parent = str(PurePosixPath(path).parent)
    return "" if parent == "." else parent


def _ancestor_dirs(path: str):
    """Directories from the file's own dir up to the repo root ('')."""
    current = _dir_of(path)
    while current:
        yield current
        parent = str(PurePosixPath(current).parent)
        current = "" if parent == "." else parent
    yield ""


@dataclass(frozen=True)
class _Pairing:
    """Nearest-ancestor association of parsed data tables with measure_info files."""

    # table path → ("ok", info path) | ("none", "") | ("ambiguous", dir) | ("broken", info path)
    table_status: dict[str, tuple[str, str]]
    # info path → tables it governs (only unambiguous, parsed infos)
    info_tables: dict[str, list[DataTable]]
    # dirs holding more than one measure_info file
    ambiguous_dirs: dict[str, list[str]]
    # parsed info path → its expanded ids and per-entry failures
    expanded: dict[str, tuple[set[str], list[tuple[str, str]]]]


def _pair_tables(snapshot: RepoSnapshot) -> _Pairing:
    info_by_dir: dict[str, list] = {}
    for info in snapshot.measure_info_files:
        info_by_dir.setdefault(_dir_of(info.path), []).append(info)

    ambiguous_dirs = {
        d: sorted(i.path for i in infos)
        for d, infos in info_by_dir.items()
        if len(infos) > 1
    }

    table_status: dict[str, tuple[str, str]] = {}
    info_tables: dict[str, list[DataTable]] = {
        info.path: [] for info in snapshot.measure_info_files
    }
    for table in snapshot.parsed_tables:
        status: tuple[str, str] = ("none", "")
        for ancestor in _ancestor_dirs(table.path):
            infos = info_by_dir.get(ancestor)
            if not infos:
                continue
            if len(infos) > 1:
                status = ("ambiguous", ancestor)
            elif isinstance(infos[0], ParseFailure):
                status = ("broken", infos[0].path)
            else:
                status = ("ok", infos[0].path)
                info_tables[infos[0].path].append(table)
            break
        table_status[table.path] = status
    return _Pairing(
        table_status=table_status,
        info_tables=info_tables,
        ambiguous_dirs=ambiguous_dirs,
        expanded={info.path: _expanded_ids(info) for info in snapshot.parsed_measure_infos},
    )


def _expanded_ids(info: MeasureInfoFile) -> tuple[set[str], list[tuple[str, str]]]:
    """Concrete measure ids after dynamic expansion, plus per-entry failures.

    An entry fails when it cannot be expanded, or when one of its ids
    collides with an id of an earlier entry of the same file.
    """
    ids: set[str] = set()
    failures: list[tuple[str, str]] = []
    for entry in info:
        try:
            concrete = [e.measure_id for e in expand_dynamic(entry)]
        except ExpansionError as exc:
            failures.append((entry.measure_id, str(exc)))
            ids.add(entry.measure_id)
            continue
        clash = next((mid for mid in concrete if mid in ids), None)
        if clash is not None:
            failures.append(
                (entry.measure_id, f"expanded id {clash!r} collides with an existing entry")
            )
        ids.update(concrete)
    return ids, failures


class _Run:
    """What the checks of one run_suite call share."""

    def __init__(self, snapshot: RepoSnapshot, config: RepoConfig) -> None:
        self.snapshot = snapshot
        self.config = config

    @cached_property
    def pairing(self) -> _Pairing:
        return _pair_tables(self.snapshot)


# ---------------------------------------------------------------- T2


def _percent_items(table: DataTable, run: _Run) -> list[CheckItem]:
    """T2: percent-typed measures stay within 0-100 and are not 0-1 fractions."""
    items: list[CheckItem] = []
    for measure in sorted(table.percent_measures):
        stats = table.percent_measures[measure]
        if stats.first_bad is not None:
            verdict, detail = "error", f"non-numeric value {stats.first_bad!r} for percent measure"
        elif stats.first_out is not None:
            verdict, detail = "invalid", f"value {stats.first_out} outside the 0-100 percent range"
        elif stats.all_fractions and stats.count >= run.config.fraction_min_rows:
            verdict, detail = "invalid", (
                f"suspected 0-1 fraction: all {stats.count} values fall within"
                " [0, 1]; percents use the 0-100 scale"
            )
        else:
            verdict, detail = "valid", ""
        items.append(CheckItem(table.path, verdict, key=measure or None, detail=detail))
    return items


# ---------------------------------------------------------------- T3, T7


def _allowed_key_items(info: MeasureInfoFile, run: _Run):
    """T3: entries and the reserved references block use only allowable keys."""
    for measure_id, entry in info.entries.items():
        disallowed = sorted(validate_entry_keys(entry, run.config).disallowed)
        if disallowed:
            yield CheckItem(
                path=info.path,
                key=measure_id,
                verdict="invalid",
                detail=f"keys outside the allowable list: {', '.join(disallowed)}",
            )
        else:
            yield CheckItem(path=info.path, key=measure_id, verdict="valid")

    if info.references is not None:
        # The bibliography block is reserved structure, not a measure entry.
        empty = sorted(r.ref_id for r in info.references.values() if not r.fields)
        if empty:
            yield CheckItem(
                path=info.path,
                key=REFERENCES_KEY,
                verdict="invalid",
                detail=f"references without any fields: {', '.join(empty)}",
            )
        else:
            yield CheckItem(path=info.path, key=REFERENCES_KEY, verdict="valid")


def _expected_key_items(info: MeasureInfoFile, run: _Run):
    """T7: expected keys are present and filled."""
    for measure_id, entry in info.entries.items():
        report = validate_entry_keys(entry, run.config)
        problems = []
        if report.absent:
            problems.append(f"absent: {', '.join(report.absent)}")
        if report.blank:
            problems.append(f"blank: {', '.join(report.blank)}")
        if problems:
            yield CheckItem(
                path=info.path, key=measure_id, verdict="invalid", detail="; ".join(problems)
            )
        else:
            yield CheckItem(path=info.path, key=measure_id, verdict="valid")


# ---------------------------------------------------------------- T5, T14


def _missing_measure_items(snapshot: RepoSnapshot, run: _Run):
    """T5: every measure in a parsed data table has metadata.

    Visits the whole snapshot rather than each table because a table that
    failed to parse gets no T5 item; T2, T4, T6, T9 and T10 report it.
    """
    pairing = run.pairing
    for table in snapshot.parsed_tables:
        status, ref = pairing.table_status[table.path]
        if status == "none":
            yield CheckItem(
                path=table.path,
                verdict="invalid",
                detail="no measure_info file found in this or any parent directory",
            )
        elif status == "ambiguous":
            siblings = ", ".join(pairing.ambiguous_dirs[ref])
            yield CheckItem(
                path=table.path,
                verdict="error",
                detail=f"ambiguous pairing: multiple measure_info files claim this table ({siblings})",
            )
        elif status == "broken":
            yield CheckItem(
                path=table.path,
                verdict="error",
                detail=f"paired measure_info file could not be parsed: {ref}",
            )
        else:
            known_ids = pairing.expanded[ref][0]
            for measure in sorted(table.distinct_measures):
                if measure in known_ids:
                    yield CheckItem(path=table.path, key=measure, verdict="valid")
                else:
                    yield CheckItem(
                        path=table.path,
                        key=measure,
                        verdict="missing",
                        detail=f"measure {measure!r} has no entry in {ref}",
                    )


def _extra_measure_items(info: MeasureInfoFile, run: _Run):
    """T14: metadata names no measure that its data tables lack."""
    pairing = run.pairing
    info_dir = _dir_of(info.path)
    if info_dir in pairing.ambiguous_dirs:
        siblings = ", ".join(pairing.ambiguous_dirs[info_dir])
        yield CheckItem(
            path=info.path,
            verdict="error",
            detail=f"ambiguous pairing: directory holds multiple measure_info files ({siblings})",
        )
        return
    ids, failures = pairing.expanded[info.path]
    for measure_id, message in failures:
        yield CheckItem(
            path=info.path,
            key=measure_id,
            verdict="error",
            detail=f"dynamic entry could not be expanded: {message}",
        )
    failed = {measure_id for measure_id, _ in failures}
    in_data: set[str] = set()
    for table in pairing.info_tables[info.path]:
        in_data.update(table.distinct_measures)
    for measure_id in sorted(ids - failed):
        if measure_id in in_data:
            yield CheckItem(path=info.path, key=measure_id, verdict="valid")
        else:
            yield CheckItem(
                path=info.path,
                key=measure_id,
                verdict="extra",
                detail=f"measure {measure_id!r} appears in no corresponding data table",
            )


# ---------------------------------------------------------------- T4, T6, T9, T10


def _vocabulary_items(table: DataTable, element: str, present: frozenset[str], run: _Run):
    vocabulary = run.config.vocabularies[element]
    for value in sorted(present):
        if value in vocabulary:
            yield CheckItem(path=table.path, key=value, verdict="valid")
        else:
            yield CheckItem(
                path=table.path,
                key=value,
                verdict="invalid",
                detail=f"{element} {value!r} not in the configured vocabulary",
            )


def _measure_type_items(table: DataTable, run: _Run):
    """T4: measure types come from the configured vocabulary."""
    return _vocabulary_items(table, "measure_type", table.distinct_measure_types, run)


def _column_items(table: DataTable, run: _Run):
    """T6: required columns present, no column outside required and optional."""
    required = set(run.config.required_columns)
    present = set(table.columns)
    absent = sorted(required - present)
    unexpected = sorted(present - required - set(run.config.optional_columns))
    problems = []
    if absent:
        problems.append(f"missing columns: {', '.join(absent)}")
    if unexpected:
        problems.append(f"unexpected columns: {', '.join(unexpected)}")
    if problems:
        return [CheckItem(path=table.path, verdict="invalid", detail="; ".join(problems))]
    return [CheckItem(path=table.path, verdict="valid")]


def _region_type_items(table: DataTable, run: _Run):
    """T9: region types come from the configured vocabulary."""
    if "region_type" not in table.columns:
        return ()
    return _vocabulary_items(table, "region_type", table.distinct_region_types, run)


def _known_measure_items(table: DataTable, run: _Run):
    """T10: measures appear in the configured known-measures list, when there is one."""
    known = run.config.known_measures
    if known is None:
        yield CheckItem(
            path=table.path, verdict="skipped", detail="no known-measures list configured"
        )
        return
    for measure in sorted(table.distinct_measures):
        if measure in known:
            yield CheckItem(path=table.path, key=measure, verdict="valid")
        else:
            yield CheckItem(
                path=table.path,
                key=measure,
                verdict="invalid",
                detail=f"measure {measure!r} not in the known-measures list",
            )


# ---------------------------------------------------------------- T11, T12, T13


def _file_name_items(cf: ClassifiedFile, run: _Run):
    """T11: file names match the naming pattern and the extension allowlist."""
    config = run.config
    name = cf.basename
    problems = []
    if not re.fullmatch(config.naming_pattern, name):
        problems.append(f"name does not match pattern {config.naming_pattern}")
    ext = name.rsplit(".", 1)[-1].lower() if "." in name else ""
    if ext not in config.allowed_extensions:
        shown = ext or "(none)"
        problems.append(f"extension {shown} not in the allowlist")
    if problems:
        return [CheckItem(path=cf.path, verdict="invalid", detail="; ".join(problems))]
    return [CheckItem(path=cf.path, verdict="valid")]


def _code_exists_items(snapshot: RepoSnapshot, run: _Run):
    """T12: every directory of distribution data has a populated code directory."""
    code_expectations: dict[str, str] = {}
    for cf in snapshot.files:
        if (
            cf.in_distribution
            and cf.kind in ("tabular_data", "layer_data")
            and cf.sibling_code_dir is not None
        ):
            code_expectations.setdefault(_dir_of(cf.path), cf.sibling_code_dir)

    dirs_with_files = {_dir_of(cf.path) for cf in snapshot.files}
    for data_dir in sorted(code_expectations):
        code_dir = code_expectations[data_dir]
        populated = any(d == code_dir or d.startswith(code_dir + "/") for d in dirs_with_files)
        if populated:
            yield CheckItem(path=data_dir, verdict="valid")
        else:
            yield CheckItem(
                path=data_dir,
                verdict="invalid",
                detail=f"distribution data present but {code_dir}/ is absent or empty",
            )


def _file_name_length_items(cf: ClassifiedFile, run: _Run):
    """T13: file names stay within the length limit."""
    limit = run.config.filename_limit
    name = cf.basename
    if len(name) <= limit:
        return [CheckItem(path=cf.path, verdict="valid")]
    return [
        CheckItem(
            path=cf.path,
            verdict="invalid",
            detail=f"file name is {len(name)} characters; limit is {limit}",
        )
    ]


# ---------------------------------------------------------------- T8


def _json_items(snapshot: RepoSnapshot, run: _Run):
    """T8: every JSON-bearing file parses as JSON."""
    for path in sorted(snapshot.json_syntax):
        message = snapshot.json_syntax[path]
        if message is None:
            yield CheckItem(path=path, verdict="valid")
        else:
            yield CheckItem(path=path, verdict="invalid", detail=message)


# ---------------------------------------------------------------- registry

CHECKS: tuple[Check, ...] = (
    Check("T2", "test_percent_data", "table", _percent_items),
    Check("T3", "test_measure_info_structure", "info", _allowed_key_items),
    Check("T4", "test_measure_type", "table", _measure_type_items),
    Check("T5", "test_measure_info_missing_measures", "repo", _missing_measure_items),
    Check("T6", "test_columns", "table", _column_items),
    Check("T7", "test_measure_info_keys", "info", _expected_key_items),
    Check("T8", "test_jsons", "repo", _json_items),
    Check("T9", "test_region_type", "table", _region_type_items),
    Check("T10", "test_known_measures", "table", _known_measure_items),
    Check("T11", "test_file_name", "file", _file_name_items),
    Check("T12", "test_code_exists", "repo", _code_exists_items),
    Check("T13", "test_file_name_len", "file", _file_name_length_items),
    Check("T14", "test_measure_info_extra_measures", "info", _extra_measure_items),
)

CHECK_NAMES: dict[str, str] = {check.id: check.name for check in CHECKS}
CHECK_ORDER: tuple[str, ...] = tuple(CHECK_NAMES)

# subject → (the snapshot field it iterates, the noun of its parse-failure item)
_SUBJECTS = {
    "table": ("data_tables", "table"),
    "info": ("measure_info_files", "file"),
    "file": ("files", None),
}


def _run_check(check: Check, run: _Run) -> CheckReport:
    settings = run.config.check_settings(check.id)
    if check.subject == "repo":
        items = [i for i in check.visit(run.snapshot, run) if settings.applies_to(i.path)]
        return CheckReport(check=check, items=tuple(items))
    attr, noun = _SUBJECTS[check.subject]
    items = []
    for subject in getattr(run.snapshot, attr):
        if not settings.applies_to(subject.path):
            continue
        if isinstance(subject, ParseFailure):
            detail = f"{noun} could not be parsed: {subject.message}"
            items.append(CheckItem(path=subject.path, verdict="error", detail=detail))
        else:
            items.extend(check.visit(subject, run))
    return CheckReport(check=check, items=tuple(items))


# ---------------------------------------------------------------- suite


def run_suite(
    snapshot: RepoSnapshot,
    config: RepoConfig | None = None,
    selected: set[str] | None = None,
    *,
    dev: bool = False,
    strict: bool = False,
) -> SuiteReport:
    """Run the selected checks (default: all) and aggregate the suite verdict.

    ``dev`` downgrades every enforced check to a warning, for development
    repositories that want reports without gating; ``strict`` upgrades
    warnings to enforced. Checks configured ``off`` stay off either way.
    """
    config = config or default_config()
    if selected is not None:
        unknown = sorted(set(selected) - set(CHECK_NAMES))
        if unknown:
            raise ConfigError(
                f"unknown check id(s) selected: {', '.join(unknown)}"
                f" (known: {', '.join(CHECK_ORDER)})"
            )
    run = _Run(snapshot, config)
    reports = tuple(
        _run_check(check, run)
        for check in CHECKS
        if selected is None or check.id in selected
    )
    enforcement = {}
    for report in reports:
        tier = config.enforcement(report.check.id)
        if dev and tier == "enforced":
            tier = "warn"
        elif strict and tier == "warn":
            tier = "enforced"
        enforcement[report.check.id] = tier
    overall = all(
        report.passed
        for report in reports
        if enforcement[report.check.id] == "enforced"
    )
    return SuiteReport(
        root=snapshot.root,
        reports=reports,
        enforcement=enforcement,
        overall_pass=overall,
    )
