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
from functools import cached_property, partial
from typing import Callable, Container, Iterable

from .config import RepoConfig, default_config
from .errors import ConfigError, DomainError
from .expansion import expand_dynamic, expand_ids, expand_info
from .metadata import MeasureInfoFile
from .scanner import ClassifiedFile, DataTable, ParseFailure, RepoSnapshot
from .schema import REFERENCES_KEY, is_blank

VERDICTS = ("valid", "invalid", "missing", "extra", "error", "skipped")
_DETAIL_REQUIRED = {"invalid", "missing", "extra", "error"}


@dataclass(frozen=True, init=False)
class CheckItem:
    """One examined subject: a path, optionally narrowed by a key."""

    path: str
    verdict: str
    key: str | None = None
    detail: str = ""

    def __init__(self, path: str, verdict: str, key: str | None = None, detail: str = "") -> None:
        # Filled through the instance dict: no object.__setattr__ call a field.
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict: {verdict!r}")
        if verdict in _DETAIL_REQUIRED and not detail:
            raise ValueError(f"{verdict} item for {path} needs a detail")
        fields = self.__dict__
        fields["path"], fields["verdict"], fields["key"], fields["detail"] = path, verdict, key, detail


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

    @cached_property
    def counts(self) -> dict[str, int]:
        """Items per verdict, every verdict present; counted once per report."""
        tally = {verdict: 0 for verdict in VERDICTS}
        for item in self.items:
            tally[item.verdict] += 1
        return tally

    @property
    def total(self) -> int:
        return len(self.items)

    @property
    def passed(self) -> bool:
        return self.counts["valid"] + self.counts["skipped"] == self.total

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


def format_percentage(count: int, total: int) -> str:
    """Render 100*count/total to one decimal, ties away from zero, '%'-suffixed."""
    if total <= 0:
        raise DomainError(f"total must be positive, got {total}")
    if count < 0 or count > total:
        raise DomainError(f"count must be within [0, {total}], got {count}")
    # Tenths of a percent, rounded half up in integers: (1000*count/total + 1/2) // 1.
    tenths = (2000 * count + total) // (2 * total)
    return f"{tenths // 10}.{tenths % 10}%"


def _dir_of(path: str) -> str:
    return path.rpartition("/")[0]


def _ancestor_dirs(path: str):
    """Directories from the file's own dir up to the repo root ('')."""
    current = _dir_of(path)
    while current:
        yield current
        current = _dir_of(current)
    yield ""


class _Run:
    """What the checks of one run_suite call share, each view built on first use.

    A parsed data table pairs with the measure_info files of its nearest
    ancestor directory that holds any; T5 and T14 judge that pairing.
    """

    def __init__(self, snapshot: RepoSnapshot, config: RepoConfig) -> None:
        self.snapshot = snapshot
        self.config = config

    @cached_property
    def infos_by_dir(self) -> dict[str, list[MeasureInfoFile | ParseFailure]]:
        """The measure_info files, parsed or not, of each directory that holds any."""
        by_dir: dict[str, list[MeasureInfoFile | ParseFailure]] = {}
        for info in self.snapshot.measure_info_files:
            by_dir.setdefault(_dir_of(info.path), []).append(info)
        return by_dir

    @cached_property
    def governing(self) -> dict[str, list[MeasureInfoFile | ParseFailure]]:
        """Per parsed table path, the files of its nearest ancestor dir holding any."""
        by_dir = self.infos_by_dir
        return {
            table.path: next((by_dir[d] for d in _ancestor_dirs(table.path) if d in by_dir), [])
            for table in self.snapshot.parsed_tables
        }

    @cached_property
    def governed_tables(self) -> dict[str, list[DataTable]]:
        """Per measure_info file that alone governs tables, those tables."""
        governed: dict[str, list[DataTable]] = {}
        for table in self.snapshot.parsed_tables:
            infos = self.governing[table.path]
            if len(infos) == 1:
                governed.setdefault(infos[0].path, []).append(table)
        return governed

    @cached_property
    def expanded(self) -> dict[str, tuple[set[str], list[tuple[str, str]]]]:
        """Per parsed measure_info path, the ids its entries take and their failures."""
        concrete_ids = partial(expand_ids, expand=expand_dynamic)
        expanded = {}
        for info in self.snapshot.parsed_measure_infos:
            ids, failures = set(), []
            for entry, concrete, problem in expand_info(info, concrete_ids, ids_only=True):
                ids.update(concrete or [entry.measure_id])
                if problem is not None:
                    failures.append((entry.measure_id, problem))
            expanded[info.path] = ids, failures
        return expanded


def _membership_items(
    path: str,
    values: Iterable[str],
    known: Container[str],
    verdict: str,
    detail: Callable[[str], str],
):
    """One item per value, in sorted order: valid when ``known`` holds it, else
    ``verdict`` with the detail ``detail(value)``."""
    for value in sorted(values):
        if value in known:
            yield CheckItem(path=path, key=value, verdict="valid")
        else:
            yield CheckItem(path=path, key=value, verdict=verdict, detail=detail(value))


def _problem_item(path: str, problems: list[str], key: str | None = None) -> CheckItem:
    """Valid when there is no problem, else invalid with the problems joined."""
    if problems:
        return CheckItem(path=path, key=key, verdict="invalid", detail="; ".join(problems))
    return CheckItem(path=path, key=key, verdict="valid")


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
    allowed = run.config.allowed_keys
    for measure_id, entry in info.entries.items():
        disallowed = sorted(entry.data.keys() - allowed)
        problems = []
        if disallowed:
            problems.append(f"keys outside the allowable list: {', '.join(disallowed)}")
        yield _problem_item(info.path, problems, key=measure_id)

    if info.references is not None:
        # The bibliography block is reserved structure, not a measure entry.
        empty = sorted(ref_id for ref_id, ref in info.references.items() if ref == {})
        problems = [f"references without any fields: {', '.join(empty)}"] if empty else []
        yield _problem_item(info.path, problems, key=REFERENCES_KEY)


def _expected_key_items(info: MeasureInfoFile, run: _Run):
    """T7: expected keys are present and filled; absent and blank are reported apart."""
    expected = run.config.expected_keys
    for measure_id, entry in info.entries.items():
        data = entry.data
        absent = sorted(expected.difference(data))
        blank = sorted(k for k in expected.intersection(data) if is_blank(data[k]))
        problems = [
            f"{kind}: {', '.join(keys)}" for kind, keys in (("absent", absent), ("blank", blank)) if keys
        ]
        yield _problem_item(info.path, problems, key=measure_id)


# ---------------------------------------------------------------- T5, T14


def _missing_measure_items(snapshot: RepoSnapshot, run: _Run):
    """T5: every measure in a parsed data table has metadata.

    Visits the whole snapshot rather than each table because a table that
    failed to parse gets no T5 item; T2, T4, T6, T9 and T10 report it.
    """
    for table in snapshot.parsed_tables:
        infos = run.governing[table.path]
        if not infos:
            yield CheckItem(
                path=table.path,
                verdict="invalid",
                detail="no measure_info file found in this or any parent directory",
            )
        elif len(infos) > 1:
            siblings = ", ".join(sorted(i.path for i in infos))
            yield CheckItem(
                path=table.path,
                verdict="error",
                detail=f"ambiguous pairing: multiple measure_info files claim this table ({siblings})",
            )
        elif isinstance(infos[0], ParseFailure):
            yield CheckItem(
                path=table.path,
                verdict="error",
                detail=f"paired measure_info file could not be parsed: {infos[0].path}",
            )
        else:
            ref = infos[0].path
            yield from _membership_items(
                table.path,
                table.distinct_measures,
                run.expanded[ref][0],
                "missing",
                lambda measure: f"measure {measure!r} has no entry in {ref}",
            )


def _extra_measure_items(info: MeasureInfoFile, run: _Run):
    """T14: metadata names no measure that its data tables lack."""
    siblings = run.infos_by_dir[_dir_of(info.path)]
    if len(siblings) > 1:
        names = ", ".join(sorted(i.path for i in siblings))
        yield CheckItem(
            path=info.path,
            verdict="error",
            detail=f"ambiguous pairing: directory holds multiple measure_info files ({names})",
        )
        return
    ids, failures = run.expanded[info.path]
    for measure_id, message in failures:
        yield CheckItem(
            path=info.path,
            key=measure_id,
            verdict="error",
            detail=f"dynamic entry could not be expanded: {message}",
        )
    in_data: set[str] = set()
    for table in run.governed_tables.get(info.path, ()):
        in_data.update(table.distinct_measures)
    yield from _membership_items(
        info.path,
        ids - {measure_id for measure_id, _ in failures},
        in_data,
        "extra",
        lambda measure: f"measure {measure!r} appears in no corresponding data table",
    )


# ---------------------------------------------------------------- T4, T6, T9, T10


def _measure_type_items(table: DataTable, run: _Run):
    """T4: measure types come from the configured vocabulary."""
    return _membership_items(
        table.path,
        table.distinct_measure_types,
        run.config.vocabularies["measure_type"],
        "invalid",
        lambda value: f"measure_type {value!r} not in the configured vocabulary",
    )


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
    return [_problem_item(table.path, problems)]


def _region_type_items(table: DataTable, run: _Run):
    """T9: region types come from the configured vocabulary."""
    if "region_type" not in table.columns:
        return ()
    return _membership_items(
        table.path,
        table.distinct_region_types,
        run.config.vocabularies["region_type"],
        "invalid",
        lambda value: f"region_type {value!r} not in the configured vocabulary",
    )


def _known_measure_items(table: DataTable, run: _Run):
    """T10: measures appear in the configured known-measures list, when there is one."""
    known = run.config.known_measures
    if known is None:
        detail = "no known-measures list configured"
        return [CheckItem(path=table.path, verdict="skipped", detail=detail)]
    return _membership_items(
        table.path,
        table.distinct_measures,
        known,
        "invalid",
        lambda measure: f"measure {measure!r} not in the known-measures list",
    )


# ---------------------------------------------------------------- T11, T12, T13


def _file_name_items(cf: ClassifiedFile, run: _Run):
    """T11: file names match the naming pattern and the extension allowlist."""
    config = run.config
    name = cf.basename
    problems = []
    if not re.fullmatch(config.naming_pattern, name):
        problems.append(f"name does not match pattern {config.naming_pattern}")
    if cf.extension not in config.allowed_extensions:
        problems.append(f"extension {cf.extension or '(none)'} not in the allowlist")
    return [_problem_item(cf.path, problems)]


def _code_exists_items(snapshot: RepoSnapshot, run: _Run):
    """T12: every directory of distribution data has a populated code directory."""
    code_expectations: dict[str, str] = {}
    for cf in snapshot.files:
        if cf.sibling_code_dir is not None:
            code_expectations.setdefault(_dir_of(cf.path), cf.sibling_code_dir)

    # Every directory that holds a file at or below it.
    populated = {d for cf in snapshot.files for d in _ancestor_dirs(cf.path)}
    for data_dir in sorted(code_expectations):
        code_dir = code_expectations[data_dir]
        problems = []
        if code_dir not in populated:
            problems.append(f"distribution data present but {code_dir}/ is absent or empty")
        yield _problem_item(data_dir, problems)


def _file_name_length_items(cf: ClassifiedFile, run: _Run):
    """T13: file names stay within the length limit."""
    limit = run.config.filename_limit
    name = cf.basename
    problems = []
    if len(name) > limit:
        problems.append(f"file name is {len(name)} characters; limit is {limit}")
    return [_problem_item(cf.path, problems)]


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
    scoped = settings.include or settings.exclude
    if check.subject == "repo":
        items = check.visit(run.snapshot, run)
        items = [i for i in items if settings.applies_to(i.path)] if scoped else items
        return CheckReport(check=check, items=tuple(items))
    attr, noun = _SUBJECTS[check.subject]
    items = []
    for subject in getattr(run.snapshot, attr):
        if scoped and not settings.applies_to(subject.path):
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
    warnings to enforced. The two are exclusive. Checks configured ``off``
    stay off either way.
    """
    if dev and strict:
        raise ConfigError("dev and strict are exclusive")
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
