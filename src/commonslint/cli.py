"""Command-line entry point: check, scan, expand, dict, fair.

Exit codes follow the CI contract: 0 = pass, 1 = enforced check failures,
2 = configuration, usage, or IO errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .checks import CHECK_NAMES, CHECK_ORDER, run_suite
from .config import load_config
from .errors import CommonsLintError, ConfigError
from .expansion import expand_file
from .fair import read_assessment_file, read_checklist_file, score_assessment
from .metadata import load_measure_info, serialize_measure_info
from .reports import render_dictionary, render_fair, render_suite, suite_filenames, write_atomic
from .scanner import ParseFailure, RepoSnapshot, scan_repo

EXIT_PASS = 0
EXIT_FAILURES = 1
EXIT_ERROR = 2


def _shown(path: object) -> str:
    """``path`` as text a strict stdout can encode.

    An undecodable byte of a file name is a lone surrogate; it is shown as
    its backslash escape, as the report files write it.
    """
    return str(path).encode("utf-8", "backslashreplace").decode("utf-8")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on stderr."""

    def error(self, message: str):
        self.exit(EXIT_ERROR, f"error: {message}\n")


def _add_repo_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--repo", default=".", help="repository root (default: current directory)")
    parser.add_argument("--config", default=None, help="path to a config file (default: discover in repo)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="commonslint",
        description="Lint data-commons repositories and their measure metadata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the validation catalog and write reports")
    _add_repo_options(check)
    check.add_argument(
        "--tests",
        default=None,
        help=f"comma-separated check ids to run (default: all of {CHECK_ORDER[0]}-{CHECK_ORDER[-1]})",
    )
    check.add_argument("--out", default="reports", help="report output directory")
    check.add_argument("--no-reports", action="store_true", help="skip writing HTML/JSON reports")
    mode = check.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true", help="upgrade warn-tier checks to enforced")
    mode.add_argument("--dev", action="store_true", help="downgrade enforced checks to warnings")

    scan = sub.add_parser("scan", help="classify repository files and print the inventory")
    _add_repo_options(scan)
    scan.add_argument("--json", action="store_true", help="print the inventory as JSON")

    expand = sub.add_parser("expand", help="materialize dynamic measure_info entries")
    expand.add_argument("--in", dest="infile", required=True, help="measure_info file to expand")
    expand.add_argument("--out", dest="outfile", required=True, help="where to write the expanded file")

    dict_cmd = sub.add_parser("dict", help="render the static data dictionary")
    _add_repo_options(dict_cmd)
    dict_cmd.add_argument("--out", default="dictionary", help="dictionary output directory")

    fair = sub.add_parser("fair", help="score a FAIR maturity self-assessment")
    source = fair.add_mutually_exclusive_group(required=True)
    source.add_argument("--assessment", help="indicator-level assessment file (JSON or CSV)")
    source.add_argument(
        "--checklist",
        help="principle-level checklist JSON (Achieving / WorkingTowards / NotAddressing)",
    )
    fair.add_argument("--out", default="fair", help="report output directory")
    return parser


def _without_reports(snapshot: RepoSnapshot, out: str) -> RepoSnapshot:
    """``snapshot`` without the files ``render_suite`` writes into ``out``.

    When ``out`` is the repository root or lies under it, a second run would
    otherwise check the reports of the first.
    """
    rel = os.path.relpath(os.path.realpath(out), os.path.realpath(snapshot.root))
    if rel == os.pardir or rel.startswith(os.pardir + os.sep):
        return snapshot
    prefix = "" if rel == os.curdir else rel.replace(os.sep, "/") + "/"
    written = {prefix + name for name in suite_filenames(CHECK_NAMES.values())}
    return dataclasses.replace(
        snapshot, files=tuple(f for f in snapshot.files if f.path not in written)
    )


def cmd_check(args: argparse.Namespace) -> int:
    selected = None
    if args.tests is not None:
        selected = {part.strip() for part in args.tests.split(",") if part.strip()}
        if not selected:
            raise ConfigError(f"--tests names no check id: {args.tests!r}")
    config = load_config(args.config, repo_root=args.repo)
    snapshot = _without_reports(scan_repo(args.repo, config), args.out)
    suite = run_suite(snapshot, config, selected, dev=args.dev, strict=args.strict)
    for report in suite.reports:
        tier = suite.enforcement[report.check.id]
        print(f"{report.check.id} {report.check.name}: {report.summary_line()} [{tier}]")
    print(f"overall: {'pass' if suite.overall_pass else 'fail'}")
    if not args.no_reports:
        filenames = render_suite(suite, args.out)
        print(f"reports written to {_shown(Path(args.out))}/ ({len(filenames)} files)")
    return EXIT_PASS if suite.overall_pass else EXIT_FAILURES


def cmd_scan(args: argparse.Namespace) -> int:
    config = load_config(args.config, repo_root=args.repo)
    snapshot = scan_repo(args.repo, config)
    if args.json:
        payload = {
            "root": snapshot.root,
            "files": [
                {
                    "path": f.path,
                    "kind": f.kind,
                    "in_distribution": f.in_distribution,
                }
                for f in snapshot.files
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_PASS
    for f in snapshot.files:
        marker = " [distribution]" if f.in_distribution else ""
        print(f"{f.kind:>13}  {_shown(f.path)}{marker}")
    kinds: dict[str, int] = {}
    for f in snapshot.files:
        kinds[f.kind] = kinds.get(f.kind, 0) + 1
    summary = ", ".join(f"{kinds[k]} {k}" for k in sorted(kinds))
    print(f"{len(snapshot.files)} files: {summary}")
    return EXIT_PASS


def cmd_expand(args: argparse.Namespace) -> int:
    info = load_measure_info(args.infile)
    expanded = expand_file(info)
    out_path = Path(args.outfile)
    write_atomic(out_path, (serialize_measure_info(expanded),))
    print(f"expanded {len(info.entries)} entries into {len(expanded.entries)} ({_shown(out_path)})")
    return EXIT_PASS


def cmd_dict(args: argparse.Namespace) -> int:
    config = load_config(args.config, repo_root=args.repo)
    snapshot = scan_repo(args.repo, config)
    written = render_dictionary(snapshot, args.out)
    # Warned of only once written: a write that fails exits 2 with one line.
    for info in snapshot.measure_info_files:
        if isinstance(info, ParseFailure):
            reason = info.message.removeprefix(f"{info.path}: ")
            print(f"warning: {info.path} left out of the dictionary: {reason}", file=sys.stderr)
    measures = sum(name.startswith("measures/") for name in written)
    categories = sum(name.startswith("categories/") for name in written)
    print(
        f"dictionary written to {_shown(Path(args.out))}/"
        f" ({measures} measures, {categories} categories)"
    )
    return EXIT_PASS


def cmd_fair(args: argparse.Namespace) -> int:
    if args.assessment:
        assessment = read_assessment_file(args.assessment)
    else:
        assessment = read_checklist_file(args.checklist)
    report = score_assessment(assessment)
    render_fair(report, args.out)
    print(f"coverage: {report.coverage:.1%}")
    if report.gaps:
        print(f"{len(report.gaps)} gap(s) at level 1:")
        for gap in report.gaps:
            print(f"  {gap.priority}: {gap.indicator_id} - {gap.text}")
    else:
        print("no gaps at level 1")
    if report.has_essential_gap:
        print("warning: at least one Essential indicator is not being considered yet")
    print(f"report written to {_shown(Path(args.out))}/")
    return EXIT_PASS


_COMMANDS = {
    "check": cmd_check,
    "scan": cmd_scan,
    "expand": cmd_expand,
    "dict": cmd_dict,
    "fair": cmd_fair,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CommonsLintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
