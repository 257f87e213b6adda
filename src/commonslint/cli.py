"""Command-line entry point: check, scan, expand, dict, fair.

Exit codes follow the CI contract: 0 = pass, 1 = enforced check failures,
2 = configuration, usage, or IO errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .checks import CHECK_ORDER, run_suite
from .config import load_config
from .errors import CommonsLintError
from .expansion import expand_file
from .fair import convert_checklist, read_assessment_file, score_assessment
from .metadata import decode_utf8, load_measure_info, parse_json, serialize_measure_info
from .reports import render_dictionary, render_fair, render_suite, write_atomic
from .scanner import scan_repo

EXIT_PASS = 0
EXIT_FAILURES = 1
EXIT_ERROR = 2


def _shown(path: object) -> str:
    """``path`` as text a strict stdout can encode.

    An undecodable byte of a file name is a lone surrogate; it is shown as
    its backslash escape, as the report files write it.
    """
    return str(path).encode("utf-8", "backslashreplace").decode("utf-8")


def _add_repo_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--repo", default=".", help="repository root (default: current directory)")
    parser.add_argument("--config", default=None, help="path to a config file (default: discover in repo)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def cmd_check(args: argparse.Namespace) -> int:
    config = load_config(args.config, repo_root=args.repo)
    snapshot = scan_repo(args.repo, config)
    selected = None
    if args.tests:
        selected = {part.strip() for part in args.tests.split(",") if part.strip()}
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
    write_atomic(out_path, serialize_measure_info(expanded))
    print(f"expanded {len(info.entries)} entries into {len(expanded.entries)} ({_shown(out_path)})")
    return EXIT_PASS


def cmd_dict(args: argparse.Namespace) -> int:
    config = load_config(args.config, repo_root=args.repo)
    snapshot = scan_repo(args.repo, config)
    site = render_dictionary(snapshot, args.out)
    print(
        f"dictionary written to {_shown(site.outdir)}/"
        f" ({len(site.measure_pages)} measures, {len(site.category_files)} categories)"
    )
    return EXIT_PASS


def cmd_fair(args: argparse.Namespace) -> int:
    if args.assessment:
        assessment = read_assessment_file(args.assessment)
    else:
        text = decode_utf8(Path(args.checklist).read_bytes(), args.checklist)
        raw = parse_json(text, args.checklist)
        if not isinstance(raw, dict):
            raise CommonsLintError("checklist must be a JSON object of principle -> category")
        assessment = convert_checklist(raw)
    report = score_assessment(assessment)
    render_fair(report, args.out)
    print(f"coverage: {report.coverage:.1%}")
    if report.gaps:
        print(f"{len(report.gaps)} gap(s) at level 1:")
        for gap in report.gaps:
            print(f"  {gap.indicator.priority}: {gap.indicator.indicator_id} - {gap.indicator.text}")
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
