"""Run one commonslint command in this fresh process and report its costs.

    python3 worker.py SRC RESULT {check,dict} REPO OUT [--spans FILE]

Imports commonslint from SRC, builds the argument parser and loads the
repository config: the set-up every CLI call pays. It then runs ``cli.main``
once and writes RESULT as JSON: the monotonic clock reading when set-up was
done, the command's wall time, its exit code and the process's peak RSS.

With ``--spans`` the command runs traced (see ``tracing.py``) and the spans
are written to FILE at exit. A traced ``check`` also times
``run_suite(snapshot, config, {"Tn"})`` for each check on the snapshot the
command built, untraced.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("src")
    parser.add_argument("result")
    parser.add_argument("command", choices=("check", "dict"))
    parser.add_argument("repo")
    parser.add_argument("out")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import commonslint
    from commonslint import checks, cli

    if not Path(commonslint.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"commonslint imported from {commonslint.__file__}, not {src}")
    argv = [args.command, "--repo", args.repo, "--out", args.out]
    cli.build_parser().parse_args(argv)
    cli.load_config(None, repo_root=args.repo)
    ready = time.perf_counter()

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer(args.command, keep=("scanner.scan_repo", "config.load_config"))
        tracer.install()

    start = time.perf_counter()
    if tracer is None:
        code = cli.main(argv)
    else:
        code = tracer.span("cli.main", cli.main, argv)
    command_s = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"ready": ready, "command_s": command_s, "exit": code, "peak_rss_mb": peak_kib / 1024}
    if tracer is not None and args.command == "check":
        tracer.active = False
        snapshot = tracer.results["scanner.scan_repo"]
        config = tracer.results["config.load_config"]
        per_check = {}
        for cid in checks.CHECK_ORDER:
            t0 = time.perf_counter()
            checks.run_suite(snapshot, config, {cid})
            per_check[cid] = time.perf_counter() - t0
        result["per_check_s"] = per_check
    if tracer is not None:
        Path(args.spans).write_text(json.dumps(tracer.spans), encoding="utf-8")
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
