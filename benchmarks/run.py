"""End-to-end benchmark of the commonslint CLI on generated repositories.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's repository from the seed (see ``generate.py``), then
runs a closed loop with one client for S seconds: each operation is one
``commonslint check`` or ``commonslint dict`` run in its own fresh Python
process (``worker.py``), the next starting only after the previous one ended.
Every operation is judged against the generator's manifest (exit code,
``suite.json`` verdict counts, dictionary page count) and its report bytes
against the first operation of the same command.

With ``--trace 0`` it prints the end-to-end metrics: median wall time of
each command, median peak RSS of a process that ran only that command, and
median set-up time (process start until the parser is built and the config
loaded). With ``--trace 1`` each round runs an untraced and a traced
``check`` (in alternating order) and a traced ``dict``, and it prints the
per-layer metrics: medians over the traced runs, where the scan and config
metrics come from both commands, the check and suite-report metrics from
``check``, and the expansion and dictionary metrics from ``dict``.
``trace.overhead_s`` is the median traced ``check`` time minus the median
untraced one.
The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Run it from a checkout that holds ``src/commonslint``; it reads and writes
only inside that checkout (under ``.bench_work/``) and exits 2 without a
result when the sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from generate import CHECK_IDS, SHAPES, generate  # noqa: E402
from tracing import layer_metrics  # noqa: E402

END_TO_END = {
    "check_s": "s",
    "dict_s": "s",
    "check_peak_rss_mb": "MB",
    "dict_peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "scanner.parse_data_table_s": "s",
    "scanner.rows": "count",
    "scanner.rows_per_s": "1/s",
    "scanner.bytes_read": "bytes",
    "scanner.tables": "count",
    "scanner.parse_failures": "count",
    "scanner.scan_repo_s": "s",
    "scanner.scan_repo_self_s": "s",
    "scanner.classify_s": "s",
    "scanner.files": "count",
    "metadata.parse_measure_info_s": "s",
    "metadata.files": "count",
    "metadata.entries": "count",
    "expansion.expand_dynamic_s": "s",
    "expansion.expand_dynamic_calls": "count",
    "expansion.concrete_measures": "count",
    "checks.run_suite_s": "s",
    **{f"checks.{cid}_s": "s" for cid in CHECK_IDS},
    "checks.items": "count",
    "checks.items_flagged": "count",
    "reports.render_suite_s": "s",
    "reports.suite_files": "count",
    "reports.suite_bytes": "bytes",
    "reports.render_dictionary_s": "s",
    "reports.render_dictionary_self_s": "s",
    "reports.dict_pages": "count",
    "reports.dict_bytes": "bytes",
    "config.load_config_s": "s",
    "cli.check_self_s": "s",
    "cli.dict_self_s": "s",
    "trace.overhead_s": "s",
}

# At least this many rounds run whatever --seconds says, so every median has
# several samples.
MIN_ROUNDS = 3
# A single command run that takes longer than this is stopped and the
# benchmark aborts, so that a run always ends well within its limit.
OP_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark could not measure: a worker crashed or timed out."""


def _tree(path: Path) -> tuple[str, int, int, int]:
    """Digest, file count, byte count and measures/ page count of a report tree."""
    digest = hashlib.sha256()
    files = size = pages = 0
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        data = file.read_bytes()
        rel = file.relative_to(path).as_posix()
        digest.update(rel.encode("utf-8") + b"\0" + data + b"\0")
        files += 1
        size += len(data)
        pages += rel.startswith("measures/")
    return digest.hexdigest(), files, size, pages


class Harness:
    """One benchmark run: the generated repository and every operation on it."""

    def __init__(self, work: Path, manifest: dict) -> None:
        self.work = work
        self.manifest = manifest
        self.reference: dict[str, str] = {}
        self.ops = 0
        self.failures: list[str] = []

    def run(self, command: str, traced: bool = False) -> dict:
        """Run one command in a fresh worker process, judge it and return its record."""
        self.ops += 1
        n = self.ops
        out = self.work / "out" / str(n)
        result_path = self.work / f"result-{n}.json"
        spans_path = self.work / f"spans-{n}.json"
        # The worker runs in the work dir with a relative --repo: suite.json
        # and index.html embed the repo root, and a relative root keeps the
        # report bytes comparable from one run to the next.
        argv = [sys.executable, str(HERE / "worker.py"), str(SRC), str(result_path),
                command, "repo", str(out.relative_to(self.work))]
        if traced:
            argv += ["--spans", str(spans_path)]
        with open(self.work / "stdout.txt", "wb") as log:
            spawned = time.perf_counter()
            try:
                proc = subprocess.run(argv, cwd=self.work, stdout=log, stderr=subprocess.PIPE,
                                      timeout=OP_TIMEOUT_S)
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{command} run {n} exceeded {OP_TIMEOUT_S} s") from exc
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
            raise BenchError(f"{command} worker exited {proc.returncode}: {' | '.join(tail)}")
        record = json.loads(result_path.read_text("utf-8"))
        record["setup_s"] = record["ready"] - spawned
        if traced:
            record["layers"] = layer_metrics(json.loads(spans_path.read_text("utf-8")), command)
        self._judge(command, n, out, record)
        shutil.rmtree(out, ignore_errors=True)
        for leftover in (result_path, spans_path):
            leftover.unlink(missing_ok=True)
        return record

    def _judge(self, command: str, n: int, out: Path, record: dict) -> None:
        problems = []
        expected_exit = self.manifest[f"{command}_exit"]
        if record["exit"] != expected_exit:
            problems.append(f"exit {record['exit']}, expected {expected_exit}")
        digest, files, size, pages = _tree(out) if out.is_dir() else ("", 0, 0, 0)
        if command == "check":
            record["outputs"] = {"reports.suite_files": files, "reports.suite_bytes": size}
            suite_path = out / "suite.json"
            suite = json.loads(suite_path.read_text("utf-8")) if suite_path.is_file() else {}
            counts = {c["id"]: c["counts"] for c in suite.get("checks", [])}
            if counts != self.manifest["verdicts"]:
                wrong = sorted(cid for cid in CHECK_IDS if counts.get(cid) != self.manifest["verdicts"][cid])
                problems.append(f"verdict counts differ from the manifest on {', '.join(wrong)}")
        else:
            record["outputs"] = {"reports.dict_pages": pages, "reports.dict_bytes": size}
            if pages != self.manifest["dict_pages"]:
                problems.append(f"{pages} dictionary pages, expected {self.manifest['dict_pages']}")
        if self.reference.setdefault(command, digest) != digest:
            problems.append("report bytes differ from the first run")
        if problems:
            self.failures.append(f"{command} run {n}: {'; '.join(problems)}")


def _median(values: list[float], unit: str = "s") -> float:
    # Counts stay whole numbers: the lower median is one of the samples.
    return statistics.median_low(values) if unit in ("count", "bytes") else statistics.median(values)


def _describe(name: str, values: list[float], unit: str) -> str:
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return (f"{name}: median {_median(values, unit):.6g} {unit}"
            f" (q1 {q1:.6g}, q3 {q3:.6g}, max {max(values):.6g}, n={len(values)})")


def measure(harness: Harness, seconds: float) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for command in ("check", "dict"):
            record = harness.run(command)
            samples[f"{command}_s"].append(record["command_s"])
            samples[f"{command}_peak_rss_mb"].append(record["peak_rss_mb"])
            samples["setup_s"].append(record["setup_s"])
        rounds += 1
    return samples


def measure_traced(harness: Harness, seconds: float) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    plain: list[float] = []
    traced: list[float] = []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        # The untraced check goes first in even rounds and second in odd
        # ones, so that the order of operations does not bias the overhead.
        for command, is_traced in (("check", rounds % 2 == 1), ("check", rounds % 2 == 0), ("dict", True)):
            record = harness.run(command, traced=is_traced)
            if not is_traced:
                plain.append(record["command_s"])
                continue
            values = {**record["layers"], **record["outputs"]}
            if command == "check":
                traced.append(record["command_s"])
                values.update({f"checks.{cid}_s": s for cid, s in record["per_check_s"].items()})
            for name, value in values.items():
                samples[name].append(value)
        rounds += 1
    samples["trace.overhead_s"] = [_median(traced) - _median(plain)]
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the workload's sizes (the smoke tests use a small scale)")
    args = parser.parse_args(argv)

    if not (SRC / "commonslint" / "__init__.py").is_file():
        print(f"error: no commonslint sources under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind like an interrupt: the running worker is killed and
    # waited for, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        started = time.perf_counter()
        manifest = generate(args.workload, args.seed, work / "repo", args.scale)
        print(f"workload {args.workload} seed {args.seed}: {json.dumps(manifest['size'])}"
              f" (generated in {time.perf_counter() - started:.2f} s)")
        harness = Harness(work, manifest)
        if args.trace:
            samples, units = measure_traced(harness, args.seconds), PER_LAYER
        else:
            samples, units = measure(harness, args.seconds), END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for failure in harness.failures:
        print(f"FAILED {failure}")
    print(f"ops_failed {len(harness.failures)} / ops_total {harness.ops}")
    for name, unit in units.items():
        print(_describe(name, samples[name], unit))
    metrics = {name: {"value": _median(samples[name], unit), "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": not harness.failures,
        "attempted": harness.ops,
        "failed": len(harness.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
