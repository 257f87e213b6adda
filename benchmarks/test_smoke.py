"""Smoke tests of the benchmark itself, at a tiny size.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from generate import SHAPES, generate  # noqa: E402
from run import END_TO_END, PER_LAYER, SRC, Harness  # noqa: E402

TINY = "0.02"
EXACT_COUNTS = ("scanner.rows", "expansion.expand_dynamic_calls", "checks.items", "reports.dict_pages")


def _bench(workload: str, trace: int, seed: int = 3, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", TINY],
        capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    assert "ops_failed 0 / ops_total" in proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(SHAPES))
@pytest.mark.parametrize("trace, names", [(0, END_TO_END), (1, PER_LAYER)])
def test_every_metric_printed_and_manifest_met(workload, trace, names):
    proc = _bench(workload, trace)
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(names)
    for name, unit in names.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert math.isfinite(metric["value"])
        assert f"{name}: median" in proc.stdout


def test_exact_counts_repeat_across_runs():
    first = _result(_bench("many_datasets", 1, seed=5))["metrics"]
    second = _result(_bench("many_datasets", 1, seed=6))["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"] > 0


def test_manifest_is_a_function_of_the_seed(tmp_path):
    a = generate("many_datasets", 7, tmp_path / "a", float(TINY))
    b = generate("many_datasets", 7, tmp_path / "b", float(TINY))
    c = generate("many_datasets", 8, tmp_path / "c", float(TINY))
    assert a == b
    for key in ("files", "rows", "concrete_measures"):
        assert a["size"][key] == c["size"][key]
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files)
    assert files != sorted(p.relative_to(tmp_path / "c") for p in (tmp_path / "c").rglob("*") if p.is_file())


def test_gate_fails_an_operation_that_disagrees_with_the_manifest(tmp_path):
    manifest = generate("big_tables", 9, tmp_path / "repo", float(TINY))
    manifest["verdicts"]["T12"]["invalid"] += 1
    manifest["dict_pages"] += 1
    harness = Harness(tmp_path, manifest)
    harness.run("check")
    harness.run("dict")
    assert len(harness.failures) == 2
    assert "T12" in harness.failures[0]
    assert "dictionary pages" in harness.failures[1]


def test_exits_nonzero_without_the_sources(tmp_path):
    copy = tmp_path / "benchmarks"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("big_tables", 0, script=copy / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.xfail(strict=True, reason="check raises KeyError when a table paired with a "
                   "measure_info file fails to parse (checks.cross_check_measures)")
def test_check_survives_a_paired_table_that_fails_to_parse(tmp_path):
    dist = tmp_path / "repo" / "d0" / "data" / "distribution"
    dist.mkdir(parents=True)
    (dist / "measure_info.json").write_text('{"m": {"measure_type": "count"}}\n', encoding="utf-8")
    (dist / "m.csv").write_text("geoid,year,measure,value,measure_type\n1,2021,m,3,count,x\n",
                                encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from commonslint.cli import main; sys.exit(main(sys.argv[1:]))",
         "check", "--repo", str(tmp_path / "repo"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 1
    assert (tmp_path / "out" / "suite.json").is_file()


def test_benchmark_json_lists_every_printed_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(SHAPES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
