"""Shared fixture builders: clean and planted repositories on disk.

The planted repository carries exactly one violation per catalog check,
recorded in a hand-written manifest of (path, key, verdict) triples; every
other item any check examines is valid. Violations live in separate
datasets so no check's trigger contaminates another's.
"""

from __future__ import annotations

import csv
import json
import os
import time
from collections import Counter
from pathlib import Path

from commonslint import scanner
from commonslint.checks import run_suite

# Sentinel for "remove this key" in clean_entry overrides.
ABSENT = object()

TABLE_COLUMNS = ("geoid", "year", "measure", "value", "measure_type", "region_type")

LONG_NAME_101 = "a" * 97 + ".txt"


def clean_entry(measure_id: str, **overrides) -> dict:
    """A complete, valid entry: every expected element present and filled."""
    data = {
        "aggregation_method": "percent",
        "category": "Broadband",
        "citations": ["lou04"],
        "data_type": "decimal",
        "equity_category": "Accessibility",
        "layer": {"source": "https://example.org/layers/points.geojson"},
        "long_description": (
            f"Long account of the production of {measure_id}, including methods,"
            " data sources, and decisions made to create the measure."
        ),
        "long_name": f"Long name for {measure_id}"[:55],
        "measure_type": "percent",
        "short_description": f"Short account of {measure_id}"[:100],
        "short_name": f"Short {measure_id}"[:40],
        "sources": [
            {
                "name": "American Community Survey",
                "location": "Table B28001",
                "url": "https://www.census.gov/programs-surveys/acs.html",
                "date_accessed": "2022",
            }
        ],
        "statement": "{value} of households in {region.name} do not have a computer.",
        "unit": "household",
    }
    data.update(overrides)
    return {k: v for k, v in data.items() if v is not ABSENT}


def write_info(path: Path, entries: dict, references: dict | None = None) -> None:
    payload = dict(entries)
    if references is not None:
        payload["_references"] = references
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_table(path: Path, rows: list[tuple], columns: tuple = TABLE_COLUMNS) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def settle_files(root: Path) -> None:
    """Date every file under ``root`` an hour back, so the table cache may keep its parse."""
    then = time.time_ns() - 3600 * 10**9
    for path in root.rglob("*"):
        if path.is_file():
            os.utime(path, ns=(then, then))


def _write_code(dataset: Path) -> None:
    code = dataset / "code" / "distribution" / "build.py"
    code.parent.mkdir(parents=True, exist_ok=True)
    code.write_text("print('distribution build step')\n", encoding="utf-8")


def _write_d0(root: Path) -> None:
    """The clean dataset: concrete + dynamic entries, all paired and valid."""
    dataset = root / "d0_clean"
    dist = dataset / "data" / "distribution"
    write_info(
        dist / "measure_info.json",
        {
            "no_computer": clean_entry("no_computer"),
            "bb_{category}_{variant}": clean_entry(
                "bb",
                short_name="BB {category} {variant}",
                long_name="Broadband {category} {variant} long name",
                short_description="Broadband {category} {variant} summary",
                long_description=(
                    "Broadband {category} {variant}: long account of production,"
                    " methods and sources."
                ),
                measure_type="decimal",
                aggregation_method="mean",
                statement="{value} mbps in {region.name}.",
                categories=["dl", "ul"],
                variants=["mean", "median"],
            ),
        },
        references={
            "lou04": {"title": "Example methods reference", "author": "Lou", "year": 2004}
        },
    )
    write_table(
        dist / "broadband_county.csv",
        [
            ("01001", "2021", "no_computer", "12.5", "percent", "county"),
            ("01003", "2021", "no_computer", "99.9", "percent", "county"),
            ("01005", "2021", "no_computer", "0.0", "percent", "county"),
            ("01007", "2021", "no_computer", "100.0", "percent", "county"),
            ("01001", "2021", "bb_dl_mean", "120.5", "decimal", "county"),
            ("01001", "2021", "bb_dl_median", "98.2", "decimal", "county"),
            ("01001", "2021", "bb_ul_mean", "21.4", "decimal", "county"),
            ("01001", "2021", "bb_ul_median", "18.0", "decimal", "county"),
        ],
    )
    (dist / "centers.geojson").write_text(
        json.dumps({"type": "FeatureCollection", "features": []}) + "\n", encoding="utf-8"
    )
    _write_code(dataset)


def build_clean_repo(root: Path) -> None:
    """A repository every check passes (T10 skipped: no known list)."""
    root.mkdir(parents=True, exist_ok=True)
    _write_d0(root)


PLANTED_MEASURES = (
    "bb_dl_mean",
    "bb_dl_median",
    "bb_ul_mean",
    "bb_ul_median",
    "col_metric",
    "frac_share",
    "impressions",
    "legacy_rate",
    "lonely_metric",
    "m_extra_key",
    "m_sparse",
    "no_computer",
    "orphan_measure",
    "retired_rate",
    "star_count",
    # mystery_rate deliberately omitted: the planted T10 violation.
)


def build_planted_repo(root: Path) -> dict[str, set[tuple]]:
    """A repository with exactly one planted violation per check T2-T14.

    Returns the manifest: check id → set of (path, key, verdict) expected
    to be flagged. Everything else each check examines is valid.
    """
    root.mkdir(parents=True, exist_ok=True)
    _write_d0(root)

    # d1: one entry with a disallowed key (T3), one with absent/blank keys (T7).
    d1 = root / "d1_structure"
    write_info(
        d1 / "data" / "distribution" / "measure_info.json",
        {
            "m_extra_key": clean_entry("m_extra_key", colour_scheme="viridis"),
            "m_sparse": clean_entry("m_sparse", short_name=ABSENT, unit=""),
        },
    )
    write_table(
        d1 / "data" / "distribution" / "d1_metrics.csv",
        [
            ("01001", "2021", "m_extra_key", "50.0", "percent", "county"),
            ("01003", "2021", "m_sparse", "25.0", "percent", "county"),
        ],
    )
    _write_code(d1)

    # d2: suspected 0-1 fraction (T2), unknown measure_type (T4), unknown
    # region_type (T9), measure outside the known list (T10).
    d2 = root / "d2_values"
    write_info(
        d2 / "data" / "distribution" / "measure_info.json",
        {
            "frac_share": clean_entry("frac_share"),
            "impressions": clean_entry("impressions", measure_type="per 100k"),
            "star_count": clean_entry("star_count", measure_type="count"),
            "mystery_rate": clean_entry("mystery_rate", measure_type="count"),
        },
    )
    write_table(
        d2 / "data" / "distribution" / "d2_values.csv",
        [
            ("01001", "2021", "frac_share", "0.12", "percent", "county"),
            ("01003", "2021", "frac_share", "0.45", "percent", "county"),
            ("01005", "2021", "frac_share", "0.88", "percent", "county"),
            ("01001", "2021", "impressions", "500", "per 100k", "county"),
            ("01001", "2021", "star_count", "42", "count", "galaxy"),
            ("01001", "2021", "mystery_rate", "7", "count", "county"),
        ],
    )
    _write_code(d2)

    # d3: a data measure with no metadata (T5), a metadata measure with no
    # data (T14).
    d3 = root / "d3_missing"
    write_info(
        d3 / "data" / "distribution" / "measure_info.json",
        {
            "legacy_rate": clean_entry("legacy_rate"),
            "retired_rate": clean_entry("retired_rate"),
        },
    )
    write_table(
        d3 / "data" / "distribution" / "d3_rates.csv",
        [
            ("01001", "2021", "legacy_rate", "55.5", "percent", "county"),
            ("01003", "2021", "orphan_measure", "60.1", "percent", "county"),
        ],
    )
    _write_code(d3)

    # d4: table missing a required column (T6).
    d4 = root / "d4_columns"
    write_info(
        d4 / "data" / "distribution" / "measure_info.json",
        {"col_metric": clean_entry("col_metric")},
    )
    write_table(
        d4 / "data" / "distribution" / "d4_cols.csv",
        [
            ("2021", "col_metric", "10.0", "percent", "county"),
            ("2021", "col_metric", "20.0", "percent", "county"),
        ],
        columns=("year", "measure", "value", "measure_type", "region_type"),
    )
    _write_code(d4)

    # d5: distribution data without distribution code (T12).
    d5 = root / "d5_nocode"
    write_info(
        d5 / "data" / "distribution" / "measure_info.json",
        {"lonely_metric": clean_entry("lonely_metric")},
    )
    write_table(
        d5 / "data" / "distribution" / "d5_lonely.csv",
        [("01001", "2021", "lonely_metric", "33.3", "percent", "county")],
    )

    # assets: malformed JSON (T8), bad file name (T11), over-long name (T13).
    assets = root / "assets"
    assets.mkdir()
    (assets / "palette.json").write_text('{"colors": [}\n', encoding="utf-8")
    (assets / "weird file.txt").write_text("placeholder\n", encoding="utf-8")
    (assets / LONG_NAME_101).write_text("placeholder\n", encoding="utf-8")

    # Repo config: known-measures list for T10 (everything but mystery_rate).
    measures_yaml = "\n".join(f"  - {m}" for m in PLANTED_MEASURES)
    (root / ".commonslint.yml").write_text(
        f"known_measures:\n{measures_yaml}\n", encoding="utf-8"
    )

    return {
        "T2": {("d2_values/data/distribution/d2_values.csv", "frac_share", "invalid")},
        "T3": {("d1_structure/data/distribution/measure_info.json", "m_extra_key", "invalid")},
        "T4": {("d2_values/data/distribution/d2_values.csv", "per 100k", "invalid")},
        "T5": {("d3_missing/data/distribution/d3_rates.csv", "orphan_measure", "missing")},
        "T6": {("d4_columns/data/distribution/d4_cols.csv", None, "invalid")},
        "T7": {("d1_structure/data/distribution/measure_info.json", "m_sparse", "invalid")},
        "T8": {("assets/palette.json", None, "invalid")},
        "T9": {("d2_values/data/distribution/d2_values.csv", "galaxy", "invalid")},
        "T10": {("d2_values/data/distribution/d2_values.csv", "mystery_rate", "invalid")},
        "T11": {("assets/weird file.txt", None, "invalid")},
        "T12": {("d5_nocode/data/distribution", None, "invalid")},
        "T13": {(f"assets/{LONG_NAME_101}", None, "invalid")},
        "T14": {("d3_missing/data/distribution/measure_info.json", "retired_rate", "extra")},
    }


def oracle_payload(suite) -> dict:
    """The suite.json payload of a SuiteReport, built as a dict (the test oracle).

    ``json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)`` of it
    is the text ``reports.render_suite`` writes.
    """
    return {
        "root": suite.root,
        "overall_pass": suite.overall_pass,
        "enforcement": dict(suite.enforcement),
        "checks": [
            {
                "id": report.check.id,
                "name": report.check.name,
                "counts": report.counts,
                "total": report.total,
                "passed": report.passed,
                "summary": report.summary_line(),
                "items": [
                    {
                        "path": item.path,
                        "key": item.key,
                        "verdict": item.verdict,
                        "detail": item.detail,
                    }
                    for item in report.items
                ],
            }
            for report in suite.reports
        ],
    }


def flagged_items(report) -> set[tuple]:
    """The non-valid, non-skipped items of a CheckReport as manifest triples."""
    return {
        (item.path, item.key, item.verdict)
        for item in report.items
        if item.verdict not in ("valid", "skipped")
    }


def report_for(suite, cid: str):
    """The CheckReport of check ``cid`` in a SuiteReport; KeyError when it did not run."""
    for report in suite.reports:
        if report.check.id == cid:
            return report
    raise KeyError(cid)


def reports_for(snapshot, config, *cids: str) -> tuple:
    """The reports of the named checks, in the order named, from one suite run."""
    suite = run_suite(snapshot, config, set(cids))
    return tuple(report_for(suite, cid) for cid in cids)


def count_parses(monkeypatch):
    """Count the calls to ``scanner.parse_data_table`` and ``scanner.parse_measure_info``.

    Returns a function that reads the per-path call counts so far, as a
    (tables, infos) pair of Counters.
    """
    tables: Counter = Counter()
    infos: Counter = Counter()

    def count(name: str, calls: Counter, path_of) -> None:
        original = getattr(scanner, name)

        def counted(*args, **kwargs):
            calls[path_of(args, kwargs)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(scanner, name, counted)

    count("parse_data_table", tables, lambda args, kwargs: args[1])
    count("parse_measure_info", infos, lambda args, kwargs: kwargs["path"])
    return lambda: (Counter(tables), Counter(infos))
