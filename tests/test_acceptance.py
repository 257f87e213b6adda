"""Acceptance gate: nine criteria, one printed PASS/FAIL line each.

Each test computes its outcome, prints a single ``criterion N PASS/FAIL``
line, and then asserts, so the printed record always matches the pytest
verdict. Tolerances are pinned in-line; the two places where the shipped
numbers in the historical report disagree with the fixed rounding rule are
asserted against the rule and annotated where they occur.
"""

from __future__ import annotations

import csv
import json
import random
import time
from pathlib import Path

from commonslint.checks import (
    CHECK_ORDER,
    format_percentage,
    run_suite,
)
from commonslint.cli import main
from commonslint.config import default_config
from commonslint.expansion import expand_dynamic
from commonslint.fair import (
    FairAssessment,
    convert_checklist,
    load_indicator_registry,
    score_assessment,
)
from commonslint.metadata import parse_measure_info, serialize_measure_info
from commonslint.reports import fair_to_payload
from commonslint.scanner import scan_repo
from commonslint.schema import check_char_limits
from repo_fixtures import build_planted_repo, clean_entry, flagged_items, report_for, reports_for, write_info

CONFIG = default_config()


def _verdict(number: int, ok: bool, description: str) -> bool:
    print(f"criterion {number} {'PASS' if ok else 'FAIL'}: {description}")
    return ok


# ------------------------------------------------------------- criterion 1


def test_criterion_1_percentage_oracle():
    started = time.perf_counter()
    expected = {
        (141, 234): "60.3%",
        # The historical report printed 39.8% here, but 93/234 = 39.7436%,
        # which rounds half-up to 39.7%. No single rounding rule can print
        # 39.8% for this pairing while also printing 14.3% for 34/237
        # (14.3459%), so the fixed rule wins and the divergence is recorded.
        (93, 234): "39.7%",
        (158, 237): "66.7%",
        (34, 237): "14.3%",
        (45, 237): "19.0%",
        (749, 856): "87.5%",
        (107, 856): "12.5%",
        (112, 115): "97.4%",
        (2, 115): "1.7%",
        # Known divergence: the historical report printed 0.8%, but
        # 1/115 = 0.8696%, which rounds half-up to 0.9%.
        (1, 115): "0.9%",
    }
    results = {pair: format_percentage(*pair) for pair in expected}
    elapsed = time.perf_counter() - started
    ok = results == expected and elapsed < 1.0
    assert _verdict(
        1, ok, f"format_percentage reproduces all pairings exactly ({elapsed:.3f}s)"
    )
    assert results == expected


# ------------------------------------------------------------- criterion 2


def test_criterion_2_catalog_precision_recall(tmp_path):
    started = time.perf_counter()
    root = tmp_path / "repo"
    root.mkdir()
    manifest = build_planted_repo(root)
    file_count = sum(1 for p in root.rglob("*") if p.is_file())

    from commonslint.config import load_config

    config = load_config(repo_root=root)
    suite = run_suite(scan_repo(root, config), config)
    mismatches = {}
    for cid in CHECK_ORDER:
        got = flagged_items(report_for(suite, cid))
        if got != manifest[cid]:
            mismatches[cid] = {"flagged": got, "expected": manifest[cid]}
    elapsed = time.perf_counter() - started

    ok = not mismatches and file_count <= 30 and elapsed < 5.0
    assert _verdict(
        2,
        ok,
        "planted-violation fixture flags exactly the manifest for all 13 checks"
        f" ({file_count} files, {elapsed:.2f}s)",
    )
    assert mismatches == {}
    assert file_count <= 30
    assert elapsed < 5.0


# ------------------------------------------------------------- criterion 3


def test_criterion_3_expansion_cardinality():
    started = time.perf_counter()
    categories = [f"c{i:02d}" for i in range(19)]
    variants = [f"v{i}" for i in range(5)]
    entry_data = clean_entry(
        "wide",
        categories=categories,
        variants=variants,
        statement="value for {category} ({variant})",
    )
    from commonslint.metadata import MeasureEntry

    expanded = expand_dynamic(
        MeasureEntry(measure_id="wide_{category}_{variant}", data=entry_data)
    )
    ids = [e.measure_id for e in expanded]
    residue = [
        e.measure_id
        for e in expanded
        if "{category}" in json.dumps(e.data) + e.measure_id
        or "{variant}" in json.dumps(e.data) + e.measure_id
    ]
    elapsed = time.perf_counter() - started

    ok = (
        len(expanded) == 95
        and len(set(ids)) == 95
        and not residue
        and elapsed < 1.0
    )
    assert _verdict(
        3,
        ok,
        f"19 categories x 5 variants expand to {len(expanded)} unique entries,"
        f" no residual placeholders ({elapsed:.3f}s)",
    )
    assert len(expanded) == 95
    assert len(set(ids)) == 95
    assert residue == []


# ------------------------------------------------------------- criterion 4


def test_criterion_4_fair_gap_reproduction():
    # Principle-level self-assessment: everything handled or in progress
    # except persistent-guarantee (A2) and vocabulary-standards (I3) work.
    checklist = {
        "F1": "WorkingTowards", "F2": "WorkingTowards", "F3": "Achieving",
        "F4": "WorkingTowards", "A1": "Achieving", "A1.1": "Achieving",
        "A1.2": "Achieving", "A2": "NotAddressing", "I1": "WorkingTowards",
        "I2": "WorkingTowards", "I3": "NotAddressing", "R1": "WorkingTowards",
        "R1.1": "WorkingTowards", "R1.2": "Achieving", "R1.3": "WorkingTowards",
    }
    report = score_assessment(convert_checklist(checklist))
    essentials = [
        (g["id"], g["priority"], g["level"])
        for g in fair_to_payload(report)["gaps"]
        if g["priority"] == "Essential"
    ]
    ok = essentials == [("RDA-A2-01M", "Essential", 1)]
    assert _verdict(
        4, ok, "checklist scoring flags RDA-A2-01M as the sole Essential gap at level 1"
    )
    assert essentials == [("RDA-A2-01M", "Essential", 1)]


# ------------------------------------------------------------- criterion 5


def test_criterion_5_registry_fidelity():
    registry = load_indicator_registry()
    per_principle = {}
    for ind in registry.values():
        per_principle[ind.principle] = per_principle.get(ind.principle, 0) + 1
    # Counts re-verified indicator-by-indicator against the published RDA
    # maturity-model registry before freezing. The F area holds 7 indicators
    # across four principles (F1:4, F2:1, F3:1, F4:1); a draft tally of 6
    # for the combined F area undercounted and does not sum to 41.
    expected = {
        "F1": 4, "F2": 1, "F3": 1, "F4": 1,
        "A1": 8, "A1.1": 2, "A1.2": 1, "A2": 1,
        "I1": 4, "I2": 2, "I3": 6,
        "R1": 1, "R1.1": 3, "R1.2": 2, "R1.3": 4,
    }
    ok = len(registry) == 41 and per_principle == expected
    assert _verdict(
        5, ok, f"registry ships 41 indicators with verified per-principle counts"
    )
    assert len(registry) == 41
    assert per_principle == expected


# ------------------------------------------------------------- criterion 6


def test_criterion_6_char_limit_boundaries(tmp_path):
    def violations(**overrides):
        from commonslint.metadata import MeasureEntry

        return check_char_limits(MeasureEntry(measure_id="m", data=clean_entry("m", **overrides)))

    field_ok = (
        violations(long_name="x" * 55) == []
        and [v.field for v in violations(long_name="x" * 56)] == ["long_name"]
        and violations(short_name="x" * 40) == []
        and [v.field for v in violations(short_name="x" * 41)] == ["short_name"]
        and violations(short_description="x" * 100) == []
        and [v.field for v in violations(short_description="x" * 101)]
        == ["short_description"]
    )

    (tmp_path / ("a" * 96 + ".txt")).write_text("x", encoding="utf-8")  # 100 chars
    (tmp_path / ("b" * 97 + ".txt")).write_text("x", encoding="utf-8")  # 101 chars
    (t13,) = reports_for(scan_repo(tmp_path, CONFIG), CONFIG, "T13")
    t13_verdicts = {i.path: i.verdict for i in t13.items}
    t13_ok = (
        t13_verdicts["a" * 96 + ".txt"] == "valid"
        and t13_verdicts["b" * 97 + ".txt"] == "invalid"
    )

    ok = field_ok and t13_ok
    assert _verdict(
        6, ok, "char limits are inclusive at 55/40/100 and T13 at basename 100"
    )
    assert field_ok
    assert t13_ok


# ------------------------------------------------------------- criterion 7


def test_criterion_7_determinism(tmp_path, capsys):
    root = tmp_path / "repo"
    root.mkdir()
    build_planted_repo(root)

    def render(out: Path) -> dict[str, bytes]:
        main(["check", "--repo", str(root), "--out", str(out)])
        return {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    first = render(tmp_path / "one")
    second = render(tmp_path / "two")
    capsys.readouterr()  # swallow the CLI chatter; the verdict line follows
    ok = first == second and set(first) >= {"index.html", "suite.json"}
    assert _verdict(
        7, ok, f"two check runs produce byte-identical reports ({len(first)} files)"
    )
    assert first == second


# ------------------------------------------------------------- criterion 8


def test_criterion_8_round_trip(tmp_path):
    clean_root = tmp_path / "clean"
    planted_root = tmp_path / "planted"
    for root in (clean_root, planted_root):
        root.mkdir()
    from repo_fixtures import build_clean_repo

    build_clean_repo(clean_root)
    build_planted_repo(planted_root)
    # One extra handcrafted file exercising unicode, references, and axes.
    write_info(
        tmp_path / "extra" / "measure_info.json",
        {
            "café_{variant}": clean_entry(
                "café", variants={"mean": {"unit": "household"}, "median": None}
            ),
        },
        references={"lou04": {"title": "Accès au haut débit", "year": "2004"}},
    )

    paths = sorted(tmp_path.rglob("measure_info.json"))
    failures = []
    for path in paths:
        original = parse_measure_info(path.read_bytes(), path=str(path))
        reparsed = parse_measure_info(serialize_measure_info(original), path=str(path))
        same_entries = {k: e.data for k, e in original.entries.items()} == {
            k: e.data for k, e in reparsed.entries.items()
        }
        if not (same_entries and original.references == reparsed.references):
            failures.append(str(path))

    ok = not failures and len(paths) >= 5
    assert _verdict(
        8, ok, f"parse-serialize-parse is structurally stable for {len(paths)} files"
    )
    assert failures == []
    assert len(paths) >= 5


# ------------------------------------------------------------- criterion 9


def _generate_fixture(root: Path, rng: random.Random) -> None:
    """Random small repo: 1-2 dirs, each one measure_info plus 1-2 tables."""
    for d in range(rng.randint(1, 2)):
        base = root / f"d{d}"
        ids = [f"m{d}{i}" for i in range(rng.randint(1, 2))]
        write_info(
            base / "measure_info.json", {mid: clean_entry(mid) for mid in ids}
        )
        for t in range(rng.randint(1, 2)):
            rows = []
            pool = list(ids)
            if rng.random() < 0.5:
                pool.append(f"ghost{d}")  # in the data but not the metadata
            for measure in pool:
                if rng.random() < 0.25:
                    continue  # this measure stays metadata-only for this table
                mtype = rng.choice(["percent", "count"])
                for _ in range(rng.randint(1, 4)):
                    roll = rng.random()
                    if roll < 0.55:
                        value = f"{rng.uniform(5, 95):.1f}"
                    elif roll < 0.75:
                        value = f"{rng.uniform(0, 1):.2f}"
                    elif roll < 0.9:
                        value = (
                            f"{rng.uniform(100.1, 250):.1f}"
                            if rng.random() < 0.5
                            else f"{rng.uniform(-50, -0.1):.1f}"
                        )
                    else:
                        value = ""
                    rows.append(("01", "2021", measure, value, mtype, "county"))
            table = base / f"t{t}.csv"
            table.parent.mkdir(parents=True, exist_ok=True)
            with table.open("w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(
                    ("geoid", "year", "measure", "value", "measure_type", "region_type")
                )
                writer.writerows(rows)


def _oracle(root: Path, fraction_min_rows: int):
    """Brute-force expectations computed from the raw files, no engine code."""
    infos = {}  # dir -> (info_rel, set(ids))
    for path in root.rglob("measure_info.json"):
        payload = json.loads(path.read_text("utf-8"))
        ids = {k for k in payload if k != "_references"}
        infos[path.parent] = (path.relative_to(root).as_posix(), ids)

    t5_missing, t14_extra, t2_invalid = set(), set(), set()
    info_usage = {rel: set() for rel, _ in infos.values()}
    for path in sorted(root.rglob("*.csv")):
        rel = path.relative_to(root).as_posix()
        with path.open(encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        info_rel, info_ids = infos[path.parent]
        measures = {row["measure"] for row in rows}
        for measure in measures:
            if measure not in info_ids:
                t5_missing.add((rel, measure, "missing"))
        info_usage[info_rel] |= measures

        percent_groups = {}
        for row in rows:
            if row["measure_type"] != "percent":
                continue
            percent_groups.setdefault(row["measure"], []).append(row["value"])
        for measure, raw in percent_groups.items():
            values = [float(v) for v in raw if v.strip()]
            out_of_range = any(v < 0 or v > 100 for v in values)
            fraction = len(values) >= fraction_min_rows and all(
                0 <= v <= 1 for v in values
            )
            if out_of_range or fraction:
                t2_invalid.add((rel, measure, "invalid"))

    for info_rel, info_ids in infos.values():
        for measure_id in info_ids - info_usage[info_rel]:
            t14_extra.add((info_rel, measure_id, "extra"))
    return t2_invalid, t5_missing, t14_extra


def test_criterion_9_oracle_equivalence(tmp_path):
    mismatches = []
    for seed in range(8):
        rng = random.Random(1000 + seed)
        root = tmp_path / f"seed{seed}"
        root.mkdir()
        _generate_fixture(root, rng)

        snapshot = scan_repo(root, CONFIG)
        t2, t5, t14 = reports_for(snapshot, CONFIG, "T2", "T5", "T14")
        want_t2, want_t5, want_t14 = _oracle(root, CONFIG.fraction_min_rows)

        got = {
            "T2": flagged_items(t2),
            "T5": flagged_items(t5),
            "T14": flagged_items(t14),
        }
        want = {"T2": want_t2, "T5": want_t5, "T14": want_t14}
        if got != want:
            mismatches.append((seed, got, want))
        for report in (t2, t5, t14):
            if any(i.verdict == "error" for i in report.items):
                mismatches.append((seed, report.check.id, "unexpected error items"))

    ok = not mismatches
    assert _verdict(
        9, ok, "T2/T5/T14 match brute-force oracles on 8 random fixtures"
    )
    assert mismatches == []
