"""Seeded generator of data-commons repositories for the benchmark.

Each workload is one repository shape (``SHAPES``). Every repository carries a
fixed share of planted defects, one kind per check, in datasets chosen by the
seed. Alongside the files the generator returns a manifest: the exit code, the
per-check verdict counts and the dictionary page count that ``commonslint``
must produce. The manifest is worked out from what the generator planted,
never by running ``commonslint``, so the benchmark can judge every run.

The seed picks the defective datasets and the cell values; sizes depend only
on the shape and the scale, so every seed does the same amount of work.
"""

from __future__ import annotations

import gzip
import json
import lzma
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

CHECK_IDS = ("T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10", "T11", "T12", "T13", "T14")
VERDICTS = ("valid", "invalid", "missing", "extra", "error", "skipped")
# T10 is warn-tier by default; every other check gates the exit code.
WARN_CHECKS = frozenset({"T10"})

# One planted defect kind per check T2-T14, plus a table that fails to parse.
DEFECTS = (
    "fraction",          # T2: percent values all within [0, 1]
    "bad_key",           # T3: an entry key outside the allowable list
    "bad_measure_type",  # T4: a measure_type outside the vocabulary
    "missing_measure",   # T5: a table measure with no metadata entry
    "missing_column",    # T6: the table lacks the year column
    "blank_key",         # T7: an expected key left blank
    "broken_geojson",    # T8: a truncated geojson layer
    "bad_region_type",   # T9: a region_type outside the vocabulary
    "unknown_measure",   # T10: a measure left out of the known list
    "uppercase_name",    # T11: a file name with capitals
    "no_code",           # T12: no code/distribution directory
    "long_name",         # T13: a basename over the 100-character limit
    "stale_measure",     # T14: a metadata entry with no rows
    "ragged_row",        # T2/T4/T6/T9/T10 errors: a staging table whose last row is ragged
)

COLUMNS = ("geoid", "year", "measure", "value", "measure_type", "region_type")
CONCRETE_TYPES = ("percent", "count", "decimal")

# The paper's industry example: 19 sectors by 5 variants.
INDUSTRIES = (
    ("naics11", "Agriculture"), ("naics21", "Mining"), ("naics22", "Utilities"),
    ("naics23", "Construction"), ("naics31", "Manufacturing"), ("naics42", "Wholesale trade"),
    ("naics44", "Retail trade"), ("naics48", "Transportation"), ("naics51", "Information"),
    ("naics52", "Finance"), ("naics53", "Real estate"), ("naics54", "Professional services"),
    ("naics55", "Management"), ("naics56", "Administrative support"), ("naics61", "Education"),
    ("naics62", "Health care"), ("naics71", "Arts and recreation"), ("naics72", "Food services"),
    ("naics81", "Other services"),
)
VARIANT_TYPES = (
    ("count", "count"), ("percent", "percent"), ("mean", "decimal"),
    ("median", "decimal"), ("share", "percent"),
)

REFERENCES = {
    "ref_acs": {"author": "U.S. Census Bureau", "title": "American Community Survey", "year": 2022},
    "ref_bls": {"author": "Bureau of Labor Statistics", "title": "County Business Patterns", "year": 2021},
}


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload at scale 1."""

    datasets: int
    concrete: int            # concrete entries (and table measures) per dataset
    rows_per_measure: int
    dynamic_every: int = 0   # every n-th dataset also has one 19 x 5 dynamic entry
    compress_every: int = 0  # every n-th table is .csv.gz, the one after .csv.xz


SHAPES = {
    "big_tables": Shape(datasets=20, concrete=6, rows_per_measure=1500, compress_every=5),
    "many_datasets": Shape(datasets=400, concrete=4, rows_per_measure=5, dynamic_every=40),
}


@dataclass
class TableMeasure:
    measure_id: str
    measure_type: str
    region_type: str
    fraction: bool = False


@dataclass
class Dataset:
    name: str
    entries: dict[str, dict]
    expanded: dict[str, list[str]]       # entry id -> its concrete ids
    measures: list[TableMeasure]
    rows_per_measure: int
    compression: str = ""
    defect: str | None = None
    unknown: set[str] = field(default_factory=set)

    @property
    def dist(self) -> str:
        return f"{self.name}/data/distribution"

    @property
    def table_path(self) -> str:
        return f"{self.dist}/{self.name}_values.csv{self.compression}"

    @property
    def info_path(self) -> str:
        return f"{self.dist}/measure_info.json"

    @property
    def layer_path(self) -> str:
        return f"{self.dist}/{self.name}_sites.geojson"

    @property
    def staging_path(self) -> str:
        # Outside data/, so no measure_info pairs with it: a paired table that
        # fails to parse crashes check (see test_smoke.py).
        return f"{self.name}/staging/{self.name}_raw.csv"

    @property
    def columns(self) -> tuple[str, ...]:
        if self.defect == "missing_column":
            return tuple(c for c in COLUMNS if c != "year")
        return COLUMNS

    def files(self) -> list[tuple[str, bool, bool]]:
        """(path, T11 valid, T13 valid) for every file the dataset writes."""
        out = [(self.info_path, True, True), (self.table_path, True, True), (self.layer_path, True, True)]
        if self.defect != "no_code":
            out.append((f"{self.name}/code/distribution/build.py", True, True))
        if self.defect == "uppercase_name":
            out.append((f"{self.name}/README.md", False, True))
        if self.defect == "long_name":
            out.append((f"{self.name}/{'n' * 97}.txt", True, False))
        if self.defect == "ragged_row":
            out.append((self.staging_path, True, True))
        return out


def _entry(measure_id: str, measure_type: str, citations: list[str], **extra) -> dict:
    """A complete entry: every expected element present and filled."""
    data = {
        "aggregation_method": "percent" if measure_type == "percent" else "sum",
        "category": "Broadband",
        "citations": citations,
        "data_type": "integer" if measure_type == "count" else "decimal",
        "equity_category": "Accessibility",
        "layer": {"source": "https://example.org/layers/sites.geojson"},
        "long_description": f"How {measure_id} is produced, from sources through methods.",
        "long_name": f"Long name of {measure_id}",
        "measure_type": measure_type,
        "short_description": f"Summary of {measure_id}",
        "short_name": f"Short {measure_id}",
        "sources": [
            {"name": "American Community Survey", "location": "Table B28001",
             "url": "https://www.census.gov/programs-surveys/acs.html", "date_accessed": "2022"}
        ],
        "statement": "{value} of households in {region.name}.",
        "unit": "household",
    }
    data.update(extra)
    return data


def _dataset(index: int, shape: Shape, rows_per_measure: int) -> Dataset:
    name = f"d{index:04d}"
    entries: dict[str, dict] = {}
    expanded: dict[str, list[str]] = {}
    measures: list[TableMeasure] = []
    for j in range(shape.concrete):
        mid = f"{name}_m{j}"
        mtype = CONCRETE_TYPES[j % len(CONCRETE_TYPES)]
        # Every tenth dataset cites a key missing from _references.
        cites = ["ref_acs", "ref_missing"] if index % 10 == 0 and j == 0 else ["ref_acs"]
        entries[mid] = _entry(mid, mtype, cites)
        expanded[mid] = [mid]
        measures.append(TableMeasure(mid, mtype, "tract" if j % 3 == 2 else "county"))
    if shape.dynamic_every and index % shape.dynamic_every == 0:
        template = f"{name}_emp_{{category}}_{{variant}}"
        entries[template] = _entry(
            "employment {category} {variant}",
            "count",
            ["ref_bls"],
            category="Health",
            short_name="Jobs {category} {variant}",
            categories={token: {"long_name": f"Employment in {label} ({{variant}})"} for token, label in INDUSTRIES},
            variants={token: {"measure_type": mtype} for token, mtype in VARIANT_TYPES},
        )
        expanded[template] = []
        for token, _label in INDUSTRIES:
            for variant, mtype in VARIANT_TYPES:
                mid = f"{name}_emp_{token}_{variant}"
                expanded[template].append(mid)
                measures.append(TableMeasure(mid, mtype, "county"))
    compression = ""
    if shape.compress_every:
        compression = {1: ".gz", 2: ".xz"}.get(index % shape.compress_every, "")
    return Dataset(name, entries, expanded, measures, rows_per_measure, compression)


def _plant(ds: Dataset, defect: str) -> None:
    ds.defect = defect
    first = next(iter(ds.entries))
    if defect == "fraction":
        next(m for m in ds.measures if m.measure_type == "percent").fraction = True
    elif defect == "bad_key":
        ds.entries[first]["colour_scheme"] = "viridis"
    elif defect == "bad_measure_type":
        next(m for m in ds.measures if m.measure_type == "count").measure_type = "per 100k"
    elif defect == "missing_measure":
        ds.measures.append(TableMeasure(f"{ds.name}_orphan", "count", "county"))
    elif defect == "blank_key":
        ds.entries[first]["unit"] = ""
    elif defect == "bad_region_type":
        ds.measures[0].region_type = "galaxy"
    elif defect == "unknown_measure":
        ds.unknown.add(ds.measures[0].measure_id)
    elif defect == "stale_measure":
        stale = f"{ds.name}_retired"
        ds.entries[stale] = _entry(stale, "count", ["ref_acs"])
        ds.expanded[stale] = [stale]


def build_datasets(workload: str, seed: int, scale: float = 1.0) -> list[Dataset]:
    """The datasets of one workload, with defects planted at seeded positions."""
    shape = SHAPES[workload]
    count = max(len(DEFECTS) + 1, round(shape.datasets * scale))
    rows = max(3, round(shape.rows_per_measure * scale))
    datasets = [_dataset(i, shape, rows) for i in range(count)]
    per_kind = max(1, count // 100)
    chosen = random.Random(seed).sample(range(count), per_kind * len(DEFECTS))
    for n, index in enumerate(chosen):
        _plant(datasets[index], DEFECTS[n // per_kind])
    return datasets


# ---------------------------------------------------------------- writing


def _value(mtype: str, fraction: bool, x: float) -> str:
    if fraction:
        return f"{0.01 + 0.98 * x:.4f}"
    if mtype == "percent":
        return f"{2 + 96 * x:.2f}"
    if mtype == "decimal":
        return f"{250 * x:.3f}"
    return str(int(5000 * x))


def _table_text(ds: Dataset, rng: random.Random) -> str:
    keep = [COLUMNS.index(c) for c in ds.columns]
    lines = [",".join(ds.columns)]
    rand = rng.random
    for r in range(ds.rows_per_measure):
        year = str(2015 + r % 8)
        for m in ds.measures:
            geoid = f"51{r % 997:03d}" if m.region_type != "tract" else f"51{r % 997:03d}{r:06d}"
            row = (geoid, year, m.measure_id, _value(m.measure_type, m.fraction, rand()), m.measure_type, m.region_type)
            lines.append(",".join([row[i] for i in keep]))
    return "\n".join(lines) + "\n"


def _ragged_text(ds: Dataset) -> str:
    rows = [",".join(COLUMNS)] + [f"51{k:03d},2021,{ds.name}_raw,{k},count,county" for k in range(5)]
    return "\n".join(rows) + ",extra\n"


def _layer_text(ds: Dataset, rng: random.Random) -> str:
    features = [
        {"type": "Feature", "properties": {"id": f"{ds.name}_{k}"},
         "geometry": {"type": "Point", "coordinates": [round(-80 + rng.random(), 5), round(37 + rng.random(), 5)]}}
        for k in range(3)
    ]
    text = json.dumps({"type": "FeatureCollection", "features": features}, indent=1) + "\n"
    return text[: len(text) // 2] if ds.defect == "broken_geojson" else text


def _write(path: Path, data: bytes) -> int:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return len(data)


def write_repo(root: Path, datasets: list[Dataset], seed: int) -> dict:
    """Write the repository under ``root``; return its input sizes."""
    rng = random.Random(seed + 1)
    size = {"files": 0, "bytes": 0, "csv_bytes": 0, "rows": 0}
    known: list[str] = []
    for ds in datasets:
        payload = dict(ds.entries)
        payload["_references"] = REFERENCES
        text = _table_text(ds, rng)
        raw = text.encode("utf-8")
        size["csv_bytes"] += len(raw)
        size["rows"] += ds.rows_per_measure * len(ds.measures)
        if ds.compression == ".gz":
            raw = gzip.compress(raw, compresslevel=6, mtime=0)
        elif ds.compression == ".xz":
            raw = lzma.compress(raw, preset=1)
        contents = {
            ds.info_path: (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"),
            ds.table_path: raw,
            ds.layer_path: _layer_text(ds, rng).encode("utf-8"),
            ds.staging_path: _ragged_text(ds).encode("utf-8"),
        }
        for path, _t11, _t13 in ds.files():
            data = contents.get(path, f"# {path}\nprint('build step')\n".encode("utf-8"))
            size["bytes"] += _write(root / path, data)
            size["files"] += 1
        known.extend(m.measure_id for m in ds.measures if m.measure_id not in ds.unknown)
    for path, data in _root_files(known).items():
        size["bytes"] += _write(root / path, data.encode("utf-8"))
        size["files"] += 1
    return size


def _root_files(known: list[str]) -> dict[str, str]:
    return {
        ".commonslint.yml": "known_measures_file: known_measures.txt\n",
        "known_measures.txt": "".join(f"{m}\n" for m in sorted(known)),
    }


# ---------------------------------------------------------------- manifest


def expected_results(datasets: list[Dataset]) -> dict:
    """What ``check`` and ``dict`` must report, from the planted defects alone."""
    counts = {cid: Counter() for cid in CHECK_IDS}
    all_measures = {m.measure_id for ds in datasets for m in ds.measures}
    known = all_measures - {mid for ds in datasets for mid in ds.unknown}
    for path in _root_files([]):
        counts["T11"]["valid"] += 1
        counts["T13"]["valid"] += 1
    for ds in datasets:
        for _path, t11_ok, t13_ok in ds.files():
            counts["T11"]["valid" if t11_ok else "invalid"] += 1
            counts["T13"]["valid" if t13_ok else "invalid"] += 1
        counts["T8"]["valid"] += 1  # measure_info.json
        counts["T8"]["invalid" if ds.defect == "broken_geojson" else "valid"] += 1
        counts["T12"]["invalid" if ds.defect == "no_code" else "valid"] += 1
        for entry in ds.entries.values():
            counts["T3"]["invalid" if "colour_scheme" in entry else "valid"] += 1
            counts["T7"]["invalid" if entry["unit"] == "" else "valid"] += 1
        counts["T3"]["valid"] += 1  # the _references block

        if ds.defect == "ragged_row":
            for cid in ("T2", "T4", "T6", "T9", "T10"):
                counts[cid]["error"] += 1
        concrete = {mid for ids in ds.expanded.values() for mid in ids}
        in_table = {m.measure_id for m in ds.measures}
        for m in ds.measures:
            if m.measure_type == "percent":
                counts["T2"]["invalid" if m.fraction else "valid"] += 1
            counts["T5"]["valid" if m.measure_id in concrete else "missing"] += 1
            counts["T10"]["valid" if m.measure_id in known else "invalid"] += 1
        for mtype in {m.measure_type for m in ds.measures}:
            counts["T4"]["valid" if mtype in CONCRETE_TYPES else "invalid"] += 1
        for rtype in {m.region_type for m in ds.measures}:
            counts["T9"]["valid" if rtype in ("county", "tract", "block group") else "invalid"] += 1
        counts["T6"]["invalid" if ds.defect == "missing_column" else "valid"] += 1
        for mid in concrete:
            counts["T14"]["valid" if mid in in_table else "extra"] += 1

    verdicts = {cid: {v: counts[cid][v] for v in VERDICTS} for cid in CHECK_IDS}
    failing = any(
        c["invalid"] + c["missing"] + c["extra"] + c["error"]
        for cid, c in verdicts.items()
        if cid not in WARN_CHECKS
    )
    return {
        "check_exit": 1 if failing else 0,
        "dict_exit": 0,
        "verdicts": verdicts,
        "dict_pages": sum(len(ids) for ds in datasets for ids in ds.expanded.values()),
    }


def generate(workload: str, seed: int, root: Path, scale: float = 1.0) -> dict:
    """Write one workload's repository under ``root`` and return its manifest."""
    datasets = build_datasets(workload, seed, scale)
    manifest = expected_results(datasets)
    manifest["size"] = write_repo(root, datasets, seed)
    manifest["size"]["concrete_measures"] = manifest["dict_pages"]
    return manifest
