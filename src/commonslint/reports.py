"""Static HTML/JSON rendering for suite results, dictionaries, and FAIR reports.

All outputs are plain static files with relative links and no client-side
code. Rendering is deterministic: the same inputs produce byte-identical
files, which carry no timestamp. Files are written to a temporary name and
atomically moved into place.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from html import escape
from pathlib import Path

from .checks import VERDICTS, SuiteReport, format_percentage
from .errors import ExpansionError
from .expansion import expand_dynamic
from .fair import FairReport, AREAS, LEVELS, LEVEL_LABELS
from .metadata import MeasureEntry
from .scanner import RepoSnapshot

_STYLE = """\
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 60rem; padding: 0 1rem; }
table { border-collapse: collapse; margin: 1rem 0; }
th, td { border: 1px solid #999; padding: 0.3rem 0.6rem; text-align: left; }
th { background: #eee; }
.verdict-valid { color: #1a7f37; }
.verdict-invalid, .verdict-missing, .verdict-extra, .verdict-error { color: #b42318; }
.verdict-skipped { color: #666; }
.unresolved-reference { color: #b42318; font-style: italic; }
.pass { color: #1a7f37; font-weight: bold; }
.fail { color: #b42318; font-weight: bold; }
"""


def _page(title: str, body: str) -> str:
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n'
        "<head>\n"
        '  <meta charset="utf-8">\n'
        f"  <title>{escape(title)}</title>\n"
        f"  <style>\n{_STYLE}  </style>\n"
        "</head>\n"
        "<body>\n"
        f"{body}"
        "</body>\n"
        "</html>\n"
    )


def write_atomic(path: Path, content: str) -> None:
    """Write ``content`` as UTF-8 to a new file beside ``path``, then move it into place.

    The file gets the mode the umask leaves of 0666, as any new file does, and
    no temporary file outlives the call.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.parent / f".{path.name}.{os.urandom(8).hex()}"
    # A lone surrogate (from an undecodable file name or a JSON escape) cannot
    # be encoded; it is written as its backslash escape, which a JSON string
    # reads back as the same character.
    handle = open(temp, "x", encoding="utf-8", errors="backslashreplace")
    try:
        with handle:
            handle.write(content)
        os.replace(temp, path)
    except BaseException:
        temp.unlink()
        raise


def _dump_json(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------- suite


def suite_to_payload(suite: SuiteReport) -> dict:
    """The machine-readable form of a SuiteReport (the suite.json schema)."""
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


def _check_page(report, enforcement: str) -> str:
    cid = report.check.id
    counts = report.counts
    count_rows = "".join(
        f'    <tr><th>{verdict}</th><td id="count-{cid}-{verdict}">{counts[verdict]}</td></tr>\n'
        for verdict in VERDICTS
    )
    count_rows += f'    <tr><th>total</th><td id="count-{cid}-total">{report.total}</td></tr>\n'

    item_rows = "".join(
        f'    <tr class="verdict-{item.verdict}"><td>{escape(item.path)}</td>'
        f"<td>{escape(item.key or '')}</td>"
        f"<td>{item.verdict}</td>"
        f"<td>{escape(item.detail)}</td></tr>\n"
        for item in report.items
    )
    items_table = (
        "  <table>\n"
        "    <tr><th>path</th><th>key</th><th>verdict</th><th>detail</th></tr>\n"
        f"{item_rows}"
        "  </table>\n"
        if report.items
        else "  <p>No items examined.</p>\n"
    )
    status = "pass" if report.passed else "fail"
    body = (
        f"  <h1>{escape(report.check.name)} <small>[{cid}]</small></h1>\n"
        f'  <p id="summary-{cid}">{escape(report.summary_line())}</p>\n'
        f'  <p>Status: <span class="{status}">{status}</span> &middot; enforcement: {escape(enforcement)}</p>\n'
        "  <table>\n"
        "    <tr><th>verdict</th><th>count</th></tr>\n"
        f"{count_rows}"
        "  </table>\n"
        f"{items_table}"
        '  <p><a href="index.html">Back to index</a></p>\n'
    )
    return _page(f"{report.check.name} [{cid}]", body)


def render_suite(suite: SuiteReport, outdir: str | Path) -> list[str]:
    """Write one HTML page per check, an index page, and suite.json.

    Returns the filenames written, check pages first, in write order.
    """
    out = Path(outdir)

    filenames: list[str] = []
    index_lines = []
    for report in suite.reports:
        cid = report.check.id
        enforcement = suite.enforcement.get(cid, "enforced")
        filename = f"{report.check.name}.html"
        write_atomic(out / filename, _check_page(report, enforcement))
        filenames.append(filename)
        index_lines.append(
            f'    <li id="line-{cid}"><a href="{filename}">{escape(report.check.name)}</a>'
            f" [{cid}]: {escape(report.summary_line())} &middot; {escape(enforcement)}</li>\n"
        )

    status = "pass" if suite.overall_pass else "fail"
    index_body = (
        "  <h1>Check suite report</h1>\n"
        f"  <p>Repository: <code>{escape(suite.root)}</code></p>\n"
        f'  <p>Overall: <span class="{status}" id="overall">{status}</span></p>\n'
        "  <ul>\n" + "".join(index_lines) + "  </ul>\n"
        '  <p>Machine-readable results: <a href="suite.json">suite.json</a></p>\n'
    )
    write_atomic(out / "index.html", _page("Check suite report", index_body))
    write_atomic(out / "suite.json", _dump_json(suite_to_payload(suite)))
    return [*filenames, "index.html", "suite.json"]


# ---------------------------------------------------------------- dictionary


@dataclass(frozen=True)
class DictionaryPage:
    """One rendered measure page."""

    measure_id: str
    filename: str
    category: str


@dataclass(frozen=True)
class DictionarySite:
    """Layout of a rendered dictionary: relative filenames under outdir."""

    outdir: str
    measure_pages: tuple[DictionaryPage, ...]
    category_files: tuple[str, ...]


_SLUG_RE = re.compile(r"[^a-z0-9._-]+")


def _slug(text: str) -> str:
    cleaned = _SLUG_RE.sub("-", text.lower()).strip("-")
    return cleaned or "untitled"


_DISPLAY_FIELDS = (
    "long_name",
    "short_name",
    "category",
    "long_description",
    "short_description",
    "statement",
    "measure_type",
    "unit",
    "aggregation_method",
    "data_type",
    "equity_category",
)


def _render_sources(entry: MeasureEntry) -> str:
    sources = entry.sources
    if not sources:
        return ""
    rows = []
    for src in sources:
        parts = [escape(src.name)]
        if src.location:
            parts.append(escape(src.location))
        if src.date_accessed:
            parts.append(f"accessed {escape(src.date_accessed)}")
        text = ", ".join(parts)
        if src.url:
            text = f'<a href="{escape(src.url, quote=True)}">{text}</a>'
        rows.append(f"    <li>{text}</li>\n")
    return "  <h2>Sources</h2>\n  <ul>\n" + "".join(rows) + "  </ul>\n"


def _render_citations(entry: MeasureEntry, references: frozenset[str]) -> str:
    keys = entry.citations
    if not keys:
        return ""
    rows = []
    for key in keys:
        if key in references:
            rows.append(f"    <li>{escape(key)}</li>\n")
        else:
            rows.append(
                f'    <li>{escape(key)} <span class="unresolved-reference">'
                "[unresolved reference]</span></li>\n"
            )
    return "  <h2>References</h2>\n  <ul>\n" + "".join(rows) + "  </ul>\n"


def _measure_page(
    entry: MeasureEntry,
    source_path: str,
    references: frozenset[str],
    note: str | None,
) -> str:
    title = str(entry.get("short_name") or entry.measure_id)
    rows = []
    for field in _DISPLAY_FIELDS:
        value = entry.get(field)
        if value is None or value == "":
            continue
        rows.append(
            f'    <tr><th>{escape(field)}</th><td id="field-{escape(field)}">'
            f"{escape(str(value))}</td></tr>\n"
        )
    note_html = f'  <p class="unresolved-reference">{escape(note)}</p>\n' if note else ""
    body = (
        f"  <h1>{escape(title)}</h1>\n"
        f"  <p>Measure id: <code id=\"measure-id\">{escape(entry.measure_id)}</code></p>\n"
        f"  <p>Defined in: <code>{escape(source_path)}</code></p>\n"
        f"{note_html}"
        "  <table>\n" + "".join(rows) + "  </table>\n"
        f"{_render_sources(entry)}"
        f"{_render_citations(entry, references)}"
        '  <p><a href="../index.html">All measures</a></p>\n'
    )
    return _page(title, body)


def render_dictionary(snapshot: RepoSnapshot, outdir: str | Path) -> DictionarySite:
    """Render the static data dictionary: measure pages, category pages, index."""
    out = Path(outdir)

    # Expand every parsed measure_info once; expansion failures keep the raw
    # entry, marked on its page. Citations resolve against the reference
    # ids of the file that defines the entry.
    rendered: list[tuple[MeasureEntry, str, str | None, frozenset[str]]] = []
    for info in snapshot.parsed_measure_infos:
        references = info.reference_ids()
        for entry in info:
            try:
                concrete = expand_dynamic(entry)
                note = None
            except ExpansionError as exc:
                concrete = [entry]
                note = f"dynamic entry could not be expanded: {exc}"
            for expanded in concrete:
                rendered.append((expanded, info.path, note, references))

    rendered.sort(key=lambda item: item[0].measure_id)

    pages: list[DictionaryPage] = []
    used: set[str] = set()
    by_category: dict[str, list[tuple[str, str]]] = {}
    for entry, source_path, note, references in rendered:
        base = _slug(entry.measure_id)
        filename = f"measures/{base}.html"
        serial = 1
        while filename in used:
            serial += 1
            filename = f"measures/{base}-{serial}.html"
        used.add(filename)
        category = str(entry.get("category") or "uncategorized")
        pages.append(
            DictionaryPage(measure_id=entry.measure_id, filename=filename, category=category)
        )
        by_category.setdefault(category, []).append((entry.measure_id, filename))
        write_atomic(out / filename, _measure_page(entry, source_path, references, note))

    category_files: list[str] = []
    for category in sorted(by_category):
        cat_file = f"categories/{_slug(category)}.html"
        category_files.append(cat_file)
        links = "".join(
            f'    <li><a href="../{filename}">{escape(measure_id)}</a></li>\n'
            for measure_id, filename in sorted(by_category[category])
        )
        body = (
            f"  <h1>Category: {escape(category)}</h1>\n"
            "  <ul>\n" + links + "  </ul>\n"
            '  <p><a href="../index.html">All measures</a></p>\n'
        )
        write_atomic(out / cat_file, _page(f"Category: {category}", body))

    measure_links = "".join(
        f'    <li><a href="{page.filename}">{escape(page.measure_id)}</a>'
        f" <small>({escape(page.category)})</small></li>\n"
        for page in pages
    )
    category_links = "".join(
        f'    <li><a href="categories/{_slug(category)}.html">{escape(category)}</a></li>\n'
        for category in sorted(by_category)
    )
    index_body = (
        "  <h1>Data dictionary</h1>\n"
        f"  <p>{len(pages)} measures.</p>\n"
        "  <h2>Categories</h2>\n"
        "  <ul>\n" + category_links + "  </ul>\n"
        "  <h2>All measures</h2>\n"
        "  <ul>\n" + measure_links + "  </ul>\n"
    )
    write_atomic(out / "index.html", _page("Data dictionary", index_body))

    return DictionarySite(
        outdir=str(out),
        measure_pages=tuple(pages),
        category_files=tuple(category_files),
    )


# ---------------------------------------------------------------- FAIR


def fair_to_payload(report: FairReport) -> dict:
    return {
        "assessor": report.assessor,
        "date": report.date,
        "coverage": report.coverage,
        "has_essential_gap": report.has_essential_gap,
        "histograms": {
            area: {str(level): count for level, count in histogram.items()}
            for area, histogram in report.histograms.items()
        },
        "area_averages": dict(report.area_averages),
        "gaps": [
            {
                "id": gap.indicator.indicator_id,
                "principle": gap.indicator.principle,
                "priority": gap.indicator.priority,
                "text": gap.indicator.text,
                "level": gap.level,
            }
            for gap in report.gaps
        ],
    }


def render_fair(report: FairReport, outdir: str | Path) -> list[str]:
    """Write fair.json and fair.html; returns the filenames written."""
    out = Path(outdir)

    header = "".join(
        f"<th>{level}: {escape(LEVEL_LABELS[level])}</th>" for level in LEVELS
    )
    hist_rows = "".join(
        f"    <tr><th>{area}</th>"
        + "".join(
            f'<td id="fair-{area}-{level}">{report.histograms[area][level]}</td>'
            for level in LEVELS
        )
        + "</tr>\n"
        for area in AREAS
    )
    if report.gaps:
        gap_rows = "".join(
            f'    <tr class="verdict-invalid"><td>{escape(g.indicator.indicator_id)}</td>'
            f"<td>{escape(g.indicator.principle)}</td>"
            f"<td>{escape(g.indicator.priority)}</td>"
            f"<td>{escape(g.indicator.text)}</td></tr>\n"
            for g in report.gaps
        )
        gaps_html = (
            "  <h2>Gaps (level 1: not being considered yet)</h2>\n"
            "  <table>\n"
            "    <tr><th>indicator</th><th>principle</th><th>priority</th><th>text</th></tr>\n"
            f"{gap_rows}"
            "  </table>\n"
        )
    else:
        gaps_html = "  <h2>Gaps</h2>\n  <p>No gaps: no applicable indicator sits at level 1.</p>\n"

    flag = (
        '  <p class="fail" id="essential-gap">At least one Essential indicator is not being'
        " considered yet.</p>\n"
        if report.has_essential_gap
        else '  <p class="pass" id="essential-gap">No Essential indicator is at level 1.</p>\n'
    )
    body = (
        "  <h1>FAIR maturity report</h1>\n"
        f"  <p>Coverage: {report.coverage:.1%} of the indicator registry assessed.</p>\n"
        f"{flag}"
        "  <h2>Maturity level per FAIR area</h2>\n"
        "  <table>\n"
        f"    <tr><th>area</th>{header}</tr>\n"
        f"{hist_rows}"
        "  </table>\n"
        f"{gaps_html}"
    )
    write_atomic(out / "fair.html", _page("FAIR maturity report", body))
    write_atomic(out / "fair.json", _dump_json(fair_to_payload(report)))
    return ["fair.html", "fair.json"]
