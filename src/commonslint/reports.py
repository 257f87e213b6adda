"""Static HTML/JSON rendering for suite results, dictionaries, and FAIR reports.

All outputs are plain static files with relative links and no client-side
code. Rendering is deterministic: the same inputs produce byte-identical
files, which carry no timestamp. Files are written to a temporary name and
atomically moved into place.

``suite.json`` has its own writer, ``_suite_json``, which lays the text out
in one pass, byte for byte as ``json.dumps(indent=2, sort_keys=True,
ensure_ascii=False)`` would, and streams it to disk one report block at a
time; ``fair.json`` still goes through ``json.dumps``.
"""

from __future__ import annotations

import json
import os
import re
from html import escape
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator

from .checks import VERDICTS, SuiteReport, format_percentage
from .expansion import expand_dynamic, expand_info
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


def write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` in order as UTF-8 to a new file beside ``path``, then move it into place.

    A page written whole passes a one-element tuple. A bare ``str`` is a
    TypeError: it would be written one character at a time. The file gets
    the mode the umask leaves of 0666, as any new file does, and no
    temporary file outlives the call, even when ``chunks`` raises.
    """
    if isinstance(chunks, str):
        raise TypeError("write_atomic takes an iterable of text chunks, not a str")
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.parent / f".{path.name}.{os.urandom(8).hex()}"
    # A lone surrogate (from an undecodable file name or a JSON escape) cannot
    # be encoded; it is written as its backslash escape, which a JSON string
    # reads back as the same character.
    handle = open(temp, "x", encoding="utf-8", errors="backslashreplace")
    try:
        with handle:
            handle.writelines(chunks)
        os.replace(temp, path)
    except BaseException:
        temp.unlink()
        raise


def _dump_json(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------- suite


def _json_block(members: list[str], indent: str, brackets: str) -> str:
    """Indented members laid out as ``json.dumps(indent=2)`` lays out a list or object."""
    if not members:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(members) + f"\n{indent}{brackets[1]}"


def _suite_json(suite: SuiteReport) -> Iterator[str]:
    """The suite.json text, in one direct pass, one report block per chunk.

    It is the text ``json.dumps(payload, indent=2, sort_keys=True,
    ensure_ascii=False)`` writes for the suite's payload, with the sorted key
    order written out: items ``detail, key, path, verdict``; reports ``counts,
    id, items, name, passed, summary, total``; the top level ``checks,
    enforcement, overall_pass, root``. Strings go through the escaper that
    ``json.dumps`` uses.
    """
    quote = encode_basestring
    yield '{\n  "checks": ['
    for i, report in enumerate(suite.reports):
        items = [
            "        {\n"
            f'          "detail": {quote(item.detail)},\n'
            f'          "key": {"null" if item.key is None else quote(item.key)},\n'
            f'          "path": {quote(item.path)},\n'
            f'          "verdict": {quote(item.verdict)}\n'
            "        }"
            for item in report.items
        ]
        counts = [f"        {quote(v)}: {n}" for v, n in sorted(report.counts.items())]
        yield (
            (",\n" if i else "\n") + "    {\n"
            f'      "counts": {_json_block(counts, "      ", "{}")},\n'
            f'      "id": {quote(report.check.id)},\n'
            f'      "items": {_json_block(items, "      ", "[]")},\n'
            f'      "name": {quote(report.check.name)},\n'
            f'      "passed": {"true" if report.passed else "false"},\n'
            f'      "summary": {quote(report.summary_line())},\n'
            f'      "total": {report.total}\n'
            "    }"
        )
    enforcement = [f"    {quote(c)}: {quote(t)}" for c, t in sorted(suite.enforcement.items())]
    yield (
        ("\n  ]," if suite.reports else "],") + "\n"
        f'  "enforcement": {_json_block(enforcement, "  ", "{}")},\n'
        f'  "overall_pass": {"true" if suite.overall_pass else "false"},\n'
        f'  "root": {quote(suite.root)}\n'
        "}\n"
    )


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


def suite_filenames(check_names: Iterable[str]) -> list[str]:
    """The files ``render_suite`` writes for checks of these names, in write order."""
    return [*(f"{name}.html" for name in check_names), "index.html", "suite.json"]


def render_suite(suite: SuiteReport, outdir: str | Path) -> list[str]:
    """Write one HTML page per check, an index page, and suite.json.

    Returns the filenames written, ``suite_filenames`` of the suite's checks.
    """
    out = Path(outdir)

    filenames = suite_filenames(report.check.name for report in suite.reports)
    index_lines = []
    for report, filename in zip(suite.reports, filenames):
        cid = report.check.id
        enforcement = suite.enforcement.get(cid, "enforced")
        write_atomic(out / filename, (_check_page(report, enforcement),))
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
    write_atomic(out / "index.html", (_page("Check suite report", index_body),))
    write_atomic(out / "suite.json", _suite_json(suite))
    return filenames


# ---------------------------------------------------------------- dictionary


_SLUG_RE = re.compile(r"[^a-z0-9._-]+")


def _page_name(used: set[str], folder: str, text: str) -> str:
    """``folder/<slug>.html`` for ``text``, or ``folder/<slug>-N.html`` when
    ``used`` already holds that name. The name returned is added to ``used``."""
    slug = _SLUG_RE.sub("-", text.lower()).strip("-") or "untitled"
    name = f"{folder}/{slug}.html"
    serial = 1
    while name in used:
        serial += 1
        name = f"{folder}/{slug}-{serial}.html"
    used.add(name)
    return name


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
    # A single object counts as a list of one; anything but an object is skipped.
    raw = entry.get("sources")
    rows = []
    for src in raw if isinstance(raw, list) else [raw]:
        if not isinstance(src, dict):
            continue
        location, url, accessed = src.get("location"), src.get("url"), src.get("date_accessed")
        parts = [escape(str(src.get("name", "")))]
        if location:
            parts.append(escape(str(location)))
        if accessed is not None and str(accessed):
            parts.append(f"accessed {escape(str(accessed))}")
        text = ", ".join(parts)
        if url:
            text = f'<a href="{escape(str(url), quote=True)}">{text}</a>'
        rows.append(f"    <li>{text}</li>\n")
    if not rows:
        return ""
    return "  <h2>Sources</h2>\n  <ul>\n" + "".join(rows) + "  </ul>\n"


def _render_citations(entry: MeasureEntry, references: frozenset[str]) -> str:
    # A single string counts as a list of one; keys that are not strings are skipped.
    raw = entry.get("citations") or []
    keys = [raw] if isinstance(raw, str) else raw if isinstance(raw, list) else []
    rows = []
    for key in keys:
        if not isinstance(key, str):
            continue
        if key in references:
            rows.append(f"    <li>{escape(key)}</li>\n")
        else:
            rows.append(
                f'    <li>{escape(key)} <span class="unresolved-reference">'
                "[unresolved reference]</span></li>\n"
            )
    if not rows:
        return ""
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


_INDEX_HEAD = _page("Data dictionary", "  <h1>Data dictionary</h1>\n").partition("</body>")[0]
_OWNED_PAGE = re.compile(r'<li><a href="((?:measures|categories)/[a-z0-9._-]+\.html)">')


def _owned_pages(index: Path) -> set[str]:
    """The measure and category pages linked by the dictionary index at ``index``, if any."""
    try:
        text = index.read_text("utf-8")
    except (OSError, UnicodeDecodeError):
        return set()
    return set(_OWNED_PAGE.findall(text)) if text.startswith(_INDEX_HEAD) else set()


def render_dictionary(snapshot: RepoSnapshot, outdir: str | Path) -> list[str]:
    """Render the static data dictionary: measure pages, category pages, index.

    Returns the filenames written: measure pages, then category pages, then
    ``index.html``. Measure pages are named by id and category pages by
    category, each by ``_page_name`` from one set of names. Once all are
    written, the pages that the previous index linked and this run did not
    write are removed; no other file is.
    """
    out = Path(outdir)
    previous = _owned_pages(out / "index.html")

    # An entry that fails to expand, or collides with an earlier entry of its
    # file, keeps its raw form, marked on its page. Citations resolve against
    # the reference ids of the file that defines the entry.
    rendered: list[tuple[MeasureEntry, str, str | None, frozenset[str]]] = []
    for info in snapshot.parsed_measure_infos:
        references = info.reference_ids()
        for entry, concrete, problem in expand_info(info, expand_dynamic):
            note = None if problem is None else f"dynamic entry could not be expanded: {problem}"
            for measure in concrete if problem is None else [entry]:
                rendered.append((measure, info.path, note, references))

    rendered.sort(key=lambda item: item[0].measure_id)

    written: list[str] = []
    used: set[str] = set()
    measure_links: list[str] = []
    by_category: dict[str, list[tuple[str, str]]] = {}
    for entry, source_path, note, references in rendered:
        filename = _page_name(used, "measures", entry.measure_id)
        category = str(entry.get("category") or "uncategorized")
        by_category.setdefault(category, []).append((entry.measure_id, filename))
        write_atomic(out / filename, (_measure_page(entry, source_path, references, note),))
        written.append(filename)
        measure_links.append(
            f'    <li><a href="{filename}">{escape(entry.measure_id)}</a>'
            f" <small>({escape(category)})</small></li>\n"
        )

    category_links: list[str] = []
    for category in sorted(by_category):
        filename = _page_name(used, "categories", category)
        links = "".join(
            f'    <li><a href="../{page}">{escape(measure_id)}</a></li>\n'
            for measure_id, page in sorted(by_category[category])
        )
        body = (
            f"  <h1>Category: {escape(category)}</h1>\n"
            "  <ul>\n" + links + "  </ul>\n"
            '  <p><a href="../index.html">All measures</a></p>\n'
        )
        write_atomic(out / filename, (_page(f"Category: {category}", body),))
        written.append(filename)
        category_links.append(f'    <li><a href="{filename}">{escape(category)}</a></li>\n')

    index_body = (
        "  <h1>Data dictionary</h1>\n"
        f"  <p>{len(measure_links)} measures.</p>\n"
        "  <h2>Categories</h2>\n"
        "  <ul>\n" + "".join(category_links) + "  </ul>\n"
        "  <h2>All measures</h2>\n"
        "  <ul>\n" + "".join(measure_links) + "  </ul>\n"
    )
    write_atomic(out / "index.html", (_page("Data dictionary", index_body),))
    written.append("index.html")
    for name in previous.difference(written):
        if not (out / name).is_dir():
            (out / name).unlink(missing_ok=True)
    return written


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
                "id": gap.indicator_id,
                "principle": gap.principle,
                "priority": gap.priority,
                "text": gap.text,
                "level": 1,
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
            f'    <tr class="verdict-invalid"><td>{escape(g.indicator_id)}</td>'
            f"<td>{escape(g.principle)}</td>"
            f"<td>{escape(g.priority)}</td>"
            f"<td>{escape(g.text)}</td></tr>\n"
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
    write_atomic(out / "fair.html", (_page("FAIR maturity report", body),))
    write_atomic(out / "fair.json", (_dump_json(fair_to_payload(report)),))
    return ["fair.html", "fair.json"]
