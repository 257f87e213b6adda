from __future__ import annotations

import dataclasses
import json
from html.parser import HTMLParser
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from commonslint import checks, reports
from commonslint.checks import (
    CHECK_NAMES,
    CHECK_ORDER,
    CHECKS,
    VERDICTS,
    CheckItem,
    CheckReport,
    SuiteReport,
    run_suite,
)
from commonslint.config import default_config
from commonslint.fair import (
    AREAS,
    LEVELS,
    FairAssessment,
    convert_checklist,
    load_indicator_registry,
    score_assessment,
)
from commonslint.reports import (
    fair_to_payload,
    render_dictionary,
    render_fair,
    render_suite,
)
from commonslint.scanner import scan_repo
from repo_fixtures import clean_entry, oracle_payload, write_info, write_table

CONFIG = default_config()


class IdTextCollector(HTMLParser):
    """Collects the text content of every element that carries an id."""

    def __init__(self):
        super().__init__()
        self._open: list[str | None] = []
        self.by_id: dict[str, str] = {}

    def handle_starttag(self, tag, attrs):
        self._open.append(dict(attrs).get("id"))

    def handle_endtag(self, tag):
        if self._open:
            self._open.pop()

    def handle_data(self, data):
        for element_id in self._open:
            if element_id is not None:
                self.by_id[element_id] = self.by_id.get(element_id, "") + data


def ids_in(path: Path) -> dict[str, str]:
    collector = IdTextCollector()
    collector.feed(path.read_text("utf-8"))
    return collector.by_id


def read_tree(outdir: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(outdir)): p.read_bytes()
        for p in sorted(outdir.rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------- suite pages


def test_render_suite_inventory(planted_repo, tmp_path):
    root, _ = planted_repo
    suite = run_suite(scan_repo(root, CONFIG), CONFIG)
    filenames = render_suite(suite, tmp_path / "out")
    expected = {f"{name}.html" for name in CHECK_NAMES.values()} | {
        "index.html",
        "suite.json",
    }
    assert len(filenames) == len(expected)
    assert set(filenames) == expected
    assert set(read_tree(tmp_path / "out")) == expected


def test_rerender_is_byte_identical(planted_repo, tmp_path):
    root, _ = planted_repo
    suite = run_suite(scan_repo(root, CONFIG), CONFIG)
    render_suite(suite, tmp_path / "one")
    render_suite(suite, tmp_path / "two")
    assert read_tree(tmp_path / "one") == read_tree(tmp_path / "two")


def test_html_and_json_agree(planted_repo, tmp_path):
    root, _ = planted_repo
    suite = run_suite(scan_repo(root, CONFIG), CONFIG)
    render_suite(suite, tmp_path / "out")
    payload = json.loads((tmp_path / "out" / "suite.json").read_text("utf-8"))
    assert payload["overall_pass"] is False
    by_id = {c["id"]: c for c in payload["checks"]}
    for cid in CHECK_ORDER:
        page = tmp_path / "out" / f"{CHECK_NAMES[cid]}.html"
        texts = ids_in(page)
        for verdict in VERDICTS:
            assert int(texts[f"count-{cid}-{verdict}"]) == by_id[cid]["counts"][verdict]
        assert int(texts[f"count-{cid}-total"]) == by_id[cid]["total"]
        assert texts[f"summary-{cid}"] == by_id[cid]["summary"]


def test_index_summary_lines(planted_repo, tmp_path):
    root, _ = planted_repo
    suite = run_suite(scan_repo(root, CONFIG), CONFIG)
    render_suite(suite, tmp_path / "out")
    texts = ids_in(tmp_path / "out" / "index.html")
    assert texts["overall"] == "fail"
    for report in suite.reports:
        line = texts[f"line-{report.check.id}"]
        assert report.check.name in line
        assert report.summary_line() in line


def test_summary_percentage_format(tmp_path):
    for i in range(3):
        (tmp_path / f"file-{i}.txt").write_text("x", encoding="utf-8")
    suite = run_suite(scan_repo(tmp_path, CONFIG), CONFIG)
    render_suite(suite, tmp_path / "out")
    texts = ids_in(tmp_path / "out" / f"{CHECK_NAMES['T13']}.html")
    assert texts["summary-T13"] == "3/3 (100.0%) valid"
    assert ids_in(tmp_path / "out" / f"{CHECK_NAMES['T2']}.html")["summary-T2"] == (
        "0/0 valid (nothing to check)"
    )


def test_empty_suite_renders_no_check_pages(tmp_path):
    suite = run_suite(scan_repo(tmp_path, CONFIG), CONFIG, selected=set())
    assert render_suite(suite, tmp_path / "out") == ["index.html", "suite.json"]
    html_files = [p.name for p in (tmp_path / "out").glob("*.html")]
    assert html_files == ["index.html"]
    assert json.loads((tmp_path / "out" / "suite.json").read_text("utf-8"))["checks"] == []


def test_suite_payload_round_trips_items(planted_repo, tmp_path):
    root, _ = planted_repo
    suite = run_suite(scan_repo(root, CONFIG), CONFIG)
    render_suite(suite, tmp_path / "out")
    payload = json.loads((tmp_path / "out" / "suite.json").read_text("utf-8"))
    t13 = next(c for c in payload["checks"] if c["id"] == "T13")
    flagged = [i for i in t13["items"] if i["verdict"] == "invalid"]
    assert len(flagged) == 1
    assert set(flagged[0]) == {"path", "key", "verdict", "detail"}


def _oracle_text(suite: SuiteReport) -> str:
    return json.dumps(oracle_payload(suite), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def test_written_suite_json_is_the_oracle_text(planted_repo, tmp_path):
    root, _ = planted_repo
    suite = run_suite(scan_repo(root, CONFIG), CONFIG, {"T3", "T13"}, strict=True)
    render_suite(suite, tmp_path / "out")
    assert (tmp_path / "out" / "suite.json").read_text("utf-8") == _oracle_text(suite)


# Characters JSON escapes or that an escaper could get wrong: quotes,
# backslashes, controls, U+2028/U+2029, non-BMP and lone surrogates.
_TRICKY = st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\u2028", "\u2029", "\U0001f600", "\ud800", "\udcff", "é"]
)
_CHARS = st.one_of(_TRICKY, st.characters(blacklist_categories=()))
_TEXT = st.text(_CHARS, max_size=12)


@st.composite
def _items(draw) -> CheckItem:
    verdict = draw(st.sampled_from(VERDICTS))
    detail_size = 1 if verdict in ("invalid", "missing", "extra", "error") else 0
    return CheckItem(
        path=draw(_TEXT),
        verdict=verdict,
        key=draw(st.none() | _TEXT),
        detail=draw(st.text(_CHARS, min_size=detail_size, max_size=12)),
    )


@st.composite
def _suites(draw) -> SuiteReport:
    # A --tests-style subset of the registry, in registry order.
    chosen = draw(st.lists(st.sampled_from(CHECKS), max_size=len(CHECKS), unique=True))
    ordered = [check for check in CHECKS if check in chosen]
    reports = tuple(
        CheckReport(
            check=dataclasses.replace(check, name=draw(st.sampled_from([check.name, "ü \" \\ \ud800"]))),
            items=tuple(draw(st.lists(_items(), max_size=4))),
        )
        for check in ordered
    )
    tiers = st.sampled_from(["enforced", "warn", "off"])
    return SuiteReport(
        root=draw(_TEXT),
        reports=reports,
        enforcement={report.check.id: draw(tiers) for report in reports},
        overall_pass=draw(st.booleans()),
    )


@settings(max_examples=60, deadline=None)
@given(suite=_suites())
@example(suite=SuiteReport(root="", reports=()))
@example(suite=SuiteReport(root="r", reports=(CheckReport(check=CHECKS[0]),), enforcement={"T2": "warn"}))
def test_suite_json_writer_matches_json_dumps(suite):
    assert reports._suite_json(suite) == _oracle_text(suite)


# ---------------------------------------------------------------- dictionary


def _dictionary_repo(tmp_path):
    write_info(
        tmp_path / "measure_info.json",
        {
            "no_computer": clean_entry("no_computer"),
            "bb_{category}_{variant}": clean_entry(
                "bb",
                categories=["dl", "ul"],
                variants=["mean", "median"],
                measure_type="decimal",
                citations=["lou04", "ghost99"],
            ),
        },
        references={"lou04": {"title": "Broadband access", "year": "2004"}},
    )
    write_table(
        tmp_path / "t.csv", [("01", "2021", "no_computer", "12.5", "percent", "county")]
    )
    return scan_repo(tmp_path, CONFIG)


def test_dictionary_expands_dynamic_entries(tmp_path):
    site = render_dictionary(_dictionary_repo(tmp_path), tmp_path / "dict")
    ids = sorted(p.measure_id for p in site.measure_pages)
    assert ids == ["bb_dl_mean", "bb_dl_median", "bb_ul_mean", "bb_ul_median", "no_computer"]
    for page in site.measure_pages:
        assert (tmp_path / "dict" / page.filename).is_file()
        assert page.filename.startswith("measures/")
    index = (tmp_path / "dict" / "index.html").read_text("utf-8")
    assert "5 measures." in index
    for page in site.measure_pages:
        assert page.filename in index


def test_dictionary_category_pages(tmp_path):
    site = render_dictionary(_dictionary_repo(tmp_path), tmp_path / "dict")
    assert site.category_files == ("categories/broadband.html",)
    category = (tmp_path / "dict" / "categories" / "broadband.html").read_text("utf-8")
    assert "no_computer" in category
    assert '"../measures/' in category  # relative links back up to measure pages


def test_dictionary_citation_resolution_marker(tmp_path):
    site = render_dictionary(_dictionary_repo(tmp_path), tmp_path / "dict")
    page_for = {p.measure_id: p.filename for p in site.measure_pages}
    dynamic = (tmp_path / "dict" / page_for["bb_dl_mean"]).read_text("utf-8")
    # lou04 resolves against _references; ghost99 does not.
    assert dynamic.count("[unresolved reference]") == 1
    assert "ghost99" in dynamic
    concrete = (tmp_path / "dict" / page_for["no_computer"]).read_text("utf-8")
    assert "[unresolved reference]" not in concrete


def test_dictionary_citations_resolve_in_their_own_file(tmp_path):
    # Both files define m citing k; only a's file defines the reference k.
    write_info(tmp_path / "a" / "measure_info.json", {"m": clean_entry("m", citations=["k"])},
               references={"k": {"title": "K"}})
    write_info(tmp_path / "b" / "measure_info.json", {"m": clean_entry("m", citations=["k"])})
    site = render_dictionary(scan_repo(tmp_path, CONFIG), tmp_path / "dict")
    marked = {}
    for page in site.measure_pages:
        html = (tmp_path / "dict" / page.filename).read_text("utf-8")
        source = "a" if "<code>a/measure_info.json</code>" in html else "b"
        marked[source] = "[unresolved reference]" in html
    assert marked == {"a": False, "b": True}


def _dictionary_page(tmp_path, **overrides) -> str:
    """The dictionary page of one entry ``m`` whose file defines the reference lou04."""
    write_info(tmp_path / "repo" / "measure_info.json", {"m": clean_entry("m", **overrides)},
               references={"lou04": {"title": "T"}})
    site = render_dictionary(scan_repo(tmp_path / "repo", CONFIG), tmp_path / "dict")
    (page,) = site.measure_pages
    return (tmp_path / "dict" / page.filename).read_text("utf-8")


_UNRESOLVED = ' <span class="unresolved-reference">[unresolved reference]</span>'


@pytest.mark.parametrize(
    "citations, shown",
    [
        ("lou04", ["lou04"]),
        (["lou04", 7, "ghost"], ["lou04", "ghost" + _UNRESOLVED]),
        ("", []),
        (None, []),
        ({"lou04": 1}, []),
    ],
    ids=["single-string", "list", "empty-string", "null", "object"],
)
def test_dictionary_citations_take_a_single_string_as_one(tmp_path, citations, shown):
    # A single string is one citation; a key that is not a string is skipped.
    page = _dictionary_page(tmp_path, citations=citations)
    _, _, rest = page.partition("  <h2>References</h2>\n  <ul>\n")
    assert bool(rest) == bool(shown)
    assert rest.partition("  </ul>\n")[0] == "".join(f"    <li>{item}</li>\n" for item in shown)


def test_dictionary_sources_take_a_single_object_as_one(tmp_path):
    page = _dictionary_page(
        tmp_path,
        sources={
            "name": "ACS",
            "url": "https://example.org",
            "location": "Table B28001",
            "date_accessed": "2022",
            "publisher": "Census",
        },
    )
    _, _, rest = page.partition("  <h2>Sources</h2>\n  <ul>\n")
    assert rest.partition("  </ul>\n")[0] == (
        '    <li><a href="https://example.org">ACS, Table B28001, accessed 2022</a></li>\n'
    )
    # Keys outside the four known ones are not shown.
    assert "publisher" not in page and "Census" not in page


def test_suite_and_dictionary_expand_each_entry_once(planted_repo, tmp_path, monkeypatch):
    root, _ = planted_repo
    snapshot = scan_repo(root, CONFIG)
    expand = checks.expand_dynamic
    calls = []

    def counting(entry):
        calls.append(entry)
        return expand(entry)

    monkeypatch.setattr(checks, "expand_dynamic", counting)
    monkeypatch.setattr(reports, "expand_dynamic", counting)
    entries = [entry for info in snapshot.parsed_measure_infos for entry in info]
    assert len(entries) > 1

    run_suite(snapshot, CONFIG)
    assert calls == entries
    calls.clear()
    render_dictionary(snapshot, tmp_path / "dict")
    assert calls == entries


def test_dictionary_measure_page_fields(tmp_path):
    site = render_dictionary(_dictionary_repo(tmp_path), tmp_path / "dict")
    page_for = {p.measure_id: p.filename for p in site.measure_pages}
    texts = ids_in(tmp_path / "dict" / page_for["no_computer"])
    assert texts["measure-id"] == "no_computer"
    assert texts["field-measure_type"] == "percent"
    assert "field-long_name" in texts


def test_dictionary_unexpandable_entry_noted(tmp_path):
    write_info(
        tmp_path / "measure_info.json",
        {"fixed": clean_entry("fixed", categories=["a", "b"])},
    )
    site = render_dictionary(scan_repo(tmp_path, CONFIG), tmp_path / "dict")
    (page,) = site.measure_pages
    html = (tmp_path / "dict" / page.filename).read_text("utf-8")
    assert "could not be expanded" in html


def test_dictionary_duplicate_ids_get_serial_filenames(tmp_path):
    write_info(tmp_path / "a" / "measure_info.json", {"m": clean_entry("m")})
    write_info(tmp_path / "b" / "measure_info.json", {"m": clean_entry("m")})
    site = render_dictionary(scan_repo(tmp_path, CONFIG), tmp_path / "dict")
    filenames = sorted(p.filename for p in site.measure_pages)
    assert filenames == ["measures/m-2.html", "measures/m.html"]


def test_dictionary_empty_repo(tmp_path):
    (tmp_path / "repo").mkdir()
    site = render_dictionary(scan_repo(tmp_path / "repo", CONFIG), tmp_path / "dict")
    assert site.measure_pages == ()
    assert "0 measures." in (tmp_path / "dict" / "index.html").read_text("utf-8")


def test_dictionary_rerender_byte_identical(tmp_path):
    snapshot = _dictionary_repo(tmp_path)
    render_dictionary(snapshot, tmp_path / "one")
    render_dictionary(snapshot, tmp_path / "two")
    assert read_tree(tmp_path / "one") == read_tree(tmp_path / "two")


# ---------------------------------------------------------------- FAIR pages


@pytest.fixture(scope="module")
def fair_report():
    registry = load_indicator_registry()
    levels = {iid: 4 for iid in registry}
    levels["RDA-A2-01M"] = 1
    levels["RDA-I3-01D"] = 0
    return score_assessment(FairAssessment(levels=levels), registry)


def test_render_fair_files_and_ids(fair_report, tmp_path):
    written = render_fair(fair_report, tmp_path / "fair")
    assert written == ["fair.html", "fair.json"]
    texts = ids_in(tmp_path / "fair" / "fair.html")
    for area in AREAS:
        for level in LEVELS:
            assert int(texts[f"fair-{area}-{level}"]) == fair_report.histograms[area][level]
    assert "Essential indicator" in texts["essential-gap"]
    assert "RDA-A2-01M" in (tmp_path / "fair" / "fair.html").read_text("utf-8")


def test_render_fair_json_payload(fair_report, tmp_path):
    render_fair(fair_report, tmp_path / "fair")
    payload = json.loads((tmp_path / "fair" / "fair.json").read_text("utf-8"))
    assert payload == json.loads(json.dumps(fair_to_payload(fair_report)))
    assert payload["has_essential_gap"] is True
    assert payload["gaps"][0]["id"] == "RDA-A2-01M"


def test_render_fair_no_gap_variant(tmp_path):
    registry = load_indicator_registry()
    report = score_assessment(
        convert_checklist({p: "Achieving" for p in sorted({i.principle for i in registry.values()})}),
        registry,
    )
    render_fair(report, tmp_path / "fair")
    texts = ids_in(tmp_path / "fair" / "fair.html")
    assert "No Essential indicator" in texts["essential-gap"]
    assert "No gaps" in (tmp_path / "fair" / "fair.html").read_text("utf-8")


def test_render_fair_rerender_byte_identical(fair_report, tmp_path):
    render_fair(fair_report, tmp_path / "one")
    render_fair(fair_report, tmp_path / "two")
    assert read_tree(tmp_path / "one") == read_tree(tmp_path / "two")
