from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import tempfile
from html import unescape
from html.parser import HTMLParser
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from commonslint import checks, cli, reports
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
from commonslint.errors import ExpansionError
from commonslint.expansion import expand_dynamic, expand_file
from commonslint.fair import (
    AREAS,
    LEVELS,
    FairAssessment,
    convert_checklist,
    load_indicator_registry,
    score_assessment,
)
from commonslint.metadata import MeasureEntry, MeasureInfoFile
from commonslint.reports import (
    fair_to_payload,
    render_dictionary,
    render_fair,
    render_suite,
    write_atomic,
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
    assert "".join(reports._suite_json(suite)) == _oracle_text(suite)


def test_write_atomic_removes_its_temp_file_when_the_move_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError(18, "Invalid cross-device link")

    monkeypatch.setattr(os, "replace", refuse)
    target = tmp_path / "out" / "page.html"
    with pytest.raises(OSError, match="cross-device"):
        write_atomic(target, ("<p>page</p>",))
    assert not target.exists()
    assert list(target.parent.iterdir()) == []


def test_write_atomic_removes_its_temp_file_when_the_chunks_fail(tmp_path):
    def chunks():
        yield "<p>half"
        raise RuntimeError("render failed")

    target = tmp_path / "page.html"
    with pytest.raises(RuntimeError, match="render failed"):
        write_atomic(target, chunks())
    with pytest.raises(TypeError, match="not a str"):
        write_atomic(target, "<p>page</p>")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- dictionary


def measure_pages(outdir: Path, written: list[str]) -> list[tuple[str, str]]:
    """(measure id, filename) of each written page that shows a measure id."""
    pages = []
    for filename in written:
        texts = ids_in(outdir / filename)
        if "measure-id" in texts:
            pages.append((texts["measure-id"], filename))
    return pages


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
    written = render_dictionary(_dictionary_repo(tmp_path), tmp_path / "dict")
    pages = measure_pages(tmp_path / "dict", written)
    ids = sorted(measure_id for measure_id, _ in pages)
    assert ids == ["bb_dl_mean", "bb_dl_median", "bb_ul_mean", "bb_ul_median", "no_computer"]
    for _, filename in pages:
        assert (tmp_path / "dict" / filename).is_file()
        assert filename.startswith("measures/")
    index = (tmp_path / "dict" / "index.html").read_text("utf-8")
    assert "5 measures." in index
    for _, filename in pages:
        assert filename in index


def test_dictionary_category_pages(tmp_path):
    written = render_dictionary(_dictionary_repo(tmp_path), tmp_path / "dict")
    # Five measure pages, then the one category page, then the index.
    assert written[5:] == ["categories/broadband.html", "index.html"]
    category = (tmp_path / "dict" / "categories" / "broadband.html").read_text("utf-8")
    assert "no_computer" in category
    assert '"../measures/' in category  # relative links back up to measure pages


def test_dictionary_citation_resolution_marker(tmp_path):
    written = render_dictionary(_dictionary_repo(tmp_path), tmp_path / "dict")
    page_for = dict(measure_pages(tmp_path / "dict", written))
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
    written = render_dictionary(scan_repo(tmp_path, CONFIG), tmp_path / "dict")
    marked = {}
    for _, filename in measure_pages(tmp_path / "dict", written):
        html = (tmp_path / "dict" / filename).read_text("utf-8")
        source = "a" if "<code>a/measure_info.json</code>" in html else "b"
        marked[source] = "[unresolved reference]" in html
    assert marked == {"a": False, "b": True}


def _dictionary_page(tmp_path, **overrides) -> str:
    """The dictionary page of one entry ``m`` whose file defines the reference lou04."""
    write_info(tmp_path / "repo" / "measure_info.json", {"m": clean_entry("m", **overrides)},
               references={"lou04": {"title": "T"}})
    written = render_dictionary(scan_repo(tmp_path / "repo", CONFIG), tmp_path / "dict")
    ((_, filename),) = measure_pages(tmp_path / "dict", written)
    return (tmp_path / "dict" / filename).read_text("utf-8")


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
    written = render_dictionary(_dictionary_repo(tmp_path), tmp_path / "dict")
    page_for = dict(measure_pages(tmp_path / "dict", written))
    texts = ids_in(tmp_path / "dict" / page_for["no_computer"])
    assert texts["measure-id"] == "no_computer"
    assert texts["field-measure_type"] == "percent"
    assert "field-long_name" in texts


def test_dictionary_unexpandable_entry_noted(tmp_path):
    write_info(
        tmp_path / "measure_info.json",
        {"fixed": clean_entry("fixed", categories=["a", "b"])},
    )
    written = render_dictionary(scan_repo(tmp_path, CONFIG), tmp_path / "dict")
    ((_, filename),) = measure_pages(tmp_path / "dict", written)
    html = (tmp_path / "dict" / filename).read_text("utf-8")
    assert "could not be expanded" in html


def test_dictionary_notes_an_entry_whose_expanded_id_collides(tmp_path):
    """The entry that `expand` rejects and T14 fails is marked on its page, and only it."""
    # In this file order: write_info would sort the keys.
    (tmp_path / "measure_info.json").write_text(
        json.dumps({"bb_{category}": {"categories": ["a", "b"]}, "bb_a": {}}), "utf-8"
    )
    out = tmp_path / "dict"
    written = render_dictionary(scan_repo(tmp_path, CONFIG), out)
    notes = {
        filename: [
            unescape(note)
            for note in re.findall(
                r'<p class="unresolved-reference">(.*?)</p>', (out / filename).read_text("utf-8")
            )
        ]
        for _, filename in measure_pages(out, written)
    }
    assert notes == {
        "measures/bb_a.html": [],
        "measures/bb_b.html": [],
        "measures/bb_a-2.html": [
            "dynamic entry could not be expanded:"
            " expanded id 'bb_a' collides with an existing entry"
        ],
    }


def test_dictionary_duplicate_ids_get_serial_filenames(tmp_path):
    write_info(tmp_path / "a" / "measure_info.json", {"m": clean_entry("m")})
    write_info(tmp_path / "b" / "measure_info.json", {"m": clean_entry("m")})
    written = render_dictionary(scan_repo(tmp_path, CONFIG), tmp_path / "dict")
    filenames = sorted(filename for _, filename in measure_pages(tmp_path / "dict", written))
    assert filenames == ["measures/m-2.html", "measures/m.html"]


def test_dictionary_empty_repo(tmp_path):
    (tmp_path / "repo").mkdir()
    written = render_dictionary(scan_repo(tmp_path / "repo", CONFIG), tmp_path / "dict")
    assert written == ["index.html"]
    assert "0 measures." in (tmp_path / "dict" / "index.html").read_text("utf-8")


def links_in(path: Path) -> list[tuple[str, str]]:
    """(href, text) of every link on a dictionary page, unescaped."""
    found = re.findall(r'<a href="([^"]*)">([^<]*)</a>', path.read_text("utf-8"))
    return [(unescape(href), unescape(text)) for href, text in found]


# Ids and categories whose slugs collide ("m-1", "health-care", "untitled"),
# and categories that all read as "uncategorized".
_IDS = st.sampled_from(["m_1", "M 1", "m-1", "m.1", "!!", "untitled", "é"])
_CATEGORIES = st.sampled_from(
    ["Health Care", "health-care", "health_care", "HEALTH  CARE!", "uncategorized", "", None, 3]
)
_INFOS = st.lists(
    st.dictionaries(_IDS, _CATEGORIES, min_size=1, max_size=4), min_size=1, max_size=2
)


@settings(max_examples=15, deadline=None)
@given(infos=_INFOS)
@example(infos=[{"m1": "Health Care", "m2": "health-care"}])
def test_dictionary_gives_every_measure_one_linked_page(infos):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        expected = []
        for n, categories in enumerate(infos):
            write_info(tmp / "repo" / str(n) / "measure_info.json",
                       {mid: {"category": category} for mid, category in categories.items()})
            expected += [(mid, f"{n}/measure_info.json", str(category or "uncategorized"))
                         for mid, category in categories.items()]

        written = []

        def recording(*args):
            written[:] = reports.render_dictionary(*args)
            return written

        out = tmp / "dict"
        with mock.patch.object(cli, "render_dictionary", recording), contextlib.redirect_stdout(
            io.StringIO()
        ) as stdout:
            assert cli.main(["dict", "--repo", str(tmp / "repo"), "--out", str(out)]) == 0

        files = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
        assert sorted(written) == files
        measures = [name for name in files if name.startswith("measures/")]
        categories = [name for name in files if name.startswith("categories/")]
        assert f"({len(measures)} measures, {len(categories)} categories)" in stdout.getvalue()

        # Each entry of each file has one page, linked from the index and
        # from the page the index gives its category.
        index = links_in(out / "index.html")
        category_file = {text: href for href, text in index if href.startswith("categories/")}
        assert sorted(category_file.values()) == categories
        shown = []
        for measure_id, filename in measure_pages(out, measures):
            page = (out / filename).read_text("utf-8")
            source = page.partition("Defined in: <code>")[2].partition("</code>")[0]
            (category,) = [c for mid, src, c in expected if (mid, src) == (measure_id, source)]
            shown.append((measure_id, source, category))
            assert (filename, measure_id) in index
            assert ("../" + filename, measure_id) in links_in(out / category_file[category])
        assert sorted(shown) == sorted(expected)


# Entries whose expansions collide with each other ("m_a" and "m_{category}"
# over "a"), or fail: an id without its axis placeholder, a duplicate token,
# a placeholder left in a value.
_DYNAMIC_IDS = st.sampled_from(
    ["m_a", "m_a_b", "m_{category}", "m_{variant}", "m_{category}_{variant}", "m"]
)
_AXIS = st.none() | st.lists(st.sampled_from(["a", "b", "a_b"]), min_size=1, max_size=2)
_DYNAMIC_ENTRY = st.fixed_dictionaries(
    {"long_name": st.sampled_from(["M", "M {category}", "M {variant}"])},
    optional={"categories": _AXIS, "variants": _AXIS},
)


@settings(max_examples=12, deadline=None)
@given(st.dictionaries(_DYNAMIC_IDS, _DYNAMIC_ENTRY, min_size=1, max_size=3))
@example({"m_{category}": {"long_name": "M", "categories": ["a"]}, "m_a": {"long_name": "M"}})
@example({"m_{category}": {"long_name": "M {category}", "categories": ["a", "b"]}})
def test_check_expand_and_dict_agree_on_the_concrete_measures(entries):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_info(tmp / "repo" / "measure_info.json", entries)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(
                ["expand", "--in", str(tmp / "repo" / "measure_info.json"),
                 "--out", str(tmp / "expanded.json")]
            )
        snapshot = scan_repo(tmp / "repo", CONFIG)
        (t14,) = run_suite(snapshot, CONFIG, {"T14"}).reports
        errors = [item for item in t14.items if item.verdict == "error"]
        if code == 2:
            # expand stops on the first failing entry; T14 reports it first.
            message = stderr.getvalue().removeprefix("error: ").removesuffix("\n")
            assert errors[0].key in entries
            assert errors[0].detail == f"dynamic entry could not be expanded: {message}"
            return
        assert code == 0 and errors == []
        expanded = json.loads((tmp / "expanded.json").read_text("utf-8"))
        written = render_dictionary(snapshot, tmp / "dict")
        pages = [mid for mid, _ in measure_pages(tmp / "dict", written)]
        assert sorted(pages) == sorted(expanded) == sorted(item.key for item in t14.items)


# The three loops that expanded entries on their own before expand_info, kept
# verbatim as references: T5/T14's ids and failures, the dictionary's entries
# and notes, and expand's result.


def _reference_expanded_ids(info: MeasureInfoFile) -> tuple[set[str], list[tuple[str, str]]]:
    ids: set[str] = set()
    failures: list[tuple[str, str]] = []
    for entry in info:
        try:
            concrete = [e.measure_id for e in expand_dynamic(entry)]
        except ExpansionError as exc:
            failures.append((entry.measure_id, str(exc)))
            ids.add(entry.measure_id)
            continue
        clash = next((mid for mid in concrete if mid in ids), None)
        if clash is not None:
            failures.append(
                (entry.measure_id, f"expanded id {clash!r} collides with an existing entry")
            )
        ids.update(concrete)
    return ids, failures


def _reference_dictionary_entries(snapshot):
    rendered: list[tuple[MeasureEntry, str, str | None, frozenset[str]]] = []
    for info in snapshot.parsed_measure_infos:
        references = info.reference_ids()
        seen: set[str] = set()
        for entry in info:
            try:
                concrete, problem = expand_dynamic(entry), None
            except ExpansionError as exc:
                concrete, problem = [entry], str(exc)
            ids = [expanded.measure_id for expanded in concrete]
            clash = next((mid for mid in ids if mid in seen), None)
            seen.update(ids)
            if problem is None and clash is not None:
                concrete = [entry]
                problem = f"expanded id {clash!r} collides with an existing entry"
            note = None if problem is None else f"dynamic entry could not be expanded: {problem}"
            for expanded in concrete:
                rendered.append((expanded, info.path, note, references))

    rendered.sort(key=lambda item: item[0].measure_id)
    return rendered


def _reference_expand_file(mi: MeasureInfoFile) -> MeasureInfoFile:
    entries: dict[str, MeasureEntry] = {}
    for entry in mi:
        for concrete in expand_dynamic(entry):
            if concrete.measure_id in entries:
                raise ExpansionError(
                    f"expanded id {concrete.measure_id!r} collides with an existing entry"
                )
            entries[concrete.measure_id] = concrete
    return MeasureInfoFile(path=mi.path, entries=entries, references=mi.references)


def _expand_outcome(expand, info: MeasureInfoFile) -> MeasureInfoFile | str:
    try:
        return expand(info)
    except ExpansionError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(_DYNAMIC_IDS, _DYNAMIC_ENTRY, min_size=1, max_size=4))
# A failed entry's own id is taken: the next entry to expand to it collides.
@example({"m_a": {"long_name": "M", "categories": ["a"]}, "m_{category}": {"categories": ["a"]}})
# An entry that does not expand fails with its own error, even on a taken id.
@example({"m_{category}": {"categories": ["a"]}, "m_a": {"long_name": "M", "categories": ["b"]}})
# A collided entry's ids are all taken, the one that collided and the rest.
@example({"m_a": {}, "m_{category}": {"categories": ["a", "a_b"]}, "m_a_b": {"long_name": "M"}})
def test_expand_info_gives_each_consumer_what_its_own_loop_gave(entries):
    info = MeasureInfoFile(
        path="d/measure_info.json",
        entries={mid: MeasureEntry(mid, data) for mid, data in entries.items()},
        references={"r1": {}},
    )
    snapshot = SimpleNamespace(parsed_measure_infos=[info])

    assert checks._Run(snapshot, CONFIG).expanded == {info.path: _reference_expanded_ids(info)}

    pages = []

    def page(entry, source_path, references, note):
        pages.append((entry, source_path, note, references))
        return ""

    with mock.patch.object(reports, "_measure_page", page), mock.patch.object(
        reports, "write_atomic", lambda path, text: None
    ):
        render_dictionary(snapshot, "unwritten")
    assert pages == _reference_dictionary_entries(snapshot)

    assert _expand_outcome(expand_file, info) == _expand_outcome(_reference_expand_file, info)


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
    return score_assessment(FairAssessment(levels=levels))


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
        convert_checklist({p: "Achieving" for p in sorted({i.principle for i in registry.values()})})
    )
    render_fair(report, tmp_path / "fair")
    texts = ids_in(tmp_path / "fair" / "fair.html")
    assert "No Essential indicator" in texts["essential-gap"]
    assert "No gaps" in (tmp_path / "fair" / "fair.html").read_text("utf-8")


def test_render_fair_rerender_byte_identical(fair_report, tmp_path):
    render_fair(fair_report, tmp_path / "one")
    render_fair(fair_report, tmp_path / "two")
    assert read_tree(tmp_path / "one") == read_tree(tmp_path / "two")
