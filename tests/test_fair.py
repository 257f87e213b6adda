from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from commonslint.cli import main
from commonslint.errors import (
    ParseError,
    UnknownIndicatorError,
    UnknownPrincipleError,
)
from commonslint.fair import (
    AREAS,
    DEFAULT_CHECKLIST_LEVELS,
    GUIDING_PRINCIPLES,
    LEVEL_LABELS,
    LEVELS,
    PRIORITIES,
    FairAssessment,
    convert_checklist,
    load_indicator_registry,
    read_assessment_file,
    score_assessment,
)
from commonslint.reports import fair_to_payload

EXPECTED_PER_PRINCIPLE = {
    "F1": 4, "F2": 1, "F3": 1, "F4": 1,
    "A1": 8, "A1.1": 2, "A1.2": 1, "A2": 1,
    "I1": 4, "I2": 2, "I3": 6,
    "R1": 1, "R1.1": 3, "R1.2": 2, "R1.3": 4,
}

CHECKLIST_WITH_A2_GAP = {
    "F1": "WorkingTowards", "F2": "WorkingTowards", "F3": "Achieving",
    "F4": "WorkingTowards", "A1": "Achieving", "A1.1": "Achieving",
    "A1.2": "Achieving", "A2": "NotAddressing", "I1": "WorkingTowards",
    "I2": "WorkingTowards", "I3": "NotAddressing", "R1": "WorkingTowards",
    "R1.1": "WorkingTowards", "R1.2": "Achieving", "R1.3": "WorkingTowards",
}


def assess(levels):
    return FairAssessment(levels=levels)


@pytest.fixture(scope="module")
def registry():
    return load_indicator_registry()


# ---------------------------------------------------------------- registry


def test_registry_shape(registry):
    assert len(registry) == 41
    per_principle = {}
    for ind in registry.values():
        per_principle[ind.principle] = per_principle.get(ind.principle, 0) + 1
    assert per_principle == EXPECTED_PER_PRINCIPLE
    by_priority = {}
    for ind in registry.values():
        by_priority[ind.priority] = by_priority.get(ind.priority, 0) + 1
    assert by_priority == {"Essential": 20, "Important": 14, "Useful": 7}


def test_registry_ids_and_areas(registry):
    assert "RDA-A2-01M" in registry
    assert registry["RDA-A2-01M"].priority == "Essential"
    assert registry["RDA-F1-01M"].area == "F"
    assert {ind.area for ind in registry.values()} == set(AREAS)


def test_guiding_principles_cover_registry(registry):
    assert len(GUIDING_PRINCIPLES) == 15
    assert {ind.principle for ind in registry.values()} == set(GUIDING_PRINCIPLES)


# ---------------------------------------------------------------- scoring


def test_all_fully_implemented_leaves_no_gaps(registry):
    report = score_assessment(assess({iid: 4 for iid in registry}))
    assert report.gaps == ()
    assert not report.has_essential_gap
    assert report.coverage == 1.0
    for area in AREAS:
        assert report.area_averages[area] == 4.0
    assert sum(report.histograms[a][4] for a in AREAS) == 41


def test_single_essential_gap_detected(registry):
    levels = {iid: 4 for iid in registry}
    levels["RDA-A2-01M"] = 1
    report = score_assessment(assess(levels))
    assert [g.indicator_id for g in report.gaps] == ["RDA-A2-01M"]
    assert report.has_essential_gap
    assert fair_to_payload(report)["gaps"][0]["level"] == 1


def test_level_zero_excluded_from_gaps_and_averages(registry):
    levels = {iid: 4 for iid in registry}
    levels["RDA-A2-01M"] = 0  # not applicable
    report = score_assessment(assess(levels))
    assert report.gaps == ()
    assert report.histograms["A"][0] == 1
    # A-area average over the remaining applicable indicators is still 4.
    assert report.area_averages["A"] == 4.0
    assert report.coverage == 1.0


def test_histogram_conserves_counts(registry):
    levels = {iid: (i % 5) for i, iid in enumerate(sorted(registry))}
    report = score_assessment(assess(levels))
    assert sum(sum(h.values()) for h in report.histograms.values()) == 41
    for area in AREAS:
        assert set(report.histograms[area]) == {0, 1, 2, 3, 4}


def test_gaps_sorted_by_priority_then_id(registry):
    levels = {iid: 4 for iid in registry}
    for iid in ("RDA-I3-01D", "RDA-A2-01M", "RDA-I3-01M", "RDA-F4-01M"):
        levels[iid] = 1
    report = score_assessment(assess(levels))
    ordered = [(g.priority, g.indicator_id) for g in report.gaps]
    assert ordered == [
        ("Essential", "RDA-A2-01M"),
        ("Essential", "RDA-F4-01M"),
        ("Important", "RDA-I3-01M"),
        ("Useful", "RDA-I3-01D"),
    ]


def test_partial_assessment_reports_coverage():
    report = score_assessment(assess({"RDA-F1-01M": 3}))
    assert report.coverage == pytest.approx(1 / 41)
    assert report.histograms["F"][3] == 1
    assert report.area_averages["F"] == 3.0
    assert report.area_averages["A"] is None


_REGISTRY = load_indicator_registry()
_ASSESSMENTS = st.dictionaries(st.sampled_from(sorted(_REGISTRY)), st.sampled_from(LEVELS))


@settings(max_examples=60, deadline=None)
@given(levels=_ASSESSMENTS)
def test_score_assessment_matches_a_brute_force_oracle(levels):
    report = score_assessment(assess(levels))
    area_of = {iid: ind.area for iid, ind in _REGISTRY.items()}
    for area in AREAS:
        for level in LEVELS:
            expected = sum(1 for i, lv in levels.items() if area_of[i] == area and lv == level)
            assert report.histograms[area][level] == expected
        applicable = [lv for i, lv in levels.items() if area_of[i] == area and lv != 0]
        if applicable:
            assert report.area_averages[area] == pytest.approx(sum(applicable) / len(applicable))
        else:
            assert report.area_averages[area] is None
    assert sum(sum(h.values()) for h in report.histograms.values()) == len(levels)
    gaps = [_REGISTRY[i] for i, lv in levels.items() if lv == 1]
    gaps.sort(key=lambda g: (PRIORITIES.index(g.priority), g.indicator_id))
    assert report.gaps == tuple(gaps)
    assert report.has_essential_gap == any(g.priority == "Essential" for g in gaps)
    assert report.coverage == len(levels) / 41


@pytest.mark.parametrize("bad_levels", [{"RDA-XX-99Z": 2}, {"RDA-F1-01M": 5}, {"RDA-F1-01M": -1}])
def test_score_rejects_unknown_inputs(bad_levels):
    with pytest.raises(UnknownIndicatorError):
        score_assessment(assess(bad_levels))


def test_level_labels_closed():
    assert LEVEL_LABELS[0] == "not applicable"
    assert LEVEL_LABELS[4] == "fully implemented"
    assert set(LEVEL_LABELS) == {0, 1, 2, 3, 4}


# ---------------------------------------------------------------- checklist


def test_convert_checklist_mapping():
    assert DEFAULT_CHECKLIST_LEVELS == {
        "Achieving": 4,
        "WorkingTowards": 2,
        "NotAddressing": 1,
    }
    assessment = convert_checklist({"F1": "WorkingTowards"})
    assert len(assessment.levels) == 4  # the four F1 indicators
    assert set(assessment.levels.values()) == {2}


def test_convert_checklist_headline_scenario():
    assessment = convert_checklist(CHECKLIST_WITH_A2_GAP)
    assert len(assessment.levels) == 41
    report = score_assessment(assessment)
    essential_ids = [g.indicator_id for g in report.gaps if g.priority == "Essential"]
    assert essential_ids == ["RDA-A2-01M"]
    # NotAddressing on I3 surfaces as lower-priority gaps, not Essential ones.
    assert {g.priority for g in report.gaps} >= {"Important", "Useful"}


def test_convert_checklist_all_achieving():
    assessment = convert_checklist({p: "Achieving" for p in GUIDING_PRINCIPLES})
    report = score_assessment(assessment)
    assert report.gaps == ()
    assert report.coverage == 1.0


def test_convert_checklist_rejects_unknowns():
    with pytest.raises(UnknownPrincipleError):
        convert_checklist({"F9": "Achieving"})
    with pytest.raises(UnknownPrincipleError):
        convert_checklist({"F1": "Excelling"})
    with pytest.raises(UnknownPrincipleError, match="for F1 must be a string, got list"):
        convert_checklist({"F1": []})
    with pytest.raises(UnknownPrincipleError, match="for F1 must be a string, got dict"):
        convert_checklist({"F1": {"a": 1}})


# ---------------------------------------------------------------- assessment files


def test_read_assessment_flat_json(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"RDA-F1-01M": 3, "RDA-A2-01M": 1}), encoding="utf-8")
    assessment = read_assessment_file(path)
    assert assessment.levels == {"RDA-F1-01M": 3, "RDA-A2-01M": 1}
    assert assessment.assessor == ""


def test_read_assessment_structured_json(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(
        json.dumps(
            {
                "levels": {"RDA-F1-01M": 4},
                "assessor": "data team",
                "date": "2024-05-01",
            }
        ),
        encoding="utf-8",
    )
    assessment = read_assessment_file(path)
    assert assessment.levels == {"RDA-F1-01M": 4}
    assert assessment.assessor == "data team"
    assert assessment.date == "2024-05-01"


def test_read_assessment_csv(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text(
        "indicator_id,level,notes\nRDA-F1-01M,3,fine\nRDA-A2-01M,1,\n",
        encoding="utf-8",
    )
    assessment = read_assessment_file(path)
    assert assessment.levels == {"RDA-F1-01M": 3, "RDA-A2-01M": 1}


def test_read_assessment_csv_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "a.csv"
    path.write_bytes(b"\xef\xbb\xbfindicator_id,level\r\nRDA-F1-01M,3\r\n")
    assert read_assessment_file(path).levels == {"RDA-F1-01M": 3}
    # Only one mark is stripped, and only from a table.
    path.write_bytes(b"\xef\xbb\xbf" * 2 + b"indicator_id,level\nRDA-F1-01M,3\n")
    with pytest.raises(ParseError, match="indicator_id"):
        read_assessment_file(path)
    marked_json = tmp_path / "a.json"
    marked_json.write_bytes(b'\xef\xbb\xbf{"RDA-F1-01M": 3}')
    with pytest.raises(ParseError):
        read_assessment_file(marked_json)


def test_read_assessment_rejects_bad_shapes(tmp_path):
    bool_level = tmp_path / "bool.json"
    bool_level.write_text(json.dumps({"RDA-F1-01M": True}), encoding="utf-8")
    with pytest.raises(ParseError, match="integer"):
        read_assessment_file(bool_level)
    missing_col = tmp_path / "bad.csv"
    missing_col.write_text("id,score\nRDA-F1-01M,3\n", encoding="utf-8")
    with pytest.raises(ParseError, match="indicator_id"):
        read_assessment_file(missing_col)
    syntax = tmp_path / "oops.json"
    syntax.write_text("{broken", encoding="utf-8")
    with pytest.raises(ParseError):
        read_assessment_file(syntax)


def test_read_assessment_null_assessor_and_date_read_as_absent(tmp_path):
    path = tmp_path / "a.json"
    levels = {"RDA-F1-01M": 4}
    path.write_text(json.dumps({"levels": levels, "assessor": None, "date": None}), "utf-8")
    assessment = read_assessment_file(path)
    assert (assessment.assessor, assessment.date) == ("", "")
    payload = fair_to_payload(score_assessment(assessment))
    assert (payload["assessor"], payload["date"]) == ("", "")
    for key, value in (("assessor", {"a": 1}), ("date", 20240501), ("assessor", True)):
        path.write_text(json.dumps({"levels": levels, key: value}), "utf-8")
        with pytest.raises(ParseError, match=f"{key} must be a string or null"):
            read_assessment_file(path)


def test_read_assessment_rejects_unknown_keys_beside_levels(tmp_path):
    # A misspelt "assessor" would otherwise be dropped without a word.
    path = tmp_path / "a.json"
    path.write_text(
        json.dumps({"levels": {"RDA-F1-01M": 1}, "asessor": "x", "extra": 1}), "utf-8"
    )
    with pytest.raises(ParseError, match="unknown assessment key 'asessor'") as caught:
        read_assessment_file(path)
    assert caught.value.path == str(path)
    # The flat form names indicators at the top level, so its keys go to scoring.
    path.write_text(json.dumps({"RDA-F1-01M": 1}), "utf-8")
    assert read_assessment_file(path).levels == {"RDA-F1-01M": 1}


def _fair_run(source: Path, out: Path) -> tuple[int, str, dict[str, bytes]]:
    """``fair --assessment`` on ``source``: exit code, stdout, and the files in ``out``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(["fair", "--assessment", str(source), "--out", str(out)])
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {}
    return code, stdout.getvalue(), files


@settings(max_examples=30, deadline=None)
@given(
    levels=_ASSESSMENTS,
    repeat=st.none() | st.tuples(st.integers(0, 40), st.sampled_from(LEVELS)),
)
def test_csv_and_flat_json_assessments_give_the_same_report(levels, repeat):
    rows = list(levels.items())
    if repeat is not None and rows:
        index, level = repeat
        rows.insert(index % (len(rows) + 1), (rows[index % len(rows)][0], level))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        table = tmp / "a.csv"
        table.write_text("indicator_id,level\n" + "".join(f"{i},{lv}\n" for i, lv in rows), "utf-8")
        flat = tmp / "a.json"
        flat.write_text("{" + ", ".join(f'"{i}": {lv}' for i, lv in rows) + "}", "utf-8")
        from_table = _fair_run(table, tmp / "out")
        for name in from_table[2]:
            (tmp / "out" / name).unlink()
        from_json = _fair_run(flat, tmp / "out")
    assert from_table == from_json
    if len(rows) > len(levels):
        assert from_table == (2, "", {})
    else:
        assert from_table[0] == 0
        assert set(from_table[2]) == {"fair.html", "fair.json"}


def test_end_to_end_file_to_report(tmp_path):
    assessment = convert_checklist(CHECKLIST_WITH_A2_GAP)
    path = tmp_path / "levels.json"
    path.write_text(json.dumps(assessment.levels), encoding="utf-8")
    report = score_assessment(read_assessment_file(path))
    assert report.has_essential_gap
