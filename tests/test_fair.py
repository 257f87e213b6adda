from __future__ import annotations

import json

import pytest

from commonslint.errors import (
    ParseError,
    RegistryError,
    UnknownIndicatorError,
    UnknownPrincipleError,
)
from commonslint.fair import (
    AREAS,
    DEFAULT_CHECKLIST_LEVELS,
    GUIDING_PRINCIPLES,
    LEVEL_LABELS,
    FairAssessment,
    convert_checklist,
    load_indicator_registry,
    read_assessment_file,
    score_assessment,
)

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


def _registry_file(tmp_path, indicators):
    path = tmp_path / "reg.json"
    path.write_text(
        json.dumps({"name": "x", "source": "y", "indicators": indicators}),
        encoding="utf-8",
    )
    return path


def _plain_rows():
    builtin = load_indicator_registry()
    return [
        {
            "id": ind.indicator_id,
            "principle": ind.principle,
            "text": ind.text,
            "priority": ind.priority,
        }
        for ind in builtin.values()
    ]


def test_registry_rejects_duplicate_id(tmp_path):
    rows = _plain_rows()
    rows[1] = dict(rows[0])
    with pytest.raises(RegistryError, match="duplicate"):
        load_indicator_registry(_registry_file(tmp_path, rows))


def test_registry_rejects_wrong_count(tmp_path):
    with pytest.raises(RegistryError, match="41"):
        load_indicator_registry(_registry_file(tmp_path, _plain_rows()[:40]))


def test_registry_rejects_unknown_priority(tmp_path):
    rows = _plain_rows()
    rows[0]["priority"] = "Critical"
    with pytest.raises(RegistryError, match="priority"):
        load_indicator_registry(_registry_file(tmp_path, rows))


def test_registry_rejects_unknown_principle(tmp_path):
    rows = _plain_rows()
    rows[0]["principle"] = "Z9"
    with pytest.raises(RegistryError):
        load_indicator_registry(_registry_file(tmp_path, rows))


def test_registry_rejects_bad_json(tmp_path):
    path = tmp_path / "reg.json"
    path.write_text("[not json", encoding="utf-8")
    with pytest.raises(RegistryError):
        load_indicator_registry(path)


# ---------------------------------------------------------------- scoring


def test_all_fully_implemented_leaves_no_gaps(registry):
    report = score_assessment(assess({iid: 4 for iid in registry}), registry)
    assert report.gaps == ()
    assert not report.has_essential_gap
    assert report.coverage == 1.0
    for area in AREAS:
        assert report.area_averages[area] == 4.0
    assert sum(report.histograms[a][4] for a in AREAS) == 41


def test_single_essential_gap_detected(registry):
    levels = {iid: 4 for iid in registry}
    levels["RDA-A2-01M"] = 1
    report = score_assessment(assess(levels), registry)
    assert [g.indicator.indicator_id for g in report.gaps] == ["RDA-A2-01M"]
    assert report.has_essential_gap
    assert report.essential_gaps[0].level == 1


def test_level_zero_excluded_from_gaps_and_averages(registry):
    levels = {iid: 4 for iid in registry}
    levels["RDA-A2-01M"] = 0  # not applicable
    report = score_assessment(assess(levels), registry)
    assert report.gaps == ()
    assert report.histograms["A"][0] == 1
    # A-area average over the remaining applicable indicators is still 4.
    assert report.area_averages["A"] == 4.0
    assert report.coverage == 1.0


def test_histogram_conserves_counts(registry):
    levels = {iid: (i % 5) for i, iid in enumerate(sorted(registry))}
    report = score_assessment(assess(levels), registry)
    assert sum(sum(h.values()) for h in report.histograms.values()) == 41
    for area in AREAS:
        assert set(report.histograms[area]) == {0, 1, 2, 3, 4}


def test_gaps_sorted_by_priority_then_id(registry):
    levels = {iid: 4 for iid in registry}
    for iid in ("RDA-I3-01D", "RDA-A2-01M", "RDA-I3-01M", "RDA-F4-01M"):
        levels[iid] = 1
    report = score_assessment(assess(levels), registry)
    ordered = [(g.indicator.priority, g.indicator.indicator_id) for g in report.gaps]
    assert ordered == [
        ("Essential", "RDA-A2-01M"),
        ("Essential", "RDA-F4-01M"),
        ("Important", "RDA-I3-01M"),
        ("Useful", "RDA-I3-01D"),
    ]


def test_partial_assessment_reports_coverage(registry):
    report = score_assessment(assess({"RDA-F1-01M": 3}), registry)
    assert report.coverage == pytest.approx(1 / 41)
    assert report.histograms["F"][3] == 1
    assert report.area_averages["F"] == 3.0
    assert report.area_averages["A"] is None


@pytest.mark.parametrize("bad_levels", [{"RDA-XX-99Z": 2}, {"RDA-F1-01M": 5}, {"RDA-F1-01M": -1}])
def test_score_rejects_unknown_inputs(registry, bad_levels):
    with pytest.raises(UnknownIndicatorError):
        score_assessment(assess(bad_levels), registry)


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


def test_convert_checklist_headline_scenario(registry):
    assessment = convert_checklist(CHECKLIST_WITH_A2_GAP)
    assert len(assessment.levels) == 41
    report = score_assessment(assessment, registry)
    essential_ids = [g.indicator.indicator_id for g in report.essential_gaps]
    assert essential_ids == ["RDA-A2-01M"]
    # NotAddressing on I3 surfaces as lower-priority gaps, not Essential ones.
    assert {g.indicator.priority for g in report.gaps} >= {"Important", "Useful"}


def test_convert_checklist_all_achieving(registry):
    assessment = convert_checklist({p: "Achieving" for p in GUIDING_PRINCIPLES})
    report = score_assessment(assessment, registry)
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


def test_end_to_end_file_to_report(tmp_path, registry):
    assessment = convert_checklist(CHECKLIST_WITH_A2_GAP)
    path = tmp_path / "levels.json"
    path.write_text(json.dumps(assessment.levels), encoding="utf-8")
    report = score_assessment(read_assessment_file(path), registry)
    assert report.has_essential_gap
