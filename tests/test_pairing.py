"""T5, T12 and T14 on generated trees, against an oracle written from the README rules.

A data table pairs with the measure_info files of its nearest ancestor
directory that holds any: none is an invalid item, two or more an
ambiguous-pairing error, one that failed to parse an error, and one parsed
file is the metadata its measures are checked against (T5). A measure_info
file is checked against the measures of the tables it alone governs (T14).
A directory of distribution data needs a file somewhere under its dataset's
``code/distribution`` directory (T12). The oracle recomputes each of these
with plain string operations over the paths it wrote.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from commonslint.checks import CheckItem
from commonslint.config import parse_config
from commonslint.scanner import ParseFailure, scan_repo
from repo_fixtures import reports_for

CONFIG = parse_config({"metadata_filename": "measure_info*.json"})

# Entry id -> (its JSON, the ids it expands to, or None when it cannot expand).
_ENTRIES = {
    "a": ({}, ["a"]),
    "b": ({}, ["b"]),
    "m_{variant}": ({"variants": ["x", "y"]}, ["m_x", "m_y"]),
    "m_x": ({}, ["m_x"]),
    "bad": ({"categories": ["p"]}, None),
}
_BAD_EXPANSION = "id template 'bad' lacks {category} for its non-empty categories axis"
# Invalid JSON, and JSON that is not shaped like a measure_info file.
_BROKEN = ("{bad", "[1]")
_INFO_NAMES = ("measure_info.json", "measure_info_v2.json")
_INFO_DIRS = (
    "", "a", "a/b", "d", "d/data", "d/data/distribution", "d/data/distribution/s",
    "e/data/distribution", "data/distribution",
)
_TABLE_DIRS = (
    "", "a", "a/b", "d/data/distribution", "d/data/distribution/s", "e/data/distribution",
    "data/distribution",
)
# A geojson file is layer data: T12 counts it, T5 and T14 do not read it.
_TABLE_NAMES = ("t.csv", "u.csv", "l.geojson")
_CODE_FILES = (
    "d/code/distribution/build.py",
    "d/code/distribution/sub/x.py",
    "d/code/distributionX/x.py",
    "e/code/distribution/x.py",
    "code/distribution/x.py",
)
_MEASURES = ("a", "b", "m_x", "m_y", "z")


def _join(directory: str, name: str) -> str:
    return f"{directory}/{name}" if directory else name


@st.composite
def _trees(draw):
    """(info path -> entry ids or broken text, table path -> measures or None, code files)."""
    infos = draw(
        st.dictionaries(
            st.builds(_join, st.sampled_from(_INFO_DIRS), st.sampled_from(_INFO_NAMES)),
            st.sampled_from(_BROKEN)
            | st.lists(st.sampled_from(sorted(_ENTRIES)), unique=True, max_size=4),
            max_size=4,
        )
    )
    # None is an empty table, which fails to parse.
    tables = draw(
        st.dictionaries(
            st.builds(_join, st.sampled_from(_TABLE_DIRS), st.sampled_from(_TABLE_NAMES)),
            st.none() | st.lists(st.sampled_from(_MEASURES), max_size=3),
            max_size=5,
        )
    )
    return infos, tables, draw(st.sets(st.sampled_from(_CODE_FILES)))


def _write(root: Path, infos: dict, tables: dict, code: set) -> None:
    files = {path: "pass\n" for path in code}
    for path, content in infos.items():
        files[path] = (
            content
            if isinstance(content, str)
            else json.dumps({mid: _ENTRIES[mid][0] for mid in content})
        )
    for path, measures in tables.items():
        if path.endswith(".geojson"):
            files[path] = "{}"
        else:
            files[path] = "" if measures is None else "measure,value\n" + "".join(
                f"{m},1\n" for m in measures
            )
    for path, text in files.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_text(text, encoding="utf-8")


def _dir(path: str) -> str:
    return path.rpartition("/")[0]


def _ancestors(path: str):
    directory = _dir(path)
    while directory:
        yield directory
        directory = _dir(directory)
    yield ""


def _expanded(ids: list[str]) -> tuple[set[str], list[tuple[str, str]]]:
    known: set[str] = set()
    failures = []
    for mid in ids:
        concrete = _ENTRIES[mid][1]
        if concrete is None:
            failures.append((mid, _BAD_EXPANSION))
            known.add(mid)
            continue
        clash = next((c for c in concrete if c in known), None)
        if clash is not None:
            failures.append((mid, f"expanded id {clash!r} collides with an existing entry"))
        known.update(concrete)
    return known, failures


def _oracle(infos: dict, tables: dict, code: set, parse_messages: dict):
    info_paths = sorted(infos)
    parsed_tables = sorted(
        p for p, measures in tables.items() if p.endswith(".csv") and measures is not None
    )

    def governing(table: str) -> list[str]:
        for directory in _ancestors(table):
            here = [p for p in info_paths if _dir(p) == directory]
            if here:
                return here
        return []

    t5 = []
    for table in parsed_tables:
        claim = governing(table)
        if not claim:
            detail = "no measure_info file found in this or any parent directory"
            t5.append(CheckItem(table, "invalid", detail=detail))
        elif len(claim) > 1:
            detail = f"multiple measure_info files claim this table ({', '.join(claim)})"
            t5.append(CheckItem(table, "error", detail=f"ambiguous pairing: {detail}"))
        elif isinstance(infos[claim[0]], str):
            detail = f"paired measure_info file could not be parsed: {claim[0]}"
            t5.append(CheckItem(table, "error", detail=detail))
        else:
            known, _ = _expanded(infos[claim[0]])
            for m in sorted(set(tables[table])):
                if m in known:
                    t5.append(CheckItem(table, "valid", key=m))
                else:
                    detail = f"measure {m!r} has no entry in {claim[0]}"
                    t5.append(CheckItem(table, "missing", key=m, detail=detail))

    t14 = []
    for info in info_paths:
        siblings = [p for p in info_paths if _dir(p) == _dir(info)]
        if isinstance(infos[info], str):
            detail = f"file could not be parsed: {parse_messages[info]}"
            t14.append(CheckItem(info, "error", detail=detail))
        elif len(siblings) > 1:
            detail = f"directory holds multiple measure_info files ({', '.join(siblings)})"
            t14.append(CheckItem(info, "error", detail=f"ambiguous pairing: {detail}"))
        else:
            known, failures = _expanded(infos[info])
            for mid, message in failures:
                detail = f"dynamic entry could not be expanded: {message}"
                t14.append(CheckItem(info, "error", key=mid, detail=detail))
            in_data = {m for t in parsed_tables if governing(t) == [info] for m in tables[t]}
            for m in sorted(known - {mid for mid, _ in failures}):
                if m in in_data:
                    t14.append(CheckItem(info, "valid", key=m))
                else:
                    detail = f"measure {m!r} appears in no corresponding data table"
                    t14.append(CheckItem(info, "extra", key=m, detail=detail))

    all_files = [*infos, *tables, *code]
    code_dirs = {}
    for table in tables:
        parts = table.split("/")
        for i in range(len(parts) - 1):
            if parts[i:i + 2] == ["data", "distribution"]:
                code_dirs[_dir(table)] = "/".join([*parts[:i], "code", "distribution"])
                break
    t12 = []
    for data_dir in sorted(code_dirs):
        code_dir = code_dirs[data_dir]
        if any(f.startswith(code_dir + "/") for f in all_files):
            t12.append(CheckItem(data_dir, "valid"))
        else:
            detail = f"distribution data present but {code_dir}/ is absent or empty"
            t12.append(CheckItem(data_dir, "invalid", detail=detail))
    return t5, t12, t14


@settings(max_examples=120, deadline=None)
@given(tree=_trees())
# A code directory whose name only starts with code/distribution.
@example(tree=({}, {"d/data/distribution/s/t.csv": ["a"]}, {"d/code/distributionX/x.py"}))
# Two files claim a table; a broken nearer file hides the farther ones.
@example(
    tree=(
        {
            "a/measure_info.json": ["a"],
            "a/measure_info_v2.json": ["b"],
            "a/b/measure_info.json": "{bad",
            "measure_info.json": ["a"],
        },
        {"a/b/t.csv": ["a"], "a/t.csv": ["a"], "t.csv": ["a"], "a/b/u.csv": None},
        set(),
    )
)
@example(
    tree=(
        {"measure_info.json": ["m_{variant}", "m_x", "bad"], "d/measure_info.json": "[1]"},
        {"a/t.csv": ["m_x", "z"], "d/data/distribution/t.csv": ["a"]},
        {"d/code/distribution/sub/x.py"},
    )
)
def test_t5_t12_t14_match_a_path_oracle(tree):
    infos, tables, code = tree
    with tempfile.TemporaryDirectory() as tmp:
        _write(Path(tmp), infos, tables, code)
        snapshot = scan_repo(tmp, CONFIG)
        messages = {
            f.path: f.message for f in snapshot.measure_info_files if isinstance(f, ParseFailure)
        }
        t5, t12, t14 = reports_for(snapshot, CONFIG, "T5", "T12", "T14")
        assert (list(t5.items), list(t12.items), list(t14.items)) == _oracle(
            infos, tables, code, messages
        )
