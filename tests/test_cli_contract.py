"""The CI contract of ``cli.main``, as a property over generated repositories and argv.

Whatever the tree, config and arguments, ``main`` returns 0, 1 or 2; it
returns 1 only when the suite ``check`` ran does not pass; and on 2 it
writes exactly one line to stderr. Stdout encodes strictly, as a UTF-8
locale's does, and stderr escapes what it cannot encode, as Python's does.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import lzma
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, example, given, settings, strategies as st

from commonslint import cli
from commonslint.checks import CHECK_ORDER, run_suite
from repo_fixtures import clean_entry

_TABLE = b"geoid,year,measure,value,measure_type,region_type\n01,2021,m,50,percent,county\n"
# Source fields that are not strings, and a reference that is not an object.
_ODD_SOURCES = json.dumps(
    {
        "m": clean_entry("m", sources={"name": 3, "location": 5, "url": 7, "date_accessed": 0}),
        "_references": {"lou04": "Smith 2020"},
    }
).encode()
_CONTENTS = (
    json.dumps({"m": clean_entry("m")}).encode(),
    json.dumps({"m_{category}": clean_entry("m", categories=["a", "b"]), "m_a": {}}).encode(),
    b'{"m\\udcff": {}, "fixed": {"categories": ["a"]}}',
    _ODD_SOURCES,
    b"{bad",
    b"[1]",
    b"[" * 5_000,
    b'{"m_{category}": {"categories": ["a"], "statement": %s}}' % (b"[" * 600 + b"]" * 600),
    b"\xff\xfe\x00",
    b"",
    _TABLE,
    b"a,b\n1,2,3\n",
    gzip.compress(_TABLE),
    lzma.compress(_TABLE),
    gzip.compress(_TABLE)[:20],
    gzip.compress(_TABLE)[:12] + b"\xff" * 8 + gzip.compress(_TABLE)[20:],
    b'{"F1": "Achieving", "A2": "NotAddressing"}',
    b'{"F1": []}',
    b"indicator_id,level\nRDA-F1-01M,3\n",
    b"indicator_id,level\nRDA-F1-01M,1\nRDA-F1-01M,4\n",
    b'{"RDA-F1-01M": 1, "RDA-F1-01M": 4}',
    b'{"levels": {"RDA-F1-01M": 1}, "assessor": null}',
    b'{"levels": {"RDA-F1-01M": 1}, "asessor": "x", "extra": 1}',
)
_PATHS = (
    "measure_info.json",
    "d/data/distribution/measure_info.json",
    "d/data/distribution/measure_info_v2.json",
    "d/data/distribution/t.csv",
    "d/data/distribution/t.csv.gz",
    "d/data/distribution/t.csv.xz",
    "d/data/distribution/l.geojson",
    "d/code/distribution/build.py",
    "t.csv",
    "x.json",
    "UPPER.CSV",
    "a" * 120 + ".txt",
)
# Written through os.fsencode, so the undecodable byte survives.
_ODD_NAME = "\udcffbad.csv"
_CONFIGS = (
    "filename_limit: 5\n",
    "known_measures: [m]\n",
    "metadata_filename: 'measure_info*.json'\n",
    "checks: {T10: {enforcement: enforced}, T6: {enforcement: 'off'}}\n",
    "checks: {T13: {exclude: ['d/*']}}\n",
    "schema: {vocabularies: {measure_type: []}}\n",
    "columns: {required: [geoid]}\n",
    "naming: {pattern: '[a-z'}\n",
    "known_measures_file: missing.txt\n",
    "filename_limit: -1\n",
    "bogus: 1\n",
    "a: [\n",
    "- 1\n",
    "[" * 5_000,
    "\udcff: 1\n",
)


@st.composite
def _cases(draw):
    files = draw(
        st.dictionaries(
            st.sampled_from((*_PATHS, _ODD_NAME)), st.sampled_from(_CONTENTS), max_size=6
        )
    )
    links = draw(st.sets(st.sampled_from(("inside.csv", "outside.csv", "loop.csv"))))
    config = draw(st.none() | st.sampled_from(_CONFIGS))
    config_flag = draw(st.sampled_from((None, "repo", "missing")))
    inputs = st.sampled_from((*_PATHS, "missing.json"))
    command = draw(st.sampled_from(("check", "scan", "expand", "dict", "fair")))
    if command == "check":
        argv = ["check"]
        tests = draw(st.lists(st.sampled_from((*CHECK_ORDER, "T1", "t5")), max_size=3))
        if tests:
            argv += ["--tests", ",".join(tests)]
        argv += draw(st.sampled_from(([], ["--strict"], ["--dev"])))
        argv += draw(st.sampled_from(([], ["--no-reports"])))
    elif command == "scan":
        argv = ["scan", *draw(st.sampled_from(([], ["--json"])))]
    elif command == "expand":
        argv = ["expand", "--in", ("repo", draw(inputs))]
    elif command == "dict":
        argv = ["dict"]
    else:
        source = draw(st.sampled_from(("--assessment", "--checklist")))
        argv = ["fair", source, ("repo", draw(inputs))]
    # An output path may be taken by a file of the tree.
    out = draw(
        st.sampled_from(("out", "out/o.json", "out\udcff", "repo/t.csv", "repo/t.csv/o.json"))
    )
    return files, links, config, config_flag, argv, out


def _build(tmp: Path, files: dict, links: set, config: str | None) -> Path:
    repo = tmp / "repo"
    repo.mkdir()
    (tmp / "outside.txt").write_bytes(_TABLE)
    for rel, content in files.items():
        path = repo / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(os.fsencode(path), "wb") as handle:
            handle.write(content)
    targets = {"inside.csv": repo / "t.csv", "outside.csv": tmp / "outside.txt"}
    for name in links:
        (repo / name).symlink_to(targets.get(name, repo / name))
    if config is not None:
        # A lone surrogate becomes a byte that is not UTF-8.
        (repo / ".commonslint.yml").write_bytes(config.encode("utf-8", "surrogateescape"))
    return repo


def _run(argv: list[str]) -> tuple[int, str, list]:
    """main's return value, its stderr, and the suites ``check`` ran."""
    suites = []

    def recording(*args, **kwargs):
        suites.append(run_suite(*args, **kwargs))
        return suites[-1]

    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with mock.patch.object(cli, "run_suite", recording), contextlib.redirect_stdout(
        stdout
    ), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    stderr.flush()
    return code, stderr.buffer.getvalue().decode("utf-8"), suites


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_cases())
@example(case=({"measure_info.json": _ODD_SOURCES}, set(), None, None, ["dict"], "out"))
# A measure_info file left out, and an --out that is a file: one error line.
@example(case=({"measure_info.json": b"{bad", "t.csv": b"x"}, set(), None, None, ["dict"], "repo/t.csv"))
def test_main_keeps_the_ci_contract(case):
    files, links, config, config_flag, argv, out = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        repo = _build(tmp, files, links, config)
        argv = [str(repo / part[1]) if isinstance(part, tuple) else part for part in argv]
        if argv[0] in ("check", "scan", "dict"):
            argv += ["--repo", str(repo)]
            if config_flag is not None:
                config_path = repo / ".commonslint.yml" if config_flag == "repo" else tmp / "no.yml"
                argv += ["--config", str(config_path)]
        if argv[0] != "scan":
            argv += ["--out", str(tmp / out)]

        code, err, suites = _run(argv)

        assert code in (0, 1, 2)
        if code == 1:
            assert argv[0] == "check"
            (suite,) = suites
            assert not suite.overall_pass
        if code == 2:
            assert err.startswith("error: ")
            assert err.endswith("\n") and err.count("\n") == 1
