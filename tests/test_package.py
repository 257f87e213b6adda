"""The package's public surface: exported names and the documented config."""

from __future__ import annotations

import ast
import importlib.util
import os
import re
import subprocess
import sys
from fnmatch import fnmatch
from pathlib import Path

import yaml

import commonslint
from commonslint.config import parse_config

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PACKAGE = Path(commonslint.__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in commonslint.__all__ if not hasattr(commonslint, name)]
    assert missing == []


def test_every_exported_name_has_a_caller():
    """Each export is read by the package itself or shown under "Library use"."""
    read: set[str] = set()
    for module in PACKAGE.glob("*.py"):
        if module.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(module.read_text("utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    (library_use,) = re.findall(
        r"## Library use\n\n```python\n(.*?)```", README.read_text("utf-8"), re.DOTALL
    )
    shown = set(re.findall(r"\w+", library_use))
    assert [name for name in commonslint.__all__ if name not in read | shown] == []


def test_readme_config_example_parses():
    (block,) = re.findall(r"```yaml\n(.*?)```", README.read_text("utf-8"), re.DOTALL)
    parse_config(yaml.safe_load(block))


def test_pyproject_version_is_the_package_version():
    text = (ROOT / "pyproject.toml").read_text("utf-8")
    (version,) = re.findall(r'^version = "([^"]*)"$', text, re.MULTILINE)
    assert version == commonslint.__version__


def test_pyproject_ships_every_data_file():
    text = (ROOT / "pyproject.toml").read_text("utf-8")
    (listing,) = re.findall(
        r"^\[tool\.setuptools\.package-data\]\ncommonslint = \[(.*)\]$", text, re.MULTILINE
    )
    patterns = re.findall(r'"([^"]*)"', listing)
    shipped = [path.relative_to(PACKAGE).as_posix() for path in (PACKAGE / "data").iterdir()]
    assert sorted(shipped) == ["data/fair_indicators.json", "data/vocabularies.json"]
    assert [f for f in shipped if not any(fnmatch(f, pattern) for pattern in patterns)] == []


def test_every_traced_binding_resolves():
    """The benchmark tracer wraps these module attributes by name, so a refactor
    that moves one breaks the traced benchmark; it fails here as well."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    unresolved = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.TRACED
        if not callable(getattr(importlib.import_module(f"commonslint.{module}"), attr, None))
    ]
    assert unresolved == []


_RUN_WITHOUT_CONFIG = """\
import sys
from commonslint.cli import main

repo, out = sys.argv[1:]
codes = [
    main(["check", "--repo", repo, "--out", f"{out}/reports"]),
    main(["dict", "--repo", repo, "--out", f"{out}/dictionary"]),
    main(["scan", "--repo", repo]),
]
print(codes, sorted(name for name in sys.modules if name.split(".")[0] == "yaml"))
"""


def test_commands_without_a_config_file_never_import_yaml(clean_repo, tmp_path):
    assert not any(clean_repo.glob("*commonslint.yml"))
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_CONFIG, str(clean_repo), str(tmp_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert run.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_importing_the_cli_leaves_decimal_unloaded():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-c", "import sys, commonslint.cli; print('decimal' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert run.stdout == "False\n"


_HASHLIB_LOADED = """\
import sys
from commonslint import scanner
from commonslint.cli import main

repo, out = sys.argv[1:]
main(["scan", "--repo", repo])
main(["dict", "--repo", repo, "--out", f"{out}/dictionary"])
main(["check", "--repo", repo, "--tests", "T11", "--no-reports"])
main(["check", "--repo", repo, "--no-reports"])  # tables below _CACHE_MIN_BYTES
before = "hashlib" in sys.modules
scanner._CACHE_MIN_BYTES = 0
main(["check", "--repo", repo, "--no-reports"])
print(before, "hashlib" in sys.modules)
"""


def test_only_a_check_through_the_table_cache_loads_hashlib(clean_repo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-c", _HASHLIB_LOADED, str(clean_repo), str(tmp_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert run.stdout.splitlines()[-1] == "False True"
