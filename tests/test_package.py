"""The package's public surface: exported names and the documented config."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import yaml

import commonslint
from commonslint.config import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"
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
