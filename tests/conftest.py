from __future__ import annotations

from pathlib import Path

import pytest

from repo_fixtures import build_clean_repo, build_planted_repo


@pytest.fixture(autouse=True, scope="session")
def _cache_home(tmp_path_factory):
    """The table cache of every test, and of the processes it starts, stays under pytest's tmp."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache-home")))
        yield


@pytest.fixture
def clean_repo(tmp_path: Path) -> Path:
    root = tmp_path / "clean"
    build_clean_repo(root)
    return root


@pytest.fixture
def planted_repo(tmp_path: Path) -> tuple[Path, dict]:
    root = tmp_path / "planted"
    manifest = build_planted_repo(root)
    return root, manifest
