"""The package installs the way the README says: src layout, name ``repro``.

``pip install -e .`` itself is exercised by the CI packaging job (an
editable install, then an import from outside the tree); these tests
pin the metadata and package discovery it depends on, offline.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _setup(*args: str) -> str:
    done = subprocess.run(
        [sys.executable, "setup.py", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def test_setup_reports_the_package_name():
    assert _setup("--name").split() == ["repro"]


def test_package_discovery_finds_the_shard_package(tmp_path):
    _setup("-q", "egg_info", "--egg-base", str(tmp_path))
    info = tmp_path / "repro.egg-info"
    assert (info / "top_level.txt").read_text().split() == ["repro"]
    sources = (info / "SOURCES.txt").read_text().split()
    assert "src/repro/__init__.py" in sources
    assert "src/repro/shard/__init__.py" in sources
    assert "numpy" in (info / "requires.txt").read_text().split()
