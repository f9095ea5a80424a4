"""The package metadata takes its version from ``repro._version``."""

from pathlib import Path

import pytest

import repro

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_is_read_from_the_version_module():
    config = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    project = config["project"]
    assert "version" not in project, (
        f"pyproject.toml declares version {project['version']!r}; the version "
        "lives in src/repro/_version.py only"
    )
    assert "version" in project["dynamic"]
    dynamic = config["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "repro._version.__version__"}
    assert repro.__version__ == repro._version.__version__
