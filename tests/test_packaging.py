"""The package metadata takes its version from ``repro._version``."""

import importlib.metadata
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


def test_distribution_metadata_matches_the_package():
    """Metadata found on the path (an install, or a stale ``*.egg-info``
    beside the sources) must carry the package's own version."""
    try:
        version = importlib.metadata.version("repro")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("no repro distribution metadata on the path")
    assert version == repro.__version__
