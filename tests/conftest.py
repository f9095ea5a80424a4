"""Fixtures shared by the whole suite."""

import pytest


@pytest.fixture(autouse=True)
def _isolated_stores(tmp_path, monkeypatch):
    """Point every store at the test's tmp dir, never at ``~/.cache/repro``:
    the dataset cache (``dataset-cache``), the checkpoints
    (``checkpoints``) and the evaluation cache (``evals``)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "dataset-cache"))
    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "checkpoints"))
    monkeypatch.setenv("REPRO_EVAL_CACHE_DIR", str(tmp_path / "evals"))
