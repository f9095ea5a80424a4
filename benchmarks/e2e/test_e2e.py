"""Self-test of the end-to-end benchmark.

    python -m pytest benchmarks/e2e -q

Runs ``run.py --smoke`` (all four workloads on a tiny catalog) untraced
and traced, and checks the result line against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def smoke(tmp: Path, *extra: str) -> dict:
    done = run_bench(
        ROOT, "--smoke", "--work-dir", str(tmp), "--output", str(tmp / "report.json"),
        *extra,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory) -> dict:
    return smoke(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("traced")


@pytest.fixture(scope="module")
def traced(traced_dir) -> dict:
    return smoke(traced_dir, "--trace", "1")


def values(result: dict, workload: str) -> dict[str, float]:
    prefix = workload + "."
    return {
        name[len(prefix):]: entry["value"]
        for name, entry in result["metrics"].items()
        if name.startswith(prefix)
    }


@pytest.mark.parametrize("kind", ["untraced", "traced"])
def test_result_line_names_every_metric_with_its_unit(kind, request):
    result = request.getfixturevalue(kind)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if kind == "traced" else "end_to_end"]
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in spec}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, entry in result["metrics"].items():
        assert math.isfinite(entry["value"]), name


@pytest.mark.parametrize("kind", ["untraced", "traced"])
def test_no_operation_fails(kind, request):
    result = request.getfixturevalue(kind)
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert result["correct"] is True


def test_end_to_end_metrics_are_never_zero(untraced):
    for name, entry in untraced["metrics"].items():
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_and_remainder_sum_to_wall_time(traced, workload):
    layer = values(traced, workload)
    self_s = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    assert layer["unattributed_s"] >= 0
    assert self_s + layer["unattributed_s"] == pytest.approx(layer["wall_s"], rel=0.01)


def test_layer_counts_follow_the_workloads(traced):
    cold, warm = values(traced, "cold_pipeline"), values(traced, "warm_pipeline")
    serve = values(traced, "serve_replay")
    assert cold["hb.vector_walk.calls"] > 0
    assert warm["hb.vector_walk.calls"] == 0
    assert cold["fastpath.run_fluid_trace.calls"] > 0
    assert serve["fastpath.run_fluid_trace.calls"] == 0
    assert serve["serve.ShardedStateStore.ingest.calls"] > 0
    assert warm["testbed.cache.hit.ratio"] == 1
    assert cold["testbed.cache.hit.ratio"] == 0


def test_traced_run_writes_a_valid_chrome_trace(traced, traced_dir):
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.traceview import validate_chrome_trace

    doc = json.loads((traced_dir / "report.chrome.json").read_text())
    assert validate_chrome_trace(doc) == []
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"repro.cli.campaign.main", "analysis.figure.2"} <= names


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "cold_pipeline", "--seconds", "1")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
