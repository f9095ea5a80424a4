"""Performance-regression gate over run manifests and bench snapshots.

The bench trajectory (``BENCH_obs.json``, run manifests) used to be
write-only: numbers were recorded but nothing failed when they got
worse.  This module closes the loop:

* :func:`record_baseline` snapshots a metrics source — a run manifest
  or a ``BENCH_obs.json``-style bench report — as a named baseline file
  (flat ``{metric: value}`` form plus provenance);
* :func:`check_against_baseline` compares a current source against a
  baseline: **counters must match exactly** (they are deterministic
  given seed and settings), **timers get a relative tolerance** on
  p50/p95 (default ±25%; per-metric overrides can be stored in the
  baseline file).  Only *slower* timers regress — a faster run is
  reported as an improvement, not a failure.

Surfaced as ``repro-obs bench record`` / ``repro-obs bench check``
(exit 1 on regression), wired into ``make bench-check``.  The committed
default baseline lives in ``benchmarks/baselines/``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro._version import __version__
from repro.core.errors import DataError
from repro.core.store import atomic_write, read_json

__all__ = [
    "BASELINE_VERSION",
    "DEFAULT_TIMER_TOLERANCE",
    "DEFAULT_BASELINE_NAME",
    "ENV_BASELINES_DIR",
    "Finding",
    "default_baselines_dir",
    "flatten_manifest",
    "flatten_bench",
    "flatten_source",
    "load_metrics_source",
    "record_baseline",
    "load_baseline",
    "check_against_baseline",
    "render_check_report",
]

#: Schema version of baseline files.
BASELINE_VERSION = 1

#: Default relative tolerance on timer p50/p95 (±25%).
DEFAULT_TIMER_TOLERANCE = 0.25

#: Baseline name used when ``repro-obs bench`` is given none.
DEFAULT_BASELINE_NAME = "obs_baseline"

#: Environment override for the baselines directory.
ENV_BASELINES_DIR = "REPRO_BASELINES_DIR"

#: Timer aggregate fields the gate compares.
TIMER_FIELDS = ("p50", "p95")


def default_baselines_dir() -> Path:
    """The baselines directory: ``$REPRO_BASELINES_DIR`` or the
    repository's committed ``benchmarks/baselines/``."""
    override = os.environ.get(ENV_BASELINES_DIR)
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "benchmarks" / "baselines"


@dataclass(frozen=True)
class Finding:
    """One compared metric: its values and the verdict.

    Attributes:
        metric: flat metric key (``counter:...`` or ``timer:...#p50``).
        baseline: the baseline value (None when new in current).
        current: the current value (None when missing from current).
        tolerance: relative tolerance applied; None means exact.
        regressed: whether this finding fails the gate.
        note: one human-readable report line.
    """

    metric: str
    baseline: float | None
    current: float | None
    tolerance: float | None
    regressed: bool
    note: str


def _series_label(entry: dict[str, Any]) -> str:
    tags = entry.get("tags") or {}
    if not tags:
        return entry["name"]
    inner = ",".join(f"{k}={v}" for k, v in sorted(tags.items()))
    return f"{entry['name']}{{{inner}}}"


def flatten_manifest(manifest: dict[str, Any]) -> dict[str, Any]:
    """A run manifest's gate-relevant metrics in flat form.

    Counters become ``counter:<label>`` ints; timers become
    ``timer:<label>`` dicts of :data:`TIMER_FIELDS`.  Gauges are
    excluded — they are point-in-time progress values, not performance.
    """
    metrics: dict[str, Any] = {}
    for entry in manifest.get("counters", ()):
        metrics[f"counter:{_series_label(entry)}"] = int(entry["value"])
    for entry in manifest.get("timers", ()):
        metrics[f"timer:{_series_label(entry)}"] = {
            field: float(entry.get(field, 0.0)) for field in TIMER_FIELDS
        }
    return metrics


def flatten_bench(bench: dict[str, Any]) -> dict[str, Any]:
    """A ``BENCH_obs.json``- or ``BENCH_perf.json``-style report in the
    same flat form.

    Per fixture: the epoch and simulated-event counts as exact counters
    (when the fixture reports them — both are deterministic given seed
    and settings), the run wall time as a single-sample timer, and the
    ``epoch_wall_s`` / per-phase timer aggregates when present.
    """
    metrics: dict[str, Any] = {}
    for fixture, entry in sorted(bench.get("fixtures", {}).items()):
        prefix = f"bench.{fixture}"
        if "epochs" in entry:
            metrics[f"counter:{prefix}.epochs"] = int(entry["epochs"])
        if "events" in entry:
            metrics[f"counter:{prefix}.events"] = int(entry["events"])
        wall = float(entry.get("wall_time_s", 0.0))
        metrics[f"timer:{prefix}.wall_time_s"] = {
            field: wall for field in TIMER_FIELDS
        }
        epoch_wall = entry.get("epoch_wall_s")
        if epoch_wall is not None:
            metrics[f"timer:{prefix}.epoch_wall_s"] = {
                field: float(epoch_wall.get(field, 0.0))
                for field in TIMER_FIELDS
            }
        for phase, stats in sorted((entry.get("phase_s") or {}).items()):
            metrics[f"timer:{prefix}.phase_s{{phase={phase}}}"] = {
                field: float(stats.get(field, 0.0)) for field in TIMER_FIELDS
            }
    return metrics


def flatten_source(document: dict[str, Any]) -> dict[str, Any]:
    """Flatten either supported source document by sniffing its shape."""
    if "manifest_version" in document:
        return flatten_manifest(document)
    if document.get("bench") or "fixtures" in document:
        return flatten_bench(document)
    raise DataError(
        "unrecognized metrics source: expected a run manifest "
        "(manifest_version) or a bench report (bench/fixtures)"
    )


def load_metrics_source(path: str | Path) -> dict[str, Any]:
    """Load a manifest or bench JSON document from disk."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no metrics source at {path}")
    document = read_json(path)
    if not isinstance(document, dict):
        raise DataError(f"{path} is not a JSON object")
    return document


def baseline_path(name: str, baselines_dir: str | Path | None = None) -> Path:
    """Where the named baseline lives on disk."""
    directory = Path(baselines_dir) if baselines_dir else default_baselines_dir()
    return directory / f"{name}.json"


def record_baseline(
    source: dict[str, Any],
    name: str = DEFAULT_BASELINE_NAME,
    baselines_dir: str | Path | None = None,
    recorded_from: str = "",
    tolerances: dict[str, float] | None = None,
) -> Path:
    """Snapshot a metrics source as the named baseline file.

    Args:
        source: a loaded manifest or bench document.
        name: baseline name (file stem under the baselines directory).
        baselines_dir: override the baselines directory.
        recorded_from: provenance note (source path) stored in the file.
        tolerances: per-metric relative tolerance overrides, keyed by
            flat metric key (``timer:...``).

    Returns:
        The path written.
    """
    baseline = {
        "baseline_version": BASELINE_VERSION,
        "name": name,
        "recorded_from": recorded_from,
        "code_version": __version__,
        "created_unix": round(time.time(), 1),
        "default_timer_tolerance": DEFAULT_TIMER_TOLERANCE,
        "tolerances": dict(tolerances or {}),
        "metrics": flatten_source(source),
    }
    text = (json.dumps(baseline, indent=2, sort_keys=True) + "\n").encode()
    return atomic_write(baseline_path(name, baselines_dir), lambda f: f.write(text))


def load_baseline(path: str | Path) -> dict[str, Any]:
    """Load and sanity-check a baseline file."""
    path = Path(path)
    if not path.is_file():
        raise DataError(
            f"no baseline at {path} (record one with `repro-obs bench record`)"
        )
    baseline = read_json(path)
    if not isinstance(baseline, dict) or "baseline_version" not in baseline:
        raise DataError(f"{path} is not a bench baseline (no baseline_version)")
    version = baseline["baseline_version"]
    if not isinstance(version, int) or version < 1 or version > BASELINE_VERSION:
        raise DataError(f"{path} has unsupported baseline_version {version!r}")
    return baseline


def check_against_baseline(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float | None = None,
) -> list[Finding]:
    """Compare a current source document against a loaded baseline.

    Args:
        current: a loaded manifest or bench document (not yet flattened).
        baseline: a baseline dict from :func:`load_baseline`.
        tolerance: override every timer tolerance (CLI ``--tolerance``);
            None uses the baseline's per-metric/default tolerances.

    Returns:
        One :class:`Finding` per compared metric field, regressions
        first, then the rest sorted by metric key.
    """
    current_metrics = flatten_source(current)
    baseline_metrics = baseline.get("metrics", {})
    default_tol = float(
        baseline.get("default_timer_tolerance", DEFAULT_TIMER_TOLERANCE)
    )
    per_metric = baseline.get("tolerances", {}) or {}

    findings: list[Finding] = []
    for key, base_value in sorted(baseline_metrics.items()):
        if key not in current_metrics:
            findings.append(
                Finding(
                    metric=key,
                    baseline=_scalar(base_value),
                    current=None,
                    tolerance=None,
                    regressed=True,
                    note=f"REGRESSION {key}: present in baseline, "
                    "missing from current run",
                )
            )
            continue
        cur_value = current_metrics[key]
        if key.startswith("counter:"):
            findings.append(_check_counter(key, base_value, cur_value))
        else:
            tol = (
                tolerance
                if tolerance is not None
                else float(per_metric.get(key, default_tol))
            )
            findings.extend(_check_timer(key, base_value, cur_value, tol))

    for key in sorted(set(current_metrics) - set(baseline_metrics)):
        findings.append(
            Finding(
                metric=key,
                baseline=None,
                current=_scalar(current_metrics[key]),
                tolerance=None,
                regressed=False,
                note=f"note {key}: new metric, not in baseline",
            )
        )
    findings.sort(key=lambda f: (not f.regressed, f.metric))
    return findings


def _scalar(value: Any) -> float | None:
    if isinstance(value, dict):
        return float(value.get("p50", 0.0))
    return float(value)


def _check_counter(key: str, base: Any, cur: Any) -> Finding:
    base_i, cur_i = int(base), int(cur)
    if base_i != cur_i:
        return Finding(
            metric=key,
            baseline=base_i,
            current=cur_i,
            tolerance=None,
            regressed=True,
            note=f"REGRESSION {key}: expected exactly {base_i}, got {cur_i}",
        )
    return Finding(
        metric=key,
        baseline=base_i,
        current=cur_i,
        tolerance=None,
        regressed=False,
        note=f"ok {key}: {cur_i}",
    )


def _check_timer(
    key: str, base: dict[str, Any], cur: dict[str, Any], tol: float
) -> list[Finding]:
    findings = []
    for field in TIMER_FIELDS:
        base_v = float(base.get(field, 0.0))
        cur_v = float(cur.get(field, 0.0))
        metric = f"{key}#{field}"
        if base_v <= 0.0:
            # An empty/zero baseline timer carries no budget to enforce.
            findings.append(
                Finding(
                    metric=metric,
                    baseline=base_v,
                    current=cur_v,
                    tolerance=tol,
                    regressed=False,
                    note=f"n/a {metric}: zero baseline, nothing to enforce",
                )
            )
            continue
        limit = base_v * (1.0 + tol)
        if cur_v > limit:
            change = (cur_v - base_v) / base_v * 100.0
            findings.append(
                Finding(
                    metric=metric,
                    baseline=base_v,
                    current=cur_v,
                    tolerance=tol,
                    regressed=True,
                    note=(
                        f"REGRESSION {metric}: {cur_v:.6g}s vs baseline "
                        f"{base_v:.6g}s ({change:+.1f}%, tolerance "
                        f"+{tol * 100:.0f}%)"
                    ),
                )
            )
        elif cur_v < base_v * (1.0 - tol):
            change = (cur_v - base_v) / base_v * 100.0
            findings.append(
                Finding(
                    metric=metric,
                    baseline=base_v,
                    current=cur_v,
                    tolerance=tol,
                    regressed=False,
                    note=(
                        f"improved {metric}: {cur_v:.6g}s vs baseline "
                        f"{base_v:.6g}s ({change:+.1f}%) — consider "
                        "re-recording the baseline"
                    ),
                )
            )
        else:
            findings.append(
                Finding(
                    metric=metric,
                    baseline=base_v,
                    current=cur_v,
                    tolerance=tol,
                    regressed=False,
                    note=f"ok {metric}: {cur_v:.6g}s (baseline {base_v:.6g}s)",
                )
            )
    return findings


def render_check_report(findings: list[Finding], verbose: bool = False) -> str:
    """The ``repro-obs bench check`` report.

    Regressions and improvements always print; ``verbose`` adds the
    ``ok`` lines.  Ends with a one-line verdict.
    """
    lines = [
        f.note
        for f in findings
        if verbose or f.regressed or f.note.startswith(("improved", "note"))
    ]
    regressions = sum(1 for f in findings if f.regressed)
    compared = len(findings)
    if regressions:
        lines.append(f"bench check FAILED: {regressions}/{compared} "
                     "compared metrics regressed")
    else:
        lines.append(f"bench check OK: {compared} metrics within tolerance")
    return "\n".join(lines)
