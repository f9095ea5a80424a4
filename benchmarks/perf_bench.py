"""The hot-path performance benchmark suite (``make bench-perf``).

Measures the throughput of the two simulation hot paths and the
end-to-end campaign loop, and writes ``BENCH_perf.json`` at the
repository root:

* ``engine_micro`` — a pure discrete-event microbench: eight
  interleaved periodic callback chains through :class:`Simulator`, no
  packets, no RNG.  Isolates heap-entry comparison, scheduling, and
  dispatch cost; reported as events/s.
* ``packet_epoch`` — one packet-level measurement epoch
  (:class:`PacketEpochRunner`, path p12 at utilization 0.4), the
  workload behind the validation tests.  Reported as simulator events/s.
* ``fluid_vector`` — 600 fluid epochs (4 paths x 1 trace x 150)
  through :class:`Campaign.run_trace` on the fluid engine, without
  executor overhead; reported as epochs/s.
* ``campaign_serial`` / ``campaign_parallel`` — the full campaign loop
  (catalog x traces x epochs through the executor, checkpointing and
  caching off) serially and with two workers, reported as wall time.
* ``hb_eval`` — walk-forward HB evaluation (the analysis hot path
  behind Figs. 16-23): the Fig. 16/17-style predictor set, LSO-wrapped
  and bare, over four 150-epoch campaign traces.  Reported as walked
  epochs/s; the ``forecasts`` counter is deterministic because predictor
  readiness is structural (history length), not value-dependent.
* ``lso_segmentation`` — the full-trace LSO pass behind Fig. 20's CoV
  and outlier exclusion, on three long synthetic traces with level
  shifts and outlier spikes; the O(n^2) -> O(n) rewrite is measured
  here.  The ``detections`` counter pins the exact LSO structure found.
* ``fluid_vector_traced`` / ``packet_epoch_traced`` — the same
  per-engine workloads run *inside an open unit span*, so phase span
  synthesis (:func:`repro.obs.spans.record_trace_phase_spans` per fluid
  trace, :func:`repro.obs.spans.record_epoch_spans` per packet epoch)
  is live.  Each reports ``overhead_frac`` against a paired,
  interleaved untraced measurement; the run **fails** if any traced
  fixture exceeds the 5% overhead budget (``TRACED_OVERHEAD_BUDGET``),
  which is the enforcement teeth behind docs/observability.md's
  "tracing costs <5%" claim.

Every fixture's workload is deterministic (fixed seeds, fixed event
counts), so the ``epochs``/``events`` counts are exact across runs and
machines — only the wall-clock timings vary.  The report has the same
``fixtures`` shape as ``BENCH_obs.json``, so the ``repro-obs bench``
regression gate consumes it directly:

    repro-obs bench record BENCH_perf.json --name perf_baseline
    repro-obs bench check  BENCH_perf.json --name perf_baseline

``make perf-smoke`` re-measures and checks against the committed
baseline under ``benchmarks/baselines/`` with a tolerance loose enough
for shared-runner noise; see docs/performance.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from repro._version import __version__  # noqa: E402
from repro.obs import get_telemetry  # noqa: E402
from repro.paths.config import may_2004_catalog  # noqa: E402
from repro.simnet.engine import Simulator  # noqa: E402
from repro.testbed.campaign import Campaign, CampaignSettings  # noqa: E402
from repro.testbed.packet_epoch import PacketEpochRunner  # noqa: E402

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: Deterministic engine microbench scale.
ENGINE_EVENTS = 200_000
ENGINE_CHAINS = 8

#: Repetitions of the fast fixtures; the best run is reported (the
#: usual microbenchmark practice: the minimum is the least noisy
#: estimator of the true cost on a shared machine).
REPEATS = 3

#: Traced-overhead gate: span synthesis may cost at most this fraction
#: of the untraced wall time, measured pairwise (interleaved repeats,
#: best-of on both sides so scheduler noise largely cancels).
TRACED_OVERHEAD_BUDGET = 0.05
TRACED_REPEATS = 5


def bench_engine_micro() -> dict:
    """Pure event-loop throughput: interleaved periodic callback chains."""

    def run_once() -> tuple[int, float]:
        sim = Simulator()
        remaining = [ENGINE_EVENTS // ENGINE_CHAINS] * ENGINE_CHAINS
        periods = [0.001 * (i + 1) for i in range(ENGINE_CHAINS)]

        def make_chain(i: int):
            def chain() -> None:
                if remaining[i] > 0:
                    remaining[i] -= 1
                    sim.schedule(periods[i], chain)

            return chain

        for i in range(ENGINE_CHAINS):
            sim.schedule(periods[i], make_chain(i))
        started = time.perf_counter()
        sim.run()
        return sim.events_processed, time.perf_counter() - started

    events, wall = min((run_once() for _ in range(REPEATS)), key=lambda r: r[1])
    return {
        "events": events,
        "wall_time_s": round(wall, 4),
        "events_per_s": round(events / wall),
    }


def bench_packet_epoch() -> dict:
    """One packet-level epoch: the validation-path workload."""
    config = next(c for c in may_2004_catalog() if c.path_id == "p12")
    telemetry = get_telemetry()

    def run_once() -> tuple[int, float]:
        telemetry.drain()
        runner = PacketEpochRunner(config, np.random.default_rng(0))
        started = time.perf_counter()
        runner.run_epoch(
            utilization=0.4, transfer_duration_s=10.0, pre_probe_duration_s=10.0
        )
        wall = time.perf_counter() - started
        events = 0
        for entry in telemetry.drain()["counters"]:
            if entry["name"] == "simnet.events_processed":
                events = entry["value"]
        return events, wall

    events, wall = min((run_once() for _ in range(REPEATS)), key=lambda r: r[1])
    return {
        "epochs": 1,
        "events": events,
        "wall_time_s": round(wall, 4),
        "events_per_s": round(events / wall),
    }


def bench_fluid_vector() -> dict:
    """Fluid-model epoch throughput, without executor overhead."""
    catalog = may_2004_catalog()[:4]
    settings = CampaignSettings(n_traces=1, epochs_per_trace=150)

    def run_once() -> tuple[int, float]:
        campaign = Campaign(catalog, seed=0, label="perf-fluid")
        started = time.perf_counter()
        epochs = sum(
            len(campaign.run_trace(config, 0, settings)) for config in catalog
        )
        return epochs, time.perf_counter() - started

    epochs, wall = min((run_once() for _ in range(REPEATS)), key=lambda r: r[1])
    return {
        "epochs": epochs,
        "wall_time_s": round(wall, 4),
        "epochs_per_s": round(epochs / wall, 1),
    }


def _bench_campaign(n_workers: int) -> dict:
    """The full campaign loop through the executor (no cache, no
    checkpointing), at the requested worker count."""
    settings = CampaignSettings(n_traces=2, epochs_per_trace=75)
    campaign = Campaign(may_2004_catalog(), seed=0, label="perf-campaign")
    started = time.perf_counter()
    dataset = campaign.run(settings, n_workers=n_workers)
    wall = time.perf_counter() - started
    epochs = len(dataset.epochs())
    return {
        "epochs": epochs,
        "wall_time_s": round(wall, 4),
        "epochs_per_s": round(epochs / wall, 1),
        "workers": n_workers,
    }


def _campaign_series(n_paths: int = 4, n_epochs: int = 150) -> list:
    """Deterministic throughput traces for the HB-analysis fixtures."""
    from repro.core.timeseries import TimeSeries

    catalog = may_2004_catalog()[:n_paths]
    settings = CampaignSettings(n_traces=1, epochs_per_trace=n_epochs)
    campaign = Campaign(catalog, seed=0, label="perf-hb")
    series = []
    for config in catalog:
        epochs = campaign.run_trace(config, 0, settings)
        series.append(
            TimeSeries.from_values(
                [e.throughput_mbps for e in epochs],
                period=180.0,
                name=config.path_id,
            )
        )
    return series


def bench_hb_eval() -> dict:
    """Walk-forward HB evaluation over the Fig. 16/17-style predictor set."""
    from repro.analysis.hb_eval import ewma, hw, ma, with_lso
    from repro.hb.evaluate import evaluate_predictor

    predictors = {
        "1-MA": ma(1),
        "10-MA": ma(10),
        "0.8-EWMA": ewma(0.8),
        "HW": hw(),
        "10-MA-LSO": with_lso(ma(10)),
        "HW-LSO": with_lso(hw()),
    }
    traces = _campaign_series()
    n_epochs = sum(len(series) for series in traces)

    def run_once() -> tuple[int, float]:
        forecasts = 0
        started = time.perf_counter()
        for series in traces:
            for factory in predictors.values():
                evaluation = evaluate_predictor(series, factory)
                forecasts += int(
                    np.count_nonzero(~np.isnan(evaluation.predictions))
                )
        return forecasts, time.perf_counter() - started

    forecasts, wall = min((run_once() for _ in range(REPEATS)), key=lambda r: r[1])
    epochs = n_epochs * len(predictors)
    return {
        "epochs": epochs,
        "forecasts": forecasts,
        "wall_time_s": round(wall, 4),
        "epochs_per_s": round(epochs / wall, 1),
    }


def bench_lso_segmentation() -> dict:
    """Full-trace LSO segmentation over long synthetic traces."""
    from repro.hb.evaluate import lso_segmentation

    rng = np.random.default_rng(987)
    traces = []
    for t in range(3):
        base = 30.0 + 5.0 * t
        n = 1500
        vals = base + rng.normal(0.0, 0.05 * base, size=n)
        vals[n // 3 :] *= 1.7
        vals[2 * n // 3 :] *= 0.55
        vals[::97] *= 2.4
        np.maximum(vals, 0.1, out=vals)
        traces.append(vals)
    epochs = sum(len(vals) for vals in traces)

    def run_once() -> tuple[int, float]:
        detections = 0
        started = time.perf_counter()
        for vals in traces:
            seg = lso_segmentation(vals)
            detections += len(seg.outlier_indices) + len(seg.shift_indices)
        return detections, time.perf_counter() - started

    detections, wall = min((run_once() for _ in range(REPEATS)), key=lambda r: r[1])
    return {
        "epochs": epochs,
        "detections": detections,
        "wall_time_s": round(wall, 4),
        "epochs_per_s": round(epochs / wall, 1),
    }


def bench_fluid_vector_traced() -> dict:
    """Fluid throughput inside a live unit span, vs a paired untraced run.

    Traced and untraced runs interleave, and ``overhead_frac`` comes
    from adjacent pairs (each traced run ratioed against the untraced
    run just before it, best pair wins): a host-speed swing lands on
    both sides of a pair, so it cancels, while a real span-cost
    regression shows up in every pair.
    """
    catalog = may_2004_catalog()[:4]
    settings = CampaignSettings(n_traces=1, epochs_per_trace=150)
    telemetry = get_telemetry()

    def run_once(traced: bool) -> tuple[int, float]:
        campaign = Campaign(catalog, seed=0, label="perf-fluid")
        telemetry.drain()
        epochs = 0
        started = time.perf_counter()
        for config in catalog:
            if traced:
                with telemetry.span("trace", path=config.path_id, trace=0):
                    epochs += len(campaign.run_trace(config, 0, settings))
            else:
                epochs += len(campaign.run_trace(config, 0, settings))
        wall = time.perf_counter() - started
        telemetry.drain()
        return epochs, wall

    untraced_walls, traced_walls = [], []
    for _ in range(TRACED_REPEATS):
        _, wall = run_once(False)
        untraced_walls.append(wall)
        epochs, wall = run_once(True)
        traced_walls.append(wall)
    wall, untraced = min(traced_walls), min(untraced_walls)
    ratio = min(t / u for u, t in zip(untraced_walls, traced_walls))
    return {
        "epochs": epochs,
        "wall_time_s": round(wall, 4),
        "epochs_per_s": round(epochs / wall, 1),
        "untraced_wall_s": round(untraced, 4),
        "overhead_frac": round(max(0.0, ratio - 1.0), 4),
    }


def bench_packet_epoch_traced() -> dict:
    """One traced packet epoch vs a paired untraced one."""
    config = next(c for c in may_2004_catalog() if c.path_id == "p12")
    telemetry = get_telemetry()

    def run_once(traced: bool) -> float:
        telemetry.drain()
        runner = PacketEpochRunner(config, np.random.default_rng(0))
        started = time.perf_counter()
        if traced:
            with telemetry.span("trace", path=config.path_id, trace=0):
                runner.run_epoch(
                    utilization=0.4,
                    transfer_duration_s=10.0,
                    pre_probe_duration_s=10.0,
                )
        else:
            runner.run_epoch(
                utilization=0.4,
                transfer_duration_s=10.0,
                pre_probe_duration_s=10.0,
            )
        wall = time.perf_counter() - started
        telemetry.drain()
        return wall

    untraced_walls, traced_walls = [], []
    for _ in range(REPEATS):
        untraced_walls.append(run_once(False))
        traced_walls.append(run_once(True))
    wall, untraced = min(traced_walls), min(untraced_walls)
    # Adjacent-pair overhead, as in bench_fluid_vector_traced: host-speed
    # swings cancel within a pair instead of masquerading as span cost.
    ratio = min(t / u for u, t in zip(untraced_walls, traced_walls))
    return {
        "epochs": 1,
        "wall_time_s": round(wall, 4),
        "untraced_wall_s": round(untraced, 4),
        "overhead_frac": round(max(0.0, ratio - 1.0), 4),
    }


FIXTURES = {
    "engine_micro": bench_engine_micro,
    "packet_epoch": bench_packet_epoch,
    "fluid_vector": bench_fluid_vector,
    "fluid_vector_traced": bench_fluid_vector_traced,
    "packet_epoch_traced": bench_packet_epoch_traced,
    "campaign_serial": lambda: _bench_campaign(1),
    "campaign_parallel": lambda: _bench_campaign(2),
    "hb_eval": bench_hb_eval,
    "lso_segmentation": bench_lso_segmentation,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure hot-path throughput and write a bench report."
    )
    parser.add_argument(
        "--output",
        default=str(OUTPUT),
        metavar="FILE",
        help=f"report path (default: {OUTPUT})",
    )
    parser.add_argument(
        "--fixtures",
        nargs="+",
        choices=sorted(FIXTURES),
        default=sorted(FIXTURES),
        metavar="NAME",
        help="subset of fixtures to run (default: all)",
    )
    parser.add_argument(
        "--pre-change",
        default=None,
        metavar="FILE",
        help="earlier bench report to embed under 'pre_change' for "
        "before/after comparison in the same file",
    )
    args = parser.parse_args(argv)
    if os.environ.get("REPRO_OBS", "1") == "0":
        print(
            "error: REPRO_OBS=0 — telemetry is required to count engine events",
            file=sys.stderr,
        )
        return 2

    report = {
        "bench": "perf",
        "code_version": __version__,
        "recorded_unix": round(time.time(), 1),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "fixtures": {},
    }
    over_budget = []
    for name in sorted(args.fixtures):
        report["fixtures"][name] = FIXTURES[name]()
        entry = report["fixtures"][name]
        rate = entry.get("events_per_s") or entry.get("epochs_per_s") or ""
        unit = "events/s" if "events_per_s" in entry else "epochs/s"
        note = f" ({rate:,} {unit})" if rate else ""
        overhead = entry.get("overhead_frac")
        if overhead is not None:
            note += f" [span overhead {overhead * 100:.1f}%]"
            if overhead > TRACED_OVERHEAD_BUDGET:
                over_budget.append((name, overhead))
        print(f"  {name}: {entry['wall_time_s']}s{note}")

    if args.pre_change:
        previous = json.loads(Path(args.pre_change).read_text(encoding="utf-8"))
        report["pre_change"] = {
            "code_version": previous.get("code_version"),
            "recorded_unix": previous.get("recorded_unix"),
            "fixtures": previous.get("fixtures", {}),
        }

    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    if over_budget:
        for name, overhead in over_budget:
            print(
                f"error: {name} span overhead {overhead * 100:.1f}% exceeds "
                f"the {TRACED_OVERHEAD_BUDGET * 100:.0f}% budget",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
