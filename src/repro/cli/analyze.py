"""``repro-analyze``: regenerate the paper's figures from a saved dataset.

Every invocation is an observable run: telemetry from the prediction
pipeline (per-predictor timers/counters, LSO detections, per-figure
wall times) is recorded and written as ``X.analysis.manifest.json`` +
``X.analysis.events.jsonl`` sidecars next to the dataset — rendered by
``repro-obs summary`` and gated by ``repro-obs bench check``.  Set
``REPRO_OBS=0`` to disable telemetry (no sidecars are written).

The HB figures run in two phases: a **warm phase** pre-computes every
predictor walk the requested figures will need — optionally in parallel
(``--workers N``) and against a persistent content-addressed cache
(``~/.cache/repro/evals``, see :mod:`repro.analysis.evalcache`) — then
the figure renderers run with the cache activated and only take hits.
Rendered output is byte-identical whatever the worker count or cache
state (``make analyze-parity`` checks this).

Examples::

    repro-analyze may.csv                      # every applicable figure
    repro-analyze may.csv --figures 2 19 20    # a subset
    repro-analyze may.csv --workers 4          # parallel warm phase
    repro-analyze march.csv --figures 11
    repro-obs summary may.analysis.manifest.json
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from collections.abc import Callable
from pathlib import Path

from repro.analysis import fb_eval, hb_eval
from repro.analysis.evalcache import EvaluationCache
from repro.analysis.parallel import warm_eval_cache
from repro.analysis.report import (
    render_bar_table,
    render_cdf_table,
    render_quantile_table,
    render_scatter_summary,
)
from repro.core.errors import ReproError
from repro.obs import RunRecorder, get_telemetry
from repro.obs.recorder import analysis_sidecar_paths, write_manifest
from repro.paths.records import Dataset
from repro.testbed.io import load_dataset


def _fig2(ds: Dataset) -> str:
    cdfs = fb_eval.error_cdfs(ds)
    return render_cdf_table(
        {"all": cdfs.all, "lossy": cdfs.lossy, "lossless": cdfs.lossless},
        thresholds=(-1.0, 0.0, 1.0, 2.0, 5.0, 9.0),
        title="Fig. 2: FB error CDFs",
    ) + "\n" + cdfs.summary()


def _fig3(ds: Dataset) -> str:
    inc = fb_eval.increase_cdfs(ds)
    return (
        render_cdf_table(
            {"RTT incr (s)": inc.rtt_absolute_s, "loss incr": inc.loss_absolute},
            thresholds=(0.0, 0.005, 0.02, 0.1),
            title="Fig. 3: absolute increases during flow",
        )
        + f"\nmean RTT ratio {inc.mean_rtt_ratio:.2f}, "
        + f"mean loss ratio {inc.mean_loss_ratio:.2f}"
    )


def _fig6(ds: Dataset) -> str:
    comp = fb_eval.during_flow_prediction(ds)
    return render_cdf_table(
        {"prior": comp.with_prior, "during": comp.with_during},
        thresholds=(-3.0, -1.0, 0.0, 1.0, 3.0),
        title="Fig. 6: prior vs during-flow inputs",
    )


def _fig7(ds: Dataset) -> str:
    rows = [
        (s.path_id, {"p10": s.p10, "median": s.median, "p90": s.p90})
        for s in fb_eval.per_path_percentiles(ds)
    ]
    return render_bar_table(rows, title="Fig. 7: per-path FB error", value_format="{:+.2f}")


def _fig8(ds: Dataset) -> str:
    sc = fb_eval.throughput_vs_error(ds)
    return "Fig. 8: R vs E\n" + render_scatter_summary(sc.x, sc.errors, "R", "E")


def _fig11(ds: Dataset) -> str:
    effect = fb_eval.duration_effect(ds)
    return render_cdf_table(
        effect.cdfs, thresholds=(-1.0, 0.0, 1.0, 3.0), title="Fig. 11: duration cuts"
    )


def _fig12(ds: Dataset) -> str:
    rows = [
        (c.path_id, {"W=1MB": c.rmsre_large_window, "W=20KB": c.rmsre_small_window})
        for c in fb_eval.window_limited(ds)
        if c.window_limited
    ]
    return render_bar_table(rows, title="Fig. 12: FB RMSRE by window")


def _fig16(ds: Dataset) -> str:
    cdfs = hb_eval.predictor_cdfs(ds, hb_eval.ma_family())
    return render_quantile_table(cdfs, title="Fig. 16: MA family RMSRE")


def _fig17(ds: Dataset) -> str:
    cdfs = hb_eval.predictor_cdfs(ds, hb_eval.hw_family())
    return render_quantile_table(cdfs, title="Fig. 17: HW family RMSRE")


def _fig19(ds: Dataset) -> str:
    comp = hb_eval.fb_vs_hb(ds)
    return (
        render_quantile_table(
            {"FB": comp.fb, "HB": comp.hb}, title="Fig. 19: FB vs HB RMSRE"
        )
        + "\n"
        + comp.summary()
    )


def _fig20(ds: Dataset) -> str:
    rel = hb_eval.cov_correlation(ds)
    return (
        "Fig. 20: CoV vs RMSRE\n"
        + render_scatter_summary(rel.covs, rel.rmsres, "CoV", "RMSRE")
        + f"\ncorrelation: {rel.correlation():.2f}"
    )


def _fig21(ds: Dataset) -> str:
    rows = [
        (
            f"{c.path_id} [{c.label}]",
            {n: sum(v) / len(v) for n, v in c.rmsres_by_predictor.items()},
        )
        for c in hb_eval.path_classes(ds)
    ]
    return render_bar_table(rows, title="Fig. 21: path classes")


def _fig22(ds: Dataset) -> str:
    rows = [
        (c.path_id, {"W=1MB": c.rmsre_large_window, "W=20KB": c.rmsre_small_window})
        for c in hb_eval.window_limited_hb(ds)
    ]
    return render_bar_table(rows, title="Fig. 22: HB RMSRE by window")


def _fig23(ds: Dataset) -> str:
    cdfs = hb_eval.interval_effect(ds)
    return render_quantile_table(cdfs, title="Fig. 23: transfer intervals")


FIGURES: dict[int, Callable[[Dataset], str]] = {
    2: _fig2,
    3: _fig3,
    6: _fig6,
    7: _fig7,
    8: _fig8,
    11: _fig11,
    12: _fig12,
    16: _fig16,
    17: _fig17,
    19: _fig19,
    20: _fig20,
    21: _fig21,
    22: _fig22,
    23: _fig23,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Regenerate the paper's figures from a saved campaign CSV.",
    )
    parser.add_argument("dataset", help="CSV written by repro-campaign")
    parser.add_argument(
        "--figures",
        type=int,
        nargs="+",
        metavar="N",
        help=f"figure numbers to produce (available: {sorted(FIGURES)})",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the HB warm phase (0 = all CPUs); "
        "rendered output is identical at any worker count",
    )
    parser.add_argument(
        "--no-eval-cache",
        action="store_true",
        help="do not read or write the persistent evaluation cache "
        "(walks are still shared in-memory across this run's figures)",
    )
    parser.add_argument(
        "--eval-cache-dir",
        metavar="DIR",
        default=None,
        help="evaluation cache directory (default: $REPRO_EVAL_CACHE_DIR "
        "or ~/.cache/repro/evals)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the analysis under cProfile and write the stats "
        "next to the dataset as DATASET.analysis.pstats (inspect with "
        "'python -m pstats')",
    )
    return parser


def _dataset_identity(path: Path) -> str:
    """sha256 of the dataset file bytes — the analysis-run cache_key."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _flush_phase_timers(clock, telemetry) -> None:
    """Turn the run's phase laps into manifest timers.

    ``load`` becomes ``analysis.load_s``; every ``fig<N>`` lap becomes a
    sample of ``analysis.figure_s{figure=N}``.
    """
    for phase, seconds in clock.phases.items():
        if phase.startswith("fig"):
            timer = telemetry.metrics.timer("analysis.figure_s", figure=phase[3:])
        else:
            timer = telemetry.metrics.timer(f"analysis.{phase}_s")
        timer.observe(seconds)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    dataset_path = Path(args.dataset)
    wanted = args.figures or sorted(FIGURES)

    telemetry = get_telemetry()
    observing = telemetry.enabled
    recorder = RunRecorder(
        label=dataset_path.name,
        kind="analysis",
        cache_key=(
            _dataset_identity(dataset_path)
            if observing and dataset_path.is_file()
            else ""
        ),
        settings={
            "dataset": str(args.dataset),
            "figures": list(wanted),
            "workers": args.workers,
            "eval_cache": not args.no_eval_cache,
        },
    ).start()
    clock = telemetry.phase_clock()

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    dataset = load_dataset(args.dataset)
    clock.lap("load")

    cache = EvaluationCache(args.eval_cache_dir, memory_only=args.no_eval_cache)
    warm = warm_eval_cache(
        dataset, str(dataset_path), wanted, cache, n_workers=args.workers
    )
    clock.lap("warm")
    telemetry.emit(
        "analysis.warm",
        planned=warm.planned,
        cached=warm.cached,
        computed=warm.computed,
        workers=warm.workers,
    )
    if warm.planned:
        print(
            f"warm phase: {warm.computed} evaluations computed, "
            f"{warm.cached} cached, workers={warm.workers}",
            file=sys.stderr,
        )

    status = 0
    rendered: list[int] = []
    skipped: list[int] = []
    try:
        with cache.activated():
            print(dataset.summary())
            for number in wanted:
                renderer = FIGURES.get(number)
                if renderer is None:
                    print(
                        f"\n[fig {number}] no renderer (available: {sorted(FIGURES)})"
                    )
                    status = 2
                    clock.lap(f"fig{number}")
                    telemetry.emit("figure", figure=number, status="unknown")
                    continue
                print()
                try:
                    print(renderer(dataset))
                except ReproError as exc:
                    print(f"[fig {number}] not derivable from this dataset: {exc}")
                    clock.lap(f"fig{number}")
                    skipped.append(number)
                    telemetry.emit(
                        "figure",
                        figure=number,
                        status="skipped",
                        wall_s=clock.phases.get(f"fig{number}", 0.0),
                        reason=str(exc),
                    )
                else:
                    clock.lap(f"fig{number}")
                    rendered.append(number)
                    telemetry.emit(
                        "figure",
                        figure=number,
                        status="ok",
                        wall_s=clock.phases.get(f"fig{number}", 0.0),
                    )
    except BrokenPipeError:
        # Downstream pipe closed (e.g. `repro-analyze ds.csv | head`).
        status = 0
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(f"{args.dataset}.analysis.pstats")
    if observing:
        _flush_phase_timers(clock, telemetry)
    recorder.finish(
        n_paths=len(dataset.path_ids),
        n_traces=len(dataset.traces),
        n_epochs=len(dataset.epochs()),
        extras={
            "analysis": {
                "dataset": str(args.dataset),
                "figures": rendered,
                "skipped": skipped,
                "warm_planned": warm.planned,
                "warm_cached": warm.cached,
                "warm_computed": warm.computed,
                "workers": warm.workers,
            }
        },
    )
    if observing:
        manifest_path, events_path = analysis_sidecar_paths(dataset_path)
        write_manifest(recorder.manifest, recorder.events, manifest_path, events_path)
        print(f"telemetry -> {manifest_path}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
