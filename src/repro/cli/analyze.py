"""``repro-analyze``: regenerate the paper's figures from a saved dataset.

Every invocation is an observable run: telemetry from the prediction
pipeline (per-predictor timers/counters, LSO detections, per-figure
wall times) is recorded and written as ``X.analysis.manifest.json`` +
``X.analysis.events.jsonl`` sidecars next to the dataset — rendered by
``repro-obs summary`` and gated by ``repro-obs bench check``.  Set
``REPRO_OBS=0`` to disable telemetry (no sidecars are written).

The HB figures run in two phases.  Each HB renderer declares next to
itself the units it reads (:func:`repro.analysis.hb_eval.unit`: a
predictor, a series shape and an outlier exclusion); a **warm phase**
walks the union of the requested figures' units — one job per trace on
the campaign's fault-tolerant engine, optionally over ``--workers N``
processes — and the renderers then read the walks by unit, walking
nothing themselves.  The walks persist in an evaluation cache
(``~/.cache/repro/evals``, see :mod:`repro.analysis.evalcache`) as one
pack file per dataset, keyed on the dataset's trace contents and the
source of the code that computes them: the warm phase reads the pack
once, and writes it once only when it computed something.  Rendered
output is byte-identical whatever the worker count or cache state
(``make analyze-parity`` checks this).

The dataset file is read once.  The same directory keeps one columns
entry per distinct CSV (``<key>.columns.npz``, keyed on the file's
bytes and the parser's source): a rerun on the same file reads the
dataset's columns from it instead of parsing the CSV text.  An entry is
0.55 MB for the benchmark's 35 x 150 epochs and 3.81 MB for the full
catalog; like the packs, nothing evicts them.  The manifest's
``analysis.loaded_from`` says which was read (``"columns"`` or
``"csv"``).

A dataset that is missing or malformed exits with status 2 and one
line naming the file; no sidecars are written.  So does an evaluation
cache directory that cannot be made, before anything is read.  A
warm-phase job that still fails after its retries exits with status 1
and one ``analysis aborted:`` line naming the trace; the sidecars are
written, with the ``analysis.aborted`` event.

Examples::

    repro-analyze may.csv                      # every applicable figure
    repro-analyze may.csv --figures 2 19 20    # a subset
    repro-analyze may.csv --workers 4          # parallel warm phase
    repro-analyze march.csv --figures 11
    repro-obs summary may.analysis.manifest.json
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from pathlib import Path

from repro.analysis import fb_eval, hb_eval
from repro.analysis.evalcache import (
    ENV_EVAL_CACHE_DIR,
    EvalUnit,
    EvaluationCache,
    UnitResults,
)
from repro.analysis.parallel import warm_eval_cache
from repro.analysis.report import (
    render_bar_table,
    render_cdf_table,
    render_quantile_table,
    render_scatter_summary,
)
from repro.cli import store_dir_error
from repro.core.errors import DataError, ExecutionError, ReproError
from repro.obs import RunRecorder, get_telemetry
from repro.obs.recorder import analysis_sidecar_paths, write_manifest
from repro.paths.records import Dataset

#: figure number -> its renderer.  An FB renderer takes the dataset; an
#: HB renderer also takes the walks it reads, by unit, and walks its
#: units in memory when called with the dataset alone.
FIGURES: dict[int, Callable[..., str]] = {}

#: figure number -> the units its HB renderer reads, declared with it.
#: The warm phase walks the union of the requested figures' units.
UNITS: dict[int, tuple[EvalUnit, ...]] = {}


def _figure(number: int, *units: EvalUnit):
    """Register the decorated renderer as figure ``number``'s, reading ``units``."""

    def register(renderer: Callable[..., str]) -> Callable[..., str]:
        FIGURES[number] = renderer
        if units:
            UNITS[number] = units
        return renderer

    return register


def plan(figures: list[int]) -> tuple[EvalUnit, ...]:
    """The units the warm phase walks for ``figures``: the union of their
    renderers' units, each once, in figure then declaration order."""
    return tuple(
        dict.fromkeys(unit for number in figures for unit in UNITS.get(number, ()))
    )


#: The HB predictor of every HB figure but 16, 17 and 21.
_HW_LSO = hb_eval.with_lso(hb_eval.hw())


@_figure(2)
def _fig2(ds: Dataset) -> str:
    cdfs = fb_eval.error_cdfs(ds)
    return render_cdf_table(
        {"all": cdfs.all, "lossy": cdfs.lossy, "lossless": cdfs.lossless},
        thresholds=(-1.0, 0.0, 1.0, 2.0, 5.0, 9.0),
        title="Fig. 2: FB error CDFs",
    ) + "\n" + cdfs.summary()


@_figure(3)
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


@_figure(6)
def _fig6(ds: Dataset) -> str:
    comp = fb_eval.during_flow_prediction(ds)
    return render_cdf_table(
        {"prior": comp.with_prior, "during": comp.with_during},
        thresholds=(-3.0, -1.0, 0.0, 1.0, 3.0),
        title="Fig. 6: prior vs during-flow inputs",
    )


@_figure(7)
def _fig7(ds: Dataset) -> str:
    rows = [
        (s.path_id, {"p10": s.p10, "median": s.median, "p90": s.p90})
        for s in fb_eval.per_path_percentiles(ds)
    ]
    return render_bar_table(rows, title="Fig. 7: per-path FB error", value_format="{:+.2f}")


@_figure(8)
def _fig8(ds: Dataset) -> str:
    sc = fb_eval.throughput_vs_error(ds)
    return "Fig. 8: R vs E\n" + render_scatter_summary(sc.x, sc.errors, "R", "E")


@_figure(11)
def _fig11(ds: Dataset) -> str:
    effect = fb_eval.duration_effect(ds)
    return render_cdf_table(
        effect.cdfs, thresholds=(-1.0, 0.0, 1.0, 3.0), title="Fig. 11: duration cuts"
    )


@_figure(12)
def _fig12(ds: Dataset) -> str:
    rows = [
        (c.path_id, {"W=1MB": c.rmsre_large_window, "W=20KB": c.rmsre_small_window})
        for c in fb_eval.window_limited(ds)
        if c.window_limited
    ]
    return render_bar_table(rows, title="Fig. 12: FB RMSRE by window")


@_figure(16, *map(hb_eval.unit, hb_eval.ma_family().values()))
def _fig16(ds: Dataset, results: UnitResults | None = None) -> str:
    cdfs = hb_eval.predictor_cdfs(ds, hb_eval.ma_family(), results)
    return render_quantile_table(cdfs, title="Fig. 16: MA family RMSRE")


@_figure(17, *map(hb_eval.unit, hb_eval.hw_family().values()))
def _fig17(ds: Dataset, results: UnitResults | None = None) -> str:
    cdfs = hb_eval.predictor_cdfs(ds, hb_eval.hw_family(), results)
    return render_quantile_table(cdfs, title="Fig. 17: HW family RMSRE")


@_figure(19, hb_eval.unit(_HW_LSO))
def _fig19(ds: Dataset, results: UnitResults | None = None) -> str:
    comp = hb_eval.fb_vs_hb(ds, _HW_LSO, results)
    return (
        render_quantile_table(
            {"FB": comp.fb, "HB": comp.hb}, title="Fig. 19: FB vs HB RMSRE"
        )
        + "\n"
        + comp.summary()
    )


@_figure(20, hb_eval.unit(_HW_LSO, exclusion=hb_eval.FIG20_EXCLUSION))
def _fig20(ds: Dataset, results: UnitResults | None = None) -> str:
    rel = hb_eval.cov_correlation(ds, _HW_LSO, results)
    return (
        "Fig. 20: CoV vs RMSRE\n"
        + render_scatter_summary(rel.covs, rel.rmsres, "CoV", "RMSRE")
        + f"\ncorrelation: {rel.correlation():.2f}"
    )


@_figure(21, *map(hb_eval.unit, hb_eval.FIG21_PREDICTORS.values()))
def _fig21(ds: Dataset, results: UnitResults | None = None) -> str:
    rows = [
        (
            f"{c.path_id} [{c.label}]",
            {n: sum(v) / len(v) for n, v in c.rmsres_by_predictor.items()},
        )
        for c in hb_eval.path_classes(ds, hb_eval.FIG21_PREDICTORS, results)
    ]
    return render_bar_table(rows, title="Fig. 21: path classes")


@_figure(22, hb_eval.unit(_HW_LSO), hb_eval.unit(_HW_LSO, small_window=True))
def _fig22(ds: Dataset, results: UnitResults | None = None) -> str:
    rows = [
        (c.path_id, {"W=1MB": c.rmsre_large_window, "W=20KB": c.rmsre_small_window})
        for c in hb_eval.window_limited_hb(ds, _HW_LSO, results)
    ]
    return render_bar_table(rows, title="Fig. 22: HB RMSRE by window")


@_figure(
    23,
    *(hb_eval.unit(_HW_LSO, downsample=f) for f in hb_eval.INTERVALS.values()),
)
def _fig23(ds: Dataset, results: UnitResults | None = None) -> str:
    cdfs = hb_eval.interval_effect(ds, hb_eval.INTERVALS, _HW_LSO, results)
    return render_quantile_table(cdfs, title="Fig. 23: transfer intervals")


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
        help="evaluation cache directory, holding one pack file of HB walks "
        "per dataset and one columns entry per distinct CSV, never evicted "
        "(default: $REPRO_EVAL_CACHE_DIR or ~/.cache/repro/evals)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the analysis under cProfile and write the stats "
        "next to the dataset as DATASET.analysis.pstats (inspect with "
        "'python -m pstats')",
    )
    return parser


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cache = EvaluationCache(args.eval_cache_dir, memory_only=args.no_eval_cache)
        if not cache.memory_only:
            # Made before anything is read: the columns entry is written
            # into it as the dataset loads.
            error = store_dir_error(
                cache.root, "--eval-cache-dir", args.eval_cache_dir, ENV_EVAL_CACHE_DIR
            )
            if error:
                parser.error(error)
    except SystemExit as exc:
        # parse_args/parser.error exit; main() returns the status instead.
        return int(exc.code or 0)
    dataset_path = Path(args.dataset)
    wanted = args.figures or sorted(FIGURES)

    telemetry = get_telemetry()
    observing = telemetry.enabled
    recorder = RunRecorder(
        label=dataset_path.name,
        kind="analysis",
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

    try:
        loaded = cache.read_dataset(args.dataset)
    except (DataError, OSError, UnicodeDecodeError) as exc:
        if profiler is not None:
            profiler.disable()
        reason = (exc.strerror or exc) if isinstance(exc, OSError) else exc
        print(f"error: cannot load dataset {args.dataset}: {reason}", file=sys.stderr)
        return 2
    clock.lap("load")
    dataset = loaded.dataset
    # The sha256 of the bytes just parsed or looked up: the run's identity.
    recorder.cache_key = loaded.digest

    def write_sidecars(extras: dict | None = None) -> Path | None:
        """Finish the run record; write the sidecars when observing."""
        if observing:
            _flush_phase_timers(clock, telemetry)
        recorder.finish(
            n_paths=len(dataset.path_ids),
            n_traces=len(dataset.traces),
            n_epochs=dataset.n_epochs,
            extras=extras,
        )
        if not observing:
            return None
        manifest_path, events_path = analysis_sidecar_paths(dataset_path)
        write_manifest(recorder.manifest, recorder.events, manifest_path, events_path)
        return manifest_path

    try:
        warm = warm_eval_cache(dataset, plan(wanted), cache, n_workers=args.workers)
    except ExecutionError as exc:
        # As in repro-campaign: the run is dead, but its telemetry (the
        # failures, retries, the analysis.aborted event) is still worth
        # a manifest.
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(f"{args.dataset}.analysis.pstats")
        write_sidecars()
        print(f"analysis aborted: {exc}", file=sys.stderr)
        return 1
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
        print(dataset.summary())
        for number in wanted:
            renderer = FIGURES.get(number)
            if renderer is None:
                print(f"\n[fig {number}] no renderer (available: {sorted(FIGURES)})")
                status = 2
                clock.lap(f"fig{number}")
                telemetry.emit("figure", figure=number, status="unknown")
                continue
            print()
            try:
                print(renderer(dataset, warm) if number in UNITS else renderer(dataset))
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
    manifest_path = write_sidecars(
        {
            "analysis": {
                "dataset": str(args.dataset),
                "loaded_from": loaded.loaded_from,
                "figures": rendered,
                "skipped": skipped,
                "warm_planned": warm.planned,
                "warm_cached": warm.cached,
                "warm_computed": warm.computed,
                "workers": warm.workers,
            }
        }
    )
    if manifest_path is not None:
        print(f"telemetry -> {manifest_path}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
