"""``repro-analyze``: regenerate the paper's figures from a saved dataset.

Every invocation is an observable run: telemetry from the prediction
pipeline (per-predictor timers/counters, LSO detections, per-figure
wall times) is recorded and written as ``X.analysis.manifest.json`` +
``X.analysis.events.jsonl`` sidecars next to the dataset — rendered by
``repro-obs summary`` and gated by ``repro-obs bench check``.  Set
``REPRO_OBS=0`` to disable telemetry (no sidecars are written).

The figures' renderers live in :mod:`repro.analysis.figures`
(``FIGURES``, ``UNITS`` and ``plan`` are reachable from here too).  The
HB figures run in two phases.  Each HB renderer declares next to itself
the units it reads (:class:`repro.analysis.evalcache.EvalUnit`: a
predictor's :class:`~repro.hb.spec.PredictorSpec`, a series shape and
an outlier exclusion); a **warm phase**
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
catalog; like the packs, nothing evicts them.

A run that exits 0 having written its whole stdout also keeps it there
as a report (``<key>.report.json``, about 10 KB; see
:mod:`repro.analysis.reportcache`), keyed on the file's bytes, the
``--figures`` list as given, every source file of the package and the
Python and numpy versions.  A rerun with the same key writes the stored
text and renders nothing: it imports neither numpy nor the renderers,
the warm phase or the columns entry.  ``--no-eval-cache`` reads and
writes no report, and neither does ``--profile``, whose run is the
analysis it profiles.  The manifest's ``analysis.loaded_from`` says
what served the run (``"report"``, ``"columns"`` or ``"csv"``).

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
import hashlib
import sys
from pathlib import Path

from repro import lazy_exports
from repro.analysis.reportcache import (
    ENV_EVAL_CACHE_DIR,
    Report,
    default_eval_cache_dir,
    read_report,
    report_key,
    write_report,
)
from repro.cli import store_dir_error
from repro.core.errors import DataError, ExecutionError, ReproError
from repro.core.workers import resolve_workers
from repro.obs import RunRecorder, get_telemetry
from repro.obs.recorder import analysis_sidecar_paths, write_manifest

# The renderers' table, their units and the warm phase's plan: imported
# on first use, which a run served from its report never makes.
_, __getattr__, __dir__ = lazy_exports(
    globals(), dict.fromkeys(["FIGURES", "UNITS", "plan"], "repro.analysis.figures")
)


class _HelpFormatter(argparse.HelpFormatter):
    """Names the available figures in ``--figures``'s help only when the
    help is printed, so building the parser imports no renderer."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        if action.dest != "figures":
            return action.help
        from repro.analysis.figures import FIGURES

        return f"{action.help} (available: {sorted(FIGURES)})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Regenerate the paper's figures from a saved campaign CSV.",
        formatter_class=_HelpFormatter,
    )
    parser.add_argument("dataset", help="CSV written by repro-campaign")
    parser.add_argument(
        "--figures",
        type=int,
        nargs="+",
        metavar="N",
        help="figure numbers to produce",
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
        help="do not read or write the persistent evaluation cache or a "
        "stored report (walks are still shared in-memory across this "
        "run's figures)",
    )
    parser.add_argument(
        "--eval-cache-dir",
        metavar="DIR",
        default=None,
        help="evaluation cache directory, holding one pack file of HB walks "
        "per dataset, one columns entry per distinct CSV and one report "
        "per run's inputs, never evicted "
        "(default: $REPRO_EVAL_CACHE_DIR or ~/.cache/repro/evals)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the analysis under cProfile and write the stats "
        "next to the dataset as DATASET.analysis.pstats (inspect with "
        "'python -m pstats'); a profiled run reads and writes no report",
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
        root = (
            Path(args.eval_cache_dir).expanduser()
            if args.eval_cache_dir is not None
            else default_eval_cache_dir()
        )
        if not args.no_eval_cache:
            # Made before anything is read: the columns entry is written
            # into it as the dataset loads.
            error = store_dir_error(
                root, "--eval-cache-dir", args.eval_cache_dir, ENV_EVAL_CACHE_DIR
            )
            if error:
                parser.error(error)
    except SystemExit as exc:
        # parse_args/parser.error exit; main() returns the status instead.
        return int(exc.code or 0)
    dataset_path = Path(args.dataset)

    telemetry = get_telemetry()
    observing = telemetry.enabled
    recorder = RunRecorder(
        label=dataset_path.name,
        kind="analysis",
        settings={
            "dataset": str(args.dataset),
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

    def load_error(exc: Exception) -> int:
        if profiler is not None:
            profiler.disable()
        reason = (exc.strerror or exc) if isinstance(exc, OSError) else exc
        print(f"error: cannot load dataset {args.dataset}: {reason}", file=sys.stderr)
        return 2

    try:
        data = dataset_path.read_bytes()
    except OSError as exc:
        return load_error(exc)
    # The sha256 of the bytes just read: the run's identity.
    digest = recorder.cache_key = hashlib.sha256(data).hexdigest()
    # A profiled run is the analysis it profiles: no report serves it.
    key = None if args.no_eval_cache or args.profile else report_key(digest, args.figures)
    report = None if key is None else read_report(root, key)

    def write_sidecars(
        counts: tuple[int, int, int], extras: dict | None = None
    ) -> Path | None:
        """Finish the run record with the dataset's path, trace and epoch
        ``counts``; write the sidecars when observing."""
        if observing:
            _flush_phase_timers(clock, telemetry)
        n_paths, n_traces, n_epochs = counts
        recorder.finish(
            n_paths=n_paths, n_traces=n_traces, n_epochs=n_epochs, extras=extras
        )
        if not observing:
            return None
        manifest_path, events_path = analysis_sidecar_paths(dataset_path)
        write_manifest(recorder.manifest, recorder.events, manifest_path, events_path)
        return manifest_path

    if report is not None:
        # Served from the report: nothing is loaded, walked or rendered.
        # A run that exited 0 rendered or skipped every figure it was
        # asked for, so those are every figure when none was given.
        clock.lap("load")
        recorder.settings["figures"] = args.figures or sorted(
            report.figures + report.skipped
        )
        loaded_from, status = "report", 0
        cached, computed = report.walks, 0
        workers = resolve_workers(args.workers)
        if report.planned:
            print(
                f"warm phase: 0 evaluations computed, {cached} cached, "
                f"workers={workers}",
                file=sys.stderr,
            )
        try:
            sys.stdout.write(report.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            pass
    else:
        from repro.analysis.evalcache import EvaluationCache
        from repro.analysis.figures import FIGURES, UNITS, plan
        from repro.analysis.parallel import warm_eval_cache

        cache = EvaluationCache(root, memory_only=args.no_eval_cache)
        try:
            loaded = cache.read_dataset(dataset_path, data, digest)
        except (DataError, UnicodeDecodeError) as exc:
            return load_error(exc)
        # The file's bytes are not needed past the load: keep them out of
        # the warm phase's memory peak.
        del data
        clock.lap("load")
        dataset = loaded.dataset
        counts = (len(dataset.path_ids), len(dataset.traces), dataset.n_epochs)
        wanted = recorder.settings["figures"] = args.figures or sorted(FIGURES)
        try:
            warm = warm_eval_cache(dataset, plan(wanted), cache, n_workers=args.workers)
        except ExecutionError as exc:
            # As in repro-campaign: the run is dead, but its telemetry (the
            # failures, retries, the analysis.aborted event) is still worth
            # a manifest.
            if profiler is not None:
                profiler.disable()
                profiler.dump_stats(f"{args.dataset}.analysis.pstats")
            write_sidecars(counts)
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
        loaded_from, cached, computed, workers = (
            loaded.loaded_from, warm.cached, warm.computed, warm.workers
        )

        # Each line is kept as it is printed, for the report.
        printed: list[str] = []

        def emit(text: str = "") -> None:
            printed.append(text + "\n")
            sys.stdout.write(printed[-1])

        status = 0
        complete = False
        rendered: list[int] = []
        skipped: list[int] = []
        try:
            emit(dataset.summary())
            for number in wanted:
                renderer = FIGURES.get(number)
                if renderer is None:
                    emit(f"\n[fig {number}] no renderer (available: {sorted(FIGURES)})")
                    status = 2
                    clock.lap(f"fig{number}")
                    telemetry.emit("figure", figure=number, status="unknown")
                    continue
                emit()
                try:
                    text = renderer(dataset, warm) if number in UNITS else renderer(dataset)
                except ReproError as exc:
                    emit(f"[fig {number}] not derivable from this dataset: {exc}")
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
                    emit(text)
                    clock.lap(f"fig{number}")
                    rendered.append(number)
                    telemetry.emit(
                        "figure",
                        figure=number,
                        status="ok",
                        wall_s=clock.phases.get(f"fig{number}", 0.0),
                    )
            sys.stdout.flush()
            complete = True
        except BrokenPipeError:
            # Downstream pipe closed (e.g. `repro-analyze ds.csv | head`).
            status = 0
        finally:
            if profiler is not None:
                profiler.disable()
                profiler.dump_stats(f"{args.dataset}.analysis.pstats")
        report = Report(
            "".join(printed),
            warm.planned,
            warm.cached + warm.computed,
            rendered,
            skipped,
            *counts,
        )
        if key is not None and status == 0 and complete:
            write_report(root, key, report)

    manifest_path = write_sidecars(
        (report.paths, report.traces, report.epochs),
        {
            "analysis": {
                "dataset": str(args.dataset),
                "loaded_from": loaded_from,
                "figures": report.figures,
                "skipped": report.skipped,
                "warm_planned": report.planned,
                "warm_cached": cached,
                "warm_computed": computed,
                "workers": workers,
            }
        },
    )
    if manifest_path is not None:
        print(f"telemetry -> {manifest_path}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
