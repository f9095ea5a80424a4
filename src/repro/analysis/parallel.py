"""Parallel warm-up of the HB evaluation cache for ``repro-analyze``.

The HB figures (16, 17, 19-23) spend nearly all their time inside
:func:`~repro.hb.evaluate.evaluate_predictor`, and every one of those
walks is a pure function of ``(trace series, predictor spec,
LsoConfig)`` — the same independence the campaign executor exploits for
simulation.  This module makes that explicit:

* :func:`plan_units` derives, from the requested figure numbers, the
  exact set of :class:`EvalUnit` evaluations the figure renderers will
  ask for — by instantiating the same factory helpers the renderers use
  (:func:`~repro.analysis.hb_eval.ma_family` and friends) and reducing
  them to cache specs with :func:`~repro.analysis.evalcache.derive_spec`;
* :func:`warm_eval_cache` executes the units that are not already
  cached — serially, or fanned out per trace over a
  ``ProcessPoolExecutor`` (``--workers N``) — and records every result
  in the :class:`~repro.analysis.evalcache.EvaluationCache`.

The figure phase then runs unchanged with the cache activated: each
``evaluate_predictor`` call hits the warm entry, and the rendered
output is byte-identical to a serial, cache-less run (``make
analyze-parity`` proves this at workers 1, 2, and 4).

Telemetry determinism follows the campaign executor's discipline:
worker collectors are drained per unit, shipped back with the result,
and merged in planned-unit order — so counters like
``hb.level_shifts`` and the event stream are identical whatever the
worker count or scheduling.  A worker-pool failure
(``BrokenProcessPool``) degrades to in-process execution of the
remaining units rather than failing the analysis.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.analysis import hb_eval
from repro.analysis.evalcache import (
    EvaluationCache,
    PredictorSpec,
    derive_spec,
    evaluation_key,
    spec_factory,
)
from repro.core.errors import DataError
from repro.core.timeseries import TimeSeries
from repro.hb.evaluate import HbEvaluation, evaluate_predictor
from repro.hb.lso import LsoConfig
from repro.obs import get_telemetry
from repro.paths.records import Dataset
from repro.testbed.executor import resolve_workers


@dataclass(frozen=True)
class EvalUnit:
    """One independent HB evaluation a figure will need.

    Attributes:
        trace_ordinal: index of the trace in ``dataset.traces``.
        small_window: evaluate the W=20 KB companion series (Fig. 22).
        downsample: keep every n-th sample first (Fig. 23); 1 = none.
        spec: the predictor spec (see :func:`derive_spec`).
        lso: LSO config for outlier exclusion, or ``None``.
    """

    trace_ordinal: int
    small_window: bool
    downsample: int
    spec: PredictorSpec
    lso: LsoConfig | None


#: (small_window, downsample, lso_config) shape of a unit; the specs
#: come from the figure's factory set.
_Shape = tuple[bool, int, LsoConfig | None]


def _spec_of(factory) -> PredictorSpec:
    spec = derive_spec(factory())
    assert spec is not None, "figure factories are registered families"
    return spec


def _figure_combos(figures: list[int]) -> list[tuple[PredictorSpec, _Shape]]:
    """The (spec, shape) combinations the requested figures evaluate.

    Mirrors the renderers in :mod:`repro.cli.analyze` figure by figure;
    a figure with no HB walks contributes nothing.  Order is stable and
    duplicates are dropped so the unit plan is deterministic.
    """
    combos: dict[tuple[PredictorSpec, _Shape], None] = {}

    def add(factory, small_window=False, downsample=1, lso=None) -> None:
        combos[(_spec_of(factory), (small_window, downsample, lso))] = None

    hw_lso = hb_eval.with_lso(hb_eval.hw())
    for number in figures:
        if number == 16:
            for factory in hb_eval.ma_family().values():
                add(factory)
        elif number == 17:
            for factory in hb_eval.hw_family().values():
                add(factory)
        elif number == 19:
            add(hw_lso)
        elif number == 20:
            add(hw_lso, lso=LsoConfig())
        elif number == 21:
            for factory in hb_eval.FIG21_PREDICTORS.values():
                add(factory)
        elif number == 22:
            add(hw_lso)
            add(hw_lso, small_window=True)
        elif number == 23:
            for factor in (1, 2, 8, 15):
                add(hw_lso, downsample=factor)
    return list(combos)


def plan_units(dataset: Dataset, figures: list[int]) -> list[EvalUnit]:
    """Every HB evaluation the requested figures will perform.

    Trace-major order: all of one trace's units are adjacent, so
    parallel jobs (one per trace) and the serial path walk the same
    sequence — which is also the telemetry merge order.
    """
    combos = _figure_combos(figures)
    units: list[EvalUnit] = []
    for ordinal in range(len(dataset.traces)):
        for spec, (small_window, downsample, lso) in combos:
            units.append(
                EvalUnit(
                    trace_ordinal=ordinal,
                    small_window=small_window,
                    downsample=downsample,
                    spec=spec,
                    lso=lso,
                )
            )
    return units


def _unit_series(dataset: Dataset, unit: EvalUnit) -> TimeSeries | None:
    """The series a unit evaluates, or ``None`` when the trace lacks it
    (e.g. no small-window measurements — the renderer skips it too)."""
    trace = dataset.traces[unit.trace_ordinal]
    try:
        series = trace.throughput_series(small_window=unit.small_window)
    except DataError:
        return None
    if unit.downsample > 1:
        series = series.downsample(unit.downsample)
    return series


def _evaluate_unit(dataset: Dataset, unit: EvalUnit) -> HbEvaluation | None:
    """Compute one unit fresh (never consults the active cache — the
    warm phase runs before activation, and workers install none)."""
    series = _unit_series(dataset, unit)
    if series is None:
        return None
    try:
        return evaluate_predictor(series, spec_factory(unit.spec), lso_config=unit.lso)
    except DataError:
        # An undevaluable series reads as "nothing to warm"; the figure
        # phase surfaces the error through its own skip handling.
        return None


@dataclass(frozen=True)
class WarmStats:
    """What one :func:`warm_eval_cache` pass did.

    Attributes:
        planned: units the requested figures will evaluate.
        cached: units already present in the cache (skipped).
        computed: units evaluated and recorded this pass.
        workers: resolved worker count used for the computed units.
    """

    planned: int
    cached: int
    computed: int
    workers: int


# ---------------------------------------------------------------------
# Worker-process side
# ---------------------------------------------------------------------

_WORKER_DATASET: Dataset | None = None


def _init_worker(dataset_path: str) -> None:
    """Pool initializer: load the dataset once per worker process."""
    global _WORKER_DATASET
    from repro.testbed.io import load_dataset

    _WORKER_DATASET = load_dataset(dataset_path)
    get_telemetry().drain()


def _run_trace_job(
    units: tuple[EvalUnit, ...]
) -> list[tuple[HbEvaluation | None, dict]]:
    """Worker entry point: evaluate one trace's pending units.

    Telemetry is drained per unit so the parent can merge snapshots in
    planned-unit order regardless of how jobs landed on workers.
    """
    assert _WORKER_DATASET is not None, "pool initializer did not run"
    telemetry = get_telemetry()
    telemetry.drain()  # leftovers from a failed prior job in this worker
    results = []
    for unit in units:
        evaluation = _evaluate_unit(_WORKER_DATASET, unit)
        results.append((evaluation, telemetry.drain()))
    return results


# ---------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------


def _record(
    cache: EvaluationCache, dataset: Dataset, unit: EvalUnit, evaluation: HbEvaluation
) -> None:
    series = _unit_series(dataset, unit)
    assert series is not None  # an evaluation exists, so the series did
    cache.put(evaluation_key(series, unit.spec, unit.lso), evaluation)


def warm_eval_cache(
    dataset: Dataset,
    dataset_path: str,
    figures: list[int],
    cache: EvaluationCache,
    n_workers: int = 1,
) -> WarmStats:
    """Pre-compute every HB evaluation the requested figures need.

    Units already in ``cache`` are skipped (that is the warm-run win);
    the rest run serially or across ``n_workers`` processes (0 = all
    CPUs), with results recorded into the cache and worker telemetry
    merged in planned-unit order.  The figure phase afterwards — run
    with the cache activated — only takes hits, so its output is
    byte-identical to a cache-less serial run.
    """
    units = plan_units(dataset, figures)
    pending: list[EvalUnit] = []
    cached = 0
    for unit in units:
        series = _unit_series(dataset, unit)
        if series is None:
            continue
        if cache.get(evaluation_key(series, unit.spec, unit.lso)) is not None:
            cached += 1
            continue
        pending.append(unit)

    workers = resolve_workers(n_workers)
    if pending:
        if workers > 1 and len({u.trace_ordinal for u in pending}) > 1:
            _warm_parallel(dataset, dataset_path, pending, cache, workers)
        else:
            for unit in pending:
                evaluation = _evaluate_unit(dataset, unit)
                if evaluation is not None:
                    _record(cache, dataset, unit, evaluation)
    return WarmStats(
        planned=len(units), cached=cached, computed=len(pending), workers=workers
    )


def _warm_parallel(
    dataset: Dataset,
    dataset_path: str,
    pending: list[EvalUnit],
    cache: EvaluationCache,
    workers: int,
) -> None:
    """Fan pending units out per trace; merge results in planned order."""
    jobs: dict[int, list[EvalUnit]] = {}
    for unit in pending:
        jobs.setdefault(unit.trace_ordinal, []).append(unit)

    telemetry = get_telemetry()
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(str(dataset_path),),
        ) as pool:
            futures = [
                pool.submit(_run_trace_job, tuple(job_units))
                for job_units in jobs.values()
            ]
            # Collect in submission (= trace) order; nothing is merged
            # or recorded until every job has finished, so a pool crash
            # below leaves no partial state behind.
            job_results = [future.result() for future in futures]
    except BrokenProcessPool:
        telemetry.counter("analysis.pool_fallback").inc()
        telemetry.emit("analysis.pool_fallback", pending=len(pending))
        for unit in pending:
            evaluation = _evaluate_unit(dataset, unit)
            if evaluation is not None:
                _record(cache, dataset, unit, evaluation)
        return

    for job_units, results in zip(jobs.values(), job_results):
        for unit, (evaluation, snapshot) in zip(job_units, results):
            telemetry.merge(snapshot)
            if evaluation is not None:
                _record(cache, dataset, unit, evaluation)
