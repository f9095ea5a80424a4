"""The HB warm phase of ``repro-analyze``: plan every walk, compute the rest.

The HB figures (16, 17, 19-23) spend nearly all their time inside
:func:`~repro.hb.evaluate.evaluate_predictor`, and every one of those
walks is a pure function of ``(trace series, predictor spec,
LsoConfig)``.  This module makes that explicit:

* :func:`plan_units` derives, from the requested figure numbers, the
  exact set of :class:`EvalUnit` evaluations the figure renderers will
  ask for — by instantiating the same factory helpers the renderers use
  (:func:`~repro.analysis.hb_eval.ma_family` and friends) and reducing
  them to cache specs with :func:`~repro.analysis.evalcache.derive_spec`;
* :func:`warm_eval_cache` opens the dataset's pack in the
  :class:`~repro.analysis.evalcache.EvaluationCache` (one read), builds
  and keys each unit's series, hands the units the pack does not hold to
  the campaign's engine (:func:`repro.testbed.executor.run_jobs`) as one
  job per trace, and writes the pack back with the new results (one
  write, only when something was computed).

A job walks each series of its trace (the main series, the W = 20 KB
series, each down-sampling) once, with every pending unit of that
series in the one pass of :func:`~repro.hb.evaluate.evaluate_predictors`:
units of one predictor spec share its walk, and LSO wrappers with equal
thresholds and Fig. 20's outlier exclusion share one LSO kernel.  The
results are those of one :func:`~repro.hb.evaluate.evaluate_predictor`
call per unit, bit for bit.

Each job carries the series the parent built to key its units, so no
worker reads the dataset file: what is computed is always what was
keyed.  The engine runs the jobs serially or over ``--workers N``
processes with the campaign's guarantees — retry with backoff
(:class:`~repro.testbed.executor.RetryPolicy` defaults), pool rebuilds,
degradation to serial, ``REPRO_FAULT_SPEC`` injection keyed by
``<path_id>/<trace>`` — and merges each trace's telemetry in planned
order under an ``analysis`` span, so counters like ``hb.level_shifts``,
the event stream and the span tree are identical at any worker count.
Its counters and events are the ``analysis.*`` twins of the campaign's
(``analysis.retries``, ``analysis.aborted``, ...).

The figure phase then runs unchanged with the cache activated: each
``evaluate_predictor`` call hits the warm entry, and the rendered
output is byte-identical to a serial, cache-less run (``make
analyze-parity`` proves this at workers 1, 2, and 4, and after a worker
crash).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby

from repro.analysis import hb_eval
from repro.analysis.evalcache import (
    EvaluationCache,
    PredictorSpec,
    derive_spec,
    evaluation_key,
    pack_key,
    spec_factory,
)
from repro.core.errors import DataError
from repro.core.timeseries import TimeSeries
from repro.hb.evaluate import HbEvaluation, evaluate_predictors
from repro.hb.lso import LsoConfig
from repro.paths.records import Dataset
from repro.testbed.executor import Unit, resolve_workers, run_jobs


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


#: One pending unit of a series: (its position in the trace's planned
#: walks, spec, lso).
_Walk = tuple[int, PredictorSpec, LsoConfig | None]


def _evaluate(series: TimeSeries, walks: list[_Walk]) -> list[HbEvaluation | None]:
    """One series' pending units, walked in one pass, in their order."""
    factories = {spec: spec_factory(spec) for _, spec, _ in walks}
    try:
        return evaluate_predictors(
            series, [(factories[spec], lso) for _, spec, lso in walks]
        )
    except DataError:
        # An invalid series reads as "nothing to warm" for every unit on
        # it; the figure phase surfaces the error through its own skip
        # handling, as it does for a unit voided alone.
        return [None] * len(walks)


def _walk_trace(_shared: None, unit: Unit) -> list[HbEvaluation | None]:
    """Engine work: compute one trace's pending walks, in planned order.

    The payload holds each series of the trace with its pending walks;
    each series is walked in one pass.  Never consults the active
    cache: the warm phase runs before activation, and workers install
    none.
    """
    results: list[HbEvaluation | None] = [None] * sum(
        len(walks) for _, walks in unit.payload
    )
    for series, walks in unit.payload:
        for (position, _, _), evaluation in zip(walks, _evaluate(series, walks)):
            results[position] = evaluation
    return results


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


def warm_eval_cache(
    dataset: Dataset,
    figures: list[int],
    cache: EvaluationCache,
    n_workers: int = 1,
) -> WarmStats:
    """Pre-compute every HB evaluation the requested figures need.

    Opens the dataset's pack (one read); units it holds are skipped
    (that is the warm-run win).  The rest go to the engine as one job per
    trace, carrying the series they were keyed by, and run serially or
    across ``n_workers`` processes (0 = all CPUs); their results are
    recorded in planned order and the pack is written back once.  The
    figure phase afterwards — run with the cache activated — only takes
    hits, so its output is byte-identical to a cache-less serial run.

    Raises:
        ExecutionError: when a trace's walks fail permanently (retries
            exhausted); the message names the trace, and nothing is
            written to the pack.
    """
    units = plan_units(dataset, figures)
    workers = resolve_workers(n_workers)
    cache.open_pack(pack_key(dataset))
    keys: list[str] = []  # of the walks still to compute, in planned order
    jobs: list[list[Unit]] = []
    cached = 0
    for ordinal, trace_units in groupby(units, key=lambda unit: unit.trace_ordinal):
        # A trace's units share a handful of series; build each once and
        # gather its pending walks for one pass.
        series_by_shape: dict[tuple[bool, int], TimeSeries | None] = {}
        walks_by_shape: dict[tuple[bool, int], list[_Walk]] = {}
        pending = 0
        for unit in trace_units:
            shape = (unit.small_window, unit.downsample)
            if shape not in series_by_shape:
                series_by_shape[shape] = _unit_series(dataset, unit)
            series = series_by_shape[shape]
            if series is None:
                continue
            key = evaluation_key(series, unit.spec, unit.lso)
            if cache.get(key) is not None:
                cached += 1
            else:
                keys.append(key)
                walks_by_shape.setdefault(shape, []).append(
                    (pending, unit.spec, unit.lso)
                )
                pending += 1
        if pending:
            trace = dataset.traces[ordinal]
            payload = tuple(
                (series_by_shape[shape], walks)
                for shape, walks in walks_by_shape.items()
            )
            jobs.append([Unit(trace.path_id, trace.trace_index, payload)])

    if jobs:
        results = run_jobs(
            "analysis",
            _walk_trace,
            None,
            jobs,
            n_workers=workers,
            traces=len(jobs),
            walks=len(keys),
        )
        # Release the walks' series before the pack write, the warm
        # phase's memory peak.
        del jobs
        for key, evaluation in zip(keys, chain.from_iterable(results)):
            if evaluation is not None:
                cache.put(key, evaluation)
        cache.save_pack()
    return WarmStats(
        planned=len(units), cached=cached, computed=len(keys), workers=workers
    )
