"""The HB warm phase of ``repro-analyze``: walk every planned unit once.

The HB figures (16, 17, 19-23) read per-trace walk-forward evaluations,
each named by an :class:`~repro.analysis.evalcache.EvalUnit` that the
figure's renderer declares next to itself (``repro.cli.analyze``); the
plan is the union of the requested figures' units.
:func:`warm_eval_cache` opens the dataset's pack in the
:class:`~repro.analysis.evalcache.EvaluationCache` (one read), takes
every unit-trace walk the pack holds, hands the rest to the campaign's
engine (:func:`repro.testbed.executor.run_jobs`) as one job per trace,
and writes the pack back with the new walks (one write, only when
something was computed).  It returns the
:class:`~repro.analysis.evalcache.UnitResults` the renderers read, so
the figure phase walks nothing and looks nothing up by content.

A job walks each series of its trace (the main series, the W = 20 KB
series, each down-sampling) once, with every pending unit of that
series in the one pass of :func:`~repro.analysis.evalcache.walk_series`
— the pass a figure rendered from the dataset alone runs too
(:func:`~repro.analysis.evalcache.evaluate_units`): units of one
predictor share its walk, and LSO wrappers with equal thresholds and
Fig. 20's outlier exclusion share one LSO kernel.  The results are
those of one :func:`~repro.hb.evaluate.evaluate_predictor` call per
unit, bit for bit.

Each job carries the series the parent built for its units, so no
worker reads the dataset file: what is computed is always what the
pack key covers.  The engine runs the jobs serially or over
``--workers N`` processes with the campaign's guarantees — retry with
backoff (:class:`~repro.testbed.campaign.RetryPolicy` defaults), pool
rebuilds, degradation to serial, ``REPRO_FAULT_SPEC`` injection keyed
by ``<path_id>/<trace>`` — and merges each trace's telemetry in planned
order under an ``analysis`` span, so counters like ``hb.level_shifts``,
the event stream and the span tree are identical at any worker count.
Its counters and events are the ``analysis.*`` twins of the campaign's
(``analysis.retries``, ``analysis.aborted``, ...).  Rendered output is
byte-identical whatever the worker count or cache state (``make
analyze-parity`` proves this at workers 1, 2, and 4, and after a worker
crash).
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain
from typing import TYPE_CHECKING

from repro.analysis.evalcache import (
    EvalUnit,
    EvaluationCache,
    UnitResult,
    UnitResults,
    entry_key,
    pack_key,
    series_groups,
    walk_series,
)
from repro.core.errors import ConfigurationError, DataError
from repro.core.workers import resolve_workers
from repro.obs import get_telemetry
from repro.paths.records import Dataset

if TYPE_CHECKING:  # pragma: no cover - types only: a cached run loads no engine
    from repro.testbed.executor import Unit


def _walk_trace(_shared: None, unit: Unit) -> list[UnitResult]:
    """Engine work: one trace's pending walks, series group by series group.

    The payload holds each series of the trace with the units to walk
    over it; each series is walked in one pass.
    """
    return [
        result for series, units in unit.payload for result in walk_series(series, units)
    ]


def warm_eval_cache(
    dataset: Dataset,
    units: Iterable[EvalUnit],
    cache: EvaluationCache,
    n_workers: int = 1,
) -> UnitResults:
    """Every unit's walk over every trace of ``dataset``, by unit.

    Opens the dataset's pack (one read); walks it holds are taken as
    they are (that is the warm-run win).  The rest go to the engine as
    one job per trace, carrying the series they walk, and run serially
    or across ``n_workers`` processes (0 = all CPUs); their results are
    added to the pack in planned order (trace by trace, each trace's in
    the order of ``units``) and the pack is written back once.  A series
    a trace lacks (no W = 20 KB samples) is walked by no unit: its units
    hold the error building it raised.  ``evalcache.hits`` counts the
    walks taken from the pack, ``evalcache.misses`` those walked.

    Raises:
        ConfigurationError: for a unit whose predictor is not named by a
            spec (see :func:`~repro.analysis.evalcache.derive_spec`),
            which a pack cannot keep.
        ExecutionError: when a trace's walks fail permanently (retries
            exhausted); the message names the trace, and nothing is
            written to the pack.
    """
    units = tuple(dict.fromkeys(units))
    for unit in units:
        if not unit.spec_named:
            raise ConfigurationError(
                f"the warm phase walks registered predictor families only, not {unit!r}"
            )
    workers = resolve_workers(n_workers)
    cache.open_pack(pack_key(dataset))
    rows: list[list[UnitResult | None]] = []  # per trace, per unit
    todo: list[tuple[int, int]] = []  # (trace, unit position) of each walk, in job order
    jobs: list[tuple[str, int, tuple]] = []  # one (path, trace, payload) per trace
    cached = 0
    for ordinal, trace in enumerate(dataset.traces):
        row: list[UnitResult | None] = [None] * len(units)
        rows.append(row)
        pending = []
        for position, unit in enumerate(units):
            evaluation = cache.get(entry_key(ordinal, trace, unit))
            if evaluation is not None:
                row[position] = evaluation
                cached += 1
            else:
                pending.append(position)
        if not pending:
            continue
        payload = []
        for series, group in series_groups(trace, [units[k] for k in pending]):
            positions = [pending[k] for k in group]
            if isinstance(series, DataError):
                for position in positions:
                    row[position] = series
                continue
            payload.append((series, tuple(units[k] for k in positions)))
            todo.extend((ordinal, position) for position in positions)
        if payload:
            jobs.append((trace.path_id, trace.trace_index, tuple(payload)))

    telemetry = get_telemetry()
    telemetry.counter("evalcache.hits").inc(cached)
    telemetry.counter("evalcache.misses").inc(len(todo))
    if jobs:
        # Only a run with walks to compute loads the engine.
        from repro.testbed.executor import Unit, run_jobs

        walked = run_jobs(
            "analysis",
            _walk_trace,
            None,
            [[Unit(*job)] for job in jobs],
            n_workers=workers,
            traces=len(jobs),
            walks=len(todo),
        )
        # Release the walks' series before the pack write, the warm
        # phase's memory peak.
        del jobs
        for (ordinal, position), result in zip(todo, chain.from_iterable(walked)):
            rows[ordinal][position] = result
        for ordinal, position in sorted(todo):
            result = rows[ordinal][position]
            if not isinstance(result, DataError):
                trace = dataset.traces[ordinal]
                cache.put(entry_key(ordinal, trace, units[position]), result)
        cache.save_pack()
    results = UnitResults(
        (unit, tuple(row[position] for row in rows))
        for position, unit in enumerate(units)
    )
    results.planned = len(units) * len(rows)
    results.cached = cached
    results.computed = len(todo)
    results.workers = workers
    return results
