"""The walk-forward loop behind every HB evaluation.

:func:`vector_walk` walks fresh predictors over one trace in one pass —
each forecasts every epoch from the epochs before it, then absorbs its
sample — and :func:`vector_errors` turns one predictor's forecasts into
Eq. 4 errors in one array expression.  Every predictor takes the same
pass: the base families, :class:`~repro.hb.wrappers.LsoPredictor` over
any of them, and any user-defined
:class:`~repro.hb.base.HistoryPredictor`.  A predictor change therefore
lands in the predictor and nowhere else; there is no second
implementation to keep in step.

The LSO heuristics depend only on the trace, not on the predictor they
guard, so fresh LSO wrappers with equal thresholds follow one
:class:`~repro.hb.wrappers.KernelGroup`: every wrapper forecasts epoch
*i*, then the group's step (:meth:`~repro.hb.wrappers.KernelGroup.add`,
the step online serving takes too) feeds sample *i* to the kernel once
and lets every wrapper catch up, with the quarantine decision made once
per ``harden`` setting.  A wrapper's forecast reads only the kernel's
clean history and sorted mirror, the kernel's answers, and the
wrapper's own ``harden`` setting and base predictor, and every forecast
of epoch *i* is taken before the kernel adds sample *i*; so each
wrapper forecasts exactly what it would with a kernel of its own, bit
for bit.  The kernel's detections, and the ``hb.level_shifts`` /
``hb.outliers_discarded`` counters, are those of one kernel pass.  A
predictor that updates itself shares no state with the others, so it
walks the trace on its own, in the loop a single walk takes.

The loop is cheap because the predictors are: the base predictors
answer ``ready`` and ``forecast`` from their own counters, and the LSO
wrapper caches its readiness, so a pass costs O(1) amortised per epoch
and predictor.  The name is kept from the array walks this loop
replaced; the end-to-end benchmark reports the loop's time as
``hb.vector_walk``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.errors import DataError
from repro.hb.base import HistoryPredictor
from repro.hb.lso import LsoConfig, LsoKernel
from repro.hb.wrappers import KernelGroup, KernelWatcher, LsoPredictor


def vector_walk(
    values: np.ndarray,
    predictors: Sequence[HistoryPredictor],
    watchers: Mapping[LsoConfig, KernelWatcher] | None = None,
) -> list[np.ndarray]:
    """Per-epoch one-step forecasts of each predictor over a trace, in one pass.

    Args:
        values: the trace samples (already validated positive and finite).
        predictors: distinct fresh predictor instances; the walk feeds
            each every sample.  Fresh ``LsoPredictor`` instances (the
            exact type) with equal thresholds follow one shared kernel
            and are spent afterwards; every other predictor updates
            itself.
        watchers: per LSO config, a callable handed that config's kernel
            answer to every sample — the pass shares the kernel with the
            wrappers of that config, or runs one for the watcher alone.

    Returns:
        For each predictor, in order, the forecast of each epoch made
        from the epochs before it; NaN where the predictor was not ready.
    """
    n = len(values)
    rows = [[np.nan] * n for _ in predictors]
    #: config -> its kernel group and (wrapper, bound forecast, row) of
    #: each follower.
    shared: dict[LsoConfig, tuple[KernelGroup, list]] = {}

    def group_for(config: LsoConfig) -> tuple[KernelGroup, list]:
        entry = shared.get(config)
        if entry is None:
            entry = shared[config] = (KernelGroup(LsoKernel(config)), [])
        return entry

    own = []  # (predictor, row) of the predictors that update themselves
    for predictor, row in zip(predictors, rows):
        if type(predictor) is LsoPredictor and predictor.n_observed == 0:
            group, readers = group_for(predictor.config)
            group.join(predictor)
            readers.append((predictor, predictor.forecast, row))
        else:
            own.append((predictor, row))
    for config, watcher in (watchers or {}).items():
        group_for(config)[0].watchers.append(watcher)

    samples = values.tolist()
    for predictor, row in own:
        forecast = predictor.forecast
        update = predictor.update
        for i, value in enumerate(samples):
            if predictor.ready:
                row[i] = forecast()
            update(value)
    for group, readers in shared.values():
        add = group.add
        for i, value in enumerate(samples):
            # Every forecast of epoch i comes before the kernel takes
            # sample i.
            for predictor, forecast, row in readers:
                if predictor.ready:
                    row[i] = forecast()
            add(value)
    return [np.array(row, dtype=float) for row in rows]


def vector_errors(predictions: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-epoch relative errors (Eq. 4) for the forecast epochs.

    Element-wise ``(pred - actual) / min(pred, actual)`` — the same C
    double operations :func:`repro.core.metrics.relative_error` performs
    one epoch at a time.
    """
    errors = np.full(len(values), np.nan)
    mask = ~np.isnan(predictions)
    if not mask.any():
        return errors
    preds = predictions[mask]
    actuals = values[mask]
    nonpositive = preds <= 0
    if nonpositive.any():
        # Mirror relative_error's typed failure rather than emitting
        # garbage for a predictor that forecasts a non-positive value.
        k = int(np.flatnonzero(mask)[int(np.argmax(nonpositive))])
        raise DataError(
            f"relative error undefined for non-positive throughputs "
            f"(predicted={float(predictions[k])!r}, actual={float(values[k])!r})"
        )
    errors[mask] = (preds - actuals) / np.minimum(preds, actuals)
    return errors
