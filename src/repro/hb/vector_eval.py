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
guard, so fresh LSO wrappers with equal thresholds share one
:class:`~repro.hb.lso.LsoKernel`: the kernel takes each sample once, and
every wrapper catches up from its answer
(:meth:`~repro.hb.wrappers.LsoPredictor.catch_up`), with the quarantine
decision made once per ``harden`` setting.  A wrapper's forecast reads
only the kernel's clean history and sorted mirror, the kernel's answers,
and the wrapper's own ``harden`` setting and base predictor, and every
forecast of epoch *i* is taken before the kernel adds sample *i*; so
each wrapper forecasts exactly what it would with a kernel of its own,
bit for bit.  The kernel's detections, and the ``hb.level_shifts`` /
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

from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro.core.errors import DataError
from repro.hb.base import HistoryPredictor
from repro.hb.lso import LsoConfig, LsoKernel
from repro.hb.wrappers import LsoPredictor, feed_target

#: Called with a kernel's answer to each sample, ``(outliers, shift)``.
KernelWatcher = Callable[[list[int], "int | None"], None]


class _SharedKernel:
    """One kernel of a pass and everything that reads it."""

    __slots__ = ("kernel", "readers", "catch_ups", "watchers")

    def __init__(self, config: LsoConfig) -> None:
        self.kernel = LsoKernel(config)
        #: (wrapper, its bound forecast, its forecast row) of each follower.
        self.readers: list[tuple[LsoPredictor, Callable[[], float], list]] = []
        #: harden setting -> the bound catch_up of each follower with it.
        self.catch_ups: dict[bool, list[Callable]] = {}
        self.watchers: list[KernelWatcher] = []


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
    shared: dict[LsoConfig, _SharedKernel] = {}

    def kernel_for(config: LsoConfig) -> _SharedKernel:
        group = shared.get(config)
        if group is None:
            group = shared[config] = _SharedKernel(config)
        return group

    own = []  # (predictor, row) of the predictors that update themselves
    for predictor, row in zip(predictors, rows):
        if type(predictor) is LsoPredictor and predictor.n_observed == 0:
            group = kernel_for(predictor.config)
            predictor.follow(group.kernel)
            group.readers.append((predictor, predictor.forecast, row))
            group.catch_ups.setdefault(predictor.harden, []).append(predictor.catch_up)
        else:
            own.append((predictor, row))
    for config, watcher in (watchers or {}).items():
        kernel_for(config).watchers.append(watcher)

    samples = values.tolist()
    for predictor, row in own:
        forecast = predictor.forecast
        update = predictor.update
        for i, value in enumerate(samples):
            if predictor.ready:
                row[i] = forecast()
            update(value)
    for group in shared.values():
        kernel = group.kernel
        add = kernel.add
        readers = group.readers
        catch_ups = list(group.catch_ups.items())
        kernel_watchers = group.watchers
        for i, value in enumerate(samples):
            # Every forecast of epoch i comes before the kernel takes
            # sample i.
            for predictor, forecast, row in readers:
                if predictor.ready:
                    row[i] = forecast()
            outliers, shift = add(value)
            for harden, wrappers in catch_ups:
                target = feed_target(kernel, harden)
                for catch_up in wrappers:
                    catch_up(outliers, shift, target)
            for watcher in kernel_watchers:
                watcher(outliers, shift)
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
