"""The walk-forward loop behind every HB evaluation.

:func:`vector_walk` runs one fresh predictor over one trace — forecast
the epoch, then absorb its sample — and :func:`vector_errors` turns the
forecasts into Eq. 4 errors in one array expression.  Every predictor
takes the same loop: the base families, :class:`~repro.hb.wrappers.
LsoPredictor` over any of them, and any user-defined
:class:`~repro.hb.base.HistoryPredictor`.  A predictor change therefore
lands in the predictor and nowhere else; there is no second
implementation to keep in step.

The loop is cheap because the predictors are: the base predictors
answer ``ready`` and ``forecast`` from their own counters, and the LSO
wrapper caches its readiness and runs the incremental LSO kernel
(:class:`~repro.hb.lso.LsoKernel`), so a walk costs O(1) amortised per
epoch.  The name is kept from the array walks this loop replaced; the
end-to-end benchmark reports the loop's time as ``hb.vector_walk``.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import DataError
from repro.hb.base import HistoryPredictor


def vector_walk(values: np.ndarray, predictor: HistoryPredictor) -> np.ndarray:
    """Per-epoch one-step forecasts of ``predictor`` over a trace.

    Args:
        values: the trace samples (already validated positive and finite).
        predictor: a fresh predictor instance; the walk feeds it every
            sample.

    Returns:
        The forecast of each epoch made from the epochs before it; NaN
        where the predictor was not ready.
    """
    predictions = [np.nan] * len(values)
    forecast = predictor.forecast
    update = predictor.update
    for i, value in enumerate(values.tolist()):
        if predictor.ready:
            predictions[i] = forecast()
        update(value)
    return np.array(predictions, dtype=float)


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
