"""An autoregressive (AR) predictor — the paper's "more complex linear
predictors" extension.

The paper declines to evaluate ARMA/ARIMA because fitting their
coefficients needs more history than its applications have (Section 5),
but names them as future work.  This predictor is the practical middle
ground: an AR(p) model whose coefficients are re-fit by least squares
over the available history on every update, falling back to the sample
mean while the history is shorter than ``2p + 2`` samples.

It slots into the same :class:`~repro.hb.base.HistoryPredictor`
interface, so it can be LSO-wrapped and run through every HB analysis.
"""

from __future__ import annotations

import numpy as np

from repro.hb.base import HistoryPredictor


class AutoRegressive(HistoryPredictor):
    """One-step AR(p) forecaster with on-line least-squares fitting.

    Args:
        order: the AR order ``p``.
        max_history: number of trailing samples used for fitting
            (bounds the per-update cost).
        ridge: Tikhonov regularization strength for the normal
            equations — keeps the fit stable on short or near-constant
            histories.
    """

    def __init__(self, order: int = 3, max_history: int = 64, ridge: float = 1e-3) -> None:
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if max_history < 2 * order + 2:
            raise ValueError(
                f"max_history must be at least 2*order + 2, got {max_history}"
            )
        if ridge < 0:
            raise ValueError(f"ridge must be non-negative, got {ridge}")
        self.order = order
        self.max_history = max_history
        self.ridge = ridge
        self.name = f"AR({order})"
        self._history: list[float] = []
        self._count = 0

    @property
    def min_history(self) -> int:
        return 1

    @property
    def n_observed(self) -> int:
        return self._count

    def update(self, value: float) -> None:
        self._history.append(float(value))
        if len(self._history) > self.max_history:
            self._history.pop(0)
        self._count += 1

    def forecast(self) -> float:
        self._require_ready()
        history = np.asarray(self._history)
        if len(history) < 2 * self.order + 2:
            return float(history.mean())

        # Fit x[t] = c + sum_i a_i x[t-i] by ridge-regularized least
        # squares over the retained window.
        p = self.order
        rows = len(history) - p
        design = np.ones((rows, p + 1))
        for i in range(p):
            design[:, i + 1] = history[p - 1 - i : len(history) - 1 - i]
        targets = history[p:]
        gram = design.T @ design + self.ridge * np.eye(p + 1)
        try:
            coeffs = np.linalg.solve(gram, design.T @ targets)
        except np.linalg.LinAlgError:  # a flat history and too little ridge
            return float(history[-p:].mean())

        lags = history[-1 : -p - 1 : -1]
        prediction = float(coeffs[0] + coeffs[1:] @ lags)
        # An AR fit can extrapolate through zero on a falling edge, or
        # past float range on near-singular equations; fall back to the
        # recent mean rather than forecast a non-positive or non-finite
        # throughput.
        if not (prediction > 0 and np.isfinite(prediction)):
            return float(history[-p:].mean())
        return prediction

    def reset(self) -> None:
        self._history = []
        self._count = 0

    def state_dict(self) -> dict:
        return {"history": list(self._history), "count": self._count}

    def load_state(self, state: dict) -> None:
        self._history = [float(v) for v in state["history"]]
        self._count = int(state["count"])
