"""The EWMA predictor (paper Section 5.1.2).

``X_hat[i+1] = alpha * X[i] + (1 - alpha) * X_hat[i]``

initialised with ``X_hat[1] = X[0]``.  A higher ``alpha`` tracks the last
sample closely (no smoothing); a lower ``alpha`` smooths but adapts
slowly.
"""

from __future__ import annotations

from repro.hb.base import HistoryPredictor


class Ewma(HistoryPredictor):
    """One-step exponentially-weighted moving-average forecaster.

    Args:
        alpha: weight of the most recent observation, in (0, 1).
    """

    def __init__(self, alpha: float = 0.8) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self.name = f"{alpha:g}-EWMA"
        self._estimate: float | None = None
        self._count = 0

    @property
    def min_history(self) -> int:
        return 1

    @property
    def n_observed(self) -> int:
        return self._count

    @property
    def ready(self) -> bool:
        return self._count > 0

    def update(self, value: float) -> None:
        value = float(value)
        if self._estimate is None:
            self._estimate = value
        else:
            self._estimate = self.alpha * value + (1.0 - self.alpha) * self._estimate
        self._count += 1

    def forecast(self) -> float:
        if not self._count:
            self._require_ready()
        assert self._estimate is not None
        return self._estimate

    def reset(self) -> None:
        self._estimate = None
        self._count = 0

    def state_dict(self) -> dict:
        return {"estimate": self._estimate, "count": self._count}

    def load_state(self, state: dict) -> None:
        estimate = state["estimate"]
        self._estimate = None if estimate is None else float(estimate)
        self._count = int(state["count"])
