"""The ``n``-order Moving Average predictor (paper Section 5.1.1).

``X_hat[i+1] = mean(X[i-n+1 .. i])``

A small ``n`` cannot smooth measurement noise; a large ``n`` adapts
slowly to non-stationarities — the trade-off the paper's Fig. 16
explores (and that the LSO heuristics largely dissolve).
"""

from __future__ import annotations

from collections import deque

from repro.hb.base import HistoryPredictor


class MovingAverage(HistoryPredictor):
    """One-step ``n``-MA forecaster.

    Args:
        order: window length ``n``; the forecast is the mean of the last
            ``n`` observations.  ``order=1`` is the "last value"
            predictor the paper calls 1-MA.
    """

    def __init__(self, order: int = 10) -> None:
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        self.order = order
        self.name = f"{order}-MA"
        self._window: deque[float] = deque(maxlen=order)
        self._count = 0

    @property
    def min_history(self) -> int:
        """MA can forecast from its first observation (partial window)."""
        return 1

    @property
    def n_observed(self) -> int:
        return self._count

    @property
    def ready(self) -> bool:
        return self._count > 0

    def update(self, value: float) -> None:
        self._window.append(float(value))
        self._count += 1

    def forecast(self) -> float:
        if not self._count:
            self._require_ready()
        return sum(self._window) / len(self._window)

    def reset(self) -> None:
        self._window.clear()
        self._count = 0

    def state_dict(self) -> dict:
        return {"window": list(self._window), "count": self._count}

    def load_state(self, state: dict) -> None:
        self._window = deque((float(v) for v in state["window"]), maxlen=self.order)
        self._count = int(state["count"])
