"""The non-seasonal Holt-Winters predictor (paper Section 5.1.3).

Maintains a smoothing component ``s`` (an EWMA of the sample values) and
a trend component ``t`` (an EWMA of consecutive-sample differences)::

    forecast[i] = s[i] + t[i]
    s[i+1] = alpha * X[i] + (1 - alpha) * forecast[i]
    t[i+1] = beta * (s[i+1] - s[i]) + (1 - beta) * t[i]

with initial values ``s = X[0]`` and ``t = X[1] - X[0]``, exactly as the
paper specifies.  Two observations are therefore required before the
first forecast.

Throughput is positive, but ``s + t`` can go negative after a sharp
drop (a strongly negative trend component).  The forecast is therefore
clamped: when ``s + t <= 0`` the level alone is used, and the level is
kept positive.  The clamped forecast is also what the next level update
smooths against, keeping the recursion consistent.
"""

from __future__ import annotations

from repro.hb.base import HistoryPredictor

#: Floor for clamped forecasts, far below any plausible throughput.
_MIN_FORECAST = 1e-9


class HoltWinters(HistoryPredictor):
    """One-step non-seasonal Holt-Winters forecaster.

    Args:
        alpha: level smoothing weight in (0, 1).  The paper finds
            ``alpha = 0.8`` close to optimal on its dataset.
        beta: trend smoothing weight in (0, 1); the paper uses 0.2 and
            reports low sensitivity.
    """

    def __init__(self, alpha: float = 0.8, beta: float = 0.2) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {beta}")
        self.alpha = alpha
        self.beta = beta
        self.name = f"{alpha:g}-HW"
        self._level: float | None = None
        self._trend: float | None = None
        self._first_value: float | None = None
        self._count = 0

    @property
    def min_history(self) -> int:
        """Two samples are needed to initialise the trend component."""
        return 2

    @property
    def n_observed(self) -> int:
        return self._count

    @property
    def ready(self) -> bool:
        return self._count >= 2

    def update(self, value: float) -> None:
        value = float(value)
        count = self._count
        if count >= 2:
            level = self._level
            trend = self._trend
            # forecast(), inlined: the update is the walk's hot loop.
            raw = level + trend
            forecast = raw if raw > 0 else max(level, _MIN_FORECAST)
            new_level = self.alpha * value + (1.0 - self.alpha) * forecast
            self._trend = self.beta * (new_level - level) + (1.0 - self.beta) * trend
            self._level = new_level
        elif count == 1:
            assert self._first_value is not None
            self._level = value
            self._trend = value - self._first_value
        else:
            self._first_value = value
        self._count = count + 1

    def forecast(self) -> float:
        """``s + t``, falling back to the (positive) level when negative."""
        if self._count < 2:
            self._require_ready()
        raw = self._level + self._trend
        return raw if raw > 0 else max(self._level, _MIN_FORECAST)

    def reset(self) -> None:
        self._level = None
        self._trend = None
        self._first_value = None
        self._count = 0

    def state_dict(self) -> dict:
        return {
            "level": self._level,
            "trend": self._trend,
            "first_value": self._first_value,
            "count": self._count,
        }

    def load_state(self, state: dict) -> None:
        def _opt(value: object) -> float | None:
            return None if value is None else float(value)  # type: ignore[arg-type]

        self._level = _opt(state["level"])
        self._trend = _opt(state["trend"])
        self._first_value = _opt(state["first_value"])
        self._count = int(state["count"])
