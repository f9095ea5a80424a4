"""An NWS-style adaptive ensemble forecaster.

The Network Weather Service (Wolski et al.; the paper's reference [16])
popularized a simple meta-strategy for exactly this problem: run a
collection of cheap forecasters side by side, track each one's recent
error on the series itself, and at every step emit the forecast of
whichever member currently has the lowest trailing error.

:class:`AdaptiveEnsemble` implements that strategy over any set of
:class:`~repro.hb.base.HistoryPredictor` members.  It is itself a
``HistoryPredictor``, so it can be LSO-wrapped and evaluated by all the
HB analysis code.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping

from repro.core.errors import ConfigurationError, PredictionError
from repro.hb.base import HistoryPredictor, PredictorFactory
from repro.hb.spec import PredictorSpec


def default_members() -> dict[str, PredictorFactory]:
    """The classic NWS-like member set: last value, means, smoothers."""
    return {
        "last": PredictorSpec("ma", {"order": 1}),
        "5-MA": PredictorSpec("ma", {"order": 5}),
        "10-MA": PredictorSpec("ma", {"order": 10}),
        "0.5-EWMA": PredictorSpec("ewma", {"alpha": 0.5}),
        "HW": PredictorSpec("hw", {"alpha": 0.8, "beta": 0.2}),
    }


class AdaptiveEnsemble(HistoryPredictor):
    """Pick-the-best-forecaster ensemble (NWS-style).

    Args:
        members: named predictor factories; defaults to
            :func:`default_members`.
        error_window: how many recent absolute relative errors each
            member is judged on.
    """

    def __init__(
        self,
        members: Mapping[str, PredictorFactory] | None = None,
        error_window: int = 10,
    ) -> None:
        factories = dict(members) if members is not None else default_members()
        if not factories:
            raise ConfigurationError("ensemble needs at least one member")
        if error_window < 1:
            raise ConfigurationError(f"error_window must be >= 1, got {error_window}")
        self.name = "NWS-ensemble"
        self.error_window = error_window
        self._members = {name: factory() for name, factory in factories.items()}
        self._errors: dict[str, deque[float]] = {
            name: deque(maxlen=error_window) for name in self._members
        }
        self._factories = factories
        self._count = 0

    @property
    def min_history(self) -> int:
        """Ready as soon as the least demanding member is."""
        return min(m.min_history for m in self._members.values())

    @property
    def n_observed(self) -> int:
        return self._count

    @property
    def ready(self) -> bool:
        return any(m.ready for m in self._members.values())

    def update(self, value: float) -> None:
        value = float(value)
        if value <= 0:
            raise ValueError(f"throughput observations must be positive, got {value}")
        # Score each ready member on this observation before feeding it.
        for name, member in self._members.items():
            if member.ready:
                forecast = member.forecast()
                denominator = min(forecast, value)
                if denominator > 0:
                    self._errors[name].append(abs(forecast - value) / denominator)
            member.update(value)
        self._count += 1

    def forecast(self) -> float:
        if not self.ready:
            raise PredictionError("no ensemble member has enough history")
        return self._members[self.best_member()].forecast()

    def best_member(self) -> str:
        """Name of the member with the lowest trailing mean error.

        Members without recorded errors rank last among ready members;
        unready members are skipped entirely.
        """
        best_name, best_score = None, None
        for name, member in self._members.items():
            if not member.ready:
                continue
            errors = self._errors[name]
            score = sum(errors) / len(errors) if errors else float("inf")
            if best_score is None or score < best_score:
                best_name, best_score = name, score
        if best_name is None:
            raise PredictionError("no ensemble member has enough history")
        return best_name

    def member_scores(self) -> dict[str, float]:
        """Trailing mean |E| per member (inf when unscored) — diagnostics."""
        return {
            name: (sum(errs) / len(errs) if errs else float("inf"))
            for name, errs in self._errors.items()
        }

    def reset(self) -> None:
        self._members = {name: factory() for name, factory in self._factories.items()}
        self._errors = {
            name: deque(maxlen=self.error_window) for name in self._members
        }
        self._count = 0

    def state_dict(self) -> dict:
        return {
            "members": {
                name: member.state_dict() for name, member in self._members.items()
            },
            "errors": {name: list(errs) for name, errs in self._errors.items()},
            "count": self._count,
        }

    def load_state(self, state: dict) -> None:
        for name, member in self._members.items():
            member.load_state(state["members"][name])
        for name in self._errors:
            self._errors[name] = deque(
                (float(e) for e in state["errors"][name]), maxlen=self.error_window
            )
        self._count = int(state["count"])
