"""Streaming predictor state for online serving.

The predictors are incremental already — the base families are O(1)
state machines and the LSO wrapper (:class:`~repro.hb.wrappers.
LsoPredictor`) runs the incremental LSO kernel at O(1) amortised cost
per sample — so the service feeds them exactly as the offline
walk-forward evaluation does, through the same per-sample kernel step
(:meth:`~repro.hb.wrappers.KernelGroup.add`), and its forecasts are the
offline ones bit for bit.  This module adds what a long-running service
needs on top:

* :class:`PredictorSpec` — a JSON-able description of one predictor
  configuration (base predictor by registry name, LSO on/off,
  thresholds), the unit of configuration for ``repro-serve``;
  :meth:`PredictorSpec.build` is also the factory to hand
  :func:`~repro.hb.evaluate.evaluate_predictor` to evaluate the same
  predictor offline.
* :class:`StreamingPredictorState` — one path × one spec worth of live
  state: ``ingest(sample) -> prediction``, non-positive and non-finite
  (outage) samples flagged instead of raised, and exact JSON
  snapshot/restore for restart durability.  Its standing forecast is
  computed once per accepted sample (and at restore), so reading
  :meth:`~StreamingPredictorState.prediction` costs a field read.  A
  state on its own drives its wrapper's kernel as a group of one.
* :class:`PathBundle` — the states of one path, fed each sample
  together: LSO predictors with equal thresholds and equal kernel state
  follow one kernel group, so a sample enters each distinct kernel
  once, not once per predictor.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.core.errors import ConfigurationError, DataError
from repro.hb.autoregressive import AutoRegressive
from repro.hb.base import HistoryPredictor, PredictorFactory
from repro.hb.ewma import Ewma
from repro.hb.holt_winters import HoltWinters
from repro.hb.lso import (
    DEFAULT_LEVEL_SHIFT_THRESHOLD,
    DEFAULT_OUTLIER_THRESHOLD,
    LsoConfig,
)
from repro.hb.moving_average import MovingAverage
from repro.hb.wrappers import KernelGroup, LsoPredictor
from repro.obs import get_telemetry

__all__ = [
    "BASE_PREDICTORS",
    "DEFAULT_SERVE_PREDICTORS",
    "PathBundle",
    "PredictorSpec",
    "StreamingPredictorState",
]

#: Registry of base predictors constructible by name — the vocabulary of
#: :class:`PredictorSpec` and of the ``repro-serve`` ``--predictors``
#: flag.  All are O(1)-per-update state machines except ``ar3``, whose
#: *forecast* refits a small ridge regression over a bounded window.
BASE_PREDICTORS: dict[str, PredictorFactory] = {
    "last": lambda: MovingAverage(1),
    "ma5": lambda: MovingAverage(5),
    "ma10": lambda: MovingAverage(10),
    "ewma": lambda: Ewma(0.8),
    "hw": lambda: HoltWinters(0.8, 0.2),
    "ar3": lambda: AutoRegressive(3),
}

#: The predictor set ``repro-serve`` maintains per path by default.
DEFAULT_SERVE_PREDICTORS = ("last", "ma10", "ewma", "hw")


@dataclass(frozen=True)
class PredictorSpec:
    """One predictor configuration, JSON-able for snapshots.

    Attributes:
        predictor: base predictor registry name (see
            :data:`BASE_PREDICTORS`).
        lso: wrap the base predictor with the paper's Level-Shift and
            Outlier heuristics (the default, as in the paper's HB
            evaluation).
        harden: apply the implementation hardenings (trailing-sample
            quarantine, forecast range clamp); ignored when ``lso`` is
            off.
        level_shift_threshold: the LSO ``χ``.
        outlier_threshold: the LSO ``ψ``.
    """

    predictor: str = "ma10"
    lso: bool = True
    harden: bool = True
    level_shift_threshold: float = DEFAULT_LEVEL_SHIFT_THRESHOLD
    outlier_threshold: float = DEFAULT_OUTLIER_THRESHOLD

    def __post_init__(self) -> None:
        if self.predictor not in BASE_PREDICTORS:
            raise ConfigurationError(
                f"unknown predictor {self.predictor!r}; "
                f"choose from {sorted(BASE_PREDICTORS)}"
            )
        # Delegate threshold validation (must be positive).
        self.lso_config()

    def lso_config(self) -> LsoConfig:
        return LsoConfig(
            level_shift_threshold=self.level_shift_threshold,
            outlier_threshold=self.outlier_threshold,
        )

    def build(self) -> HistoryPredictor:
        """A fresh predictor for this spec (a zero-argument factory)."""
        factory = BASE_PREDICTORS[self.predictor]
        if not self.lso:
            return factory()
        return LsoPredictor(factory, self.lso_config(), harden=self.harden)

    def to_dict(self) -> dict[str, Any]:
        return {
            "predictor": self.predictor,
            "lso": self.lso,
            "harden": self.harden,
            "level_shift_threshold": self.level_shift_threshold,
            "outlier_threshold": self.outlier_threshold,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "PredictorSpec":
        try:
            return cls(
                predictor=str(doc["predictor"]),
                lso=bool(doc.get("lso", True)),
                harden=bool(doc.get("harden", True)),
                level_shift_threshold=float(
                    doc.get("level_shift_threshold", DEFAULT_LEVEL_SHIFT_THRESHOLD)
                ),
                outlier_threshold=float(
                    doc.get("outlier_threshold", DEFAULT_OUTLIER_THRESHOLD)
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed predictor spec {doc!r}: {exc}") from exc


class StreamingPredictorState:
    """One path × one :class:`PredictorSpec` of live service state.

    The service-facing contract differs from the library predictors in
    one deliberate way: a non-positive or non-finite throughput sample
    (an outage epoch, a client bug) is **flagged and skipped** — counted
    in ``n_invalid`` and the ``hb.invalid_samples`` telemetry counter —
    rather than raised, because one bad sample must not take down an
    ingest stream or poison the path's history.

    An LSO state on its own drives its wrapper's kernel as a group of
    one (:class:`~repro.hb.wrappers.KernelGroup`).  Once a
    :class:`PathBundle` holds it, the bundle drives the kernel, and
    feeding the state directly raises rather than adding the sample to
    the shared kernel twice.

    Attributes:
        spec: the predictor configuration.
        n_invalid: invalid samples flagged (and skipped) so far.
    """

    __slots__ = ("spec", "n_invalid", "_predictor", "_feed", "_forecast")

    def __init__(
        self, spec: PredictorSpec, _predictor: HistoryPredictor | None = None
    ) -> None:
        self.spec = spec
        self.n_invalid = 0
        self._predictor = _predictor if _predictor is not None else spec.build()
        #: feeds a valid sample to the predictor; made on the first ingest
        #: (a bundle never needs the state's own).
        self._feed: Callable[[float], None] | None = None
        self._forecast = self._standing()

    def _own_feed(self) -> Callable[[float], None]:
        """The state's own feeding step: a group of one for an LSO wrapper."""
        predictor = self._predictor
        if isinstance(predictor, LsoPredictor):
            group = KernelGroup(predictor.kernel)
            group.join(predictor)
            return group.add
        return predictor.update

    def _standing(self) -> float | None:
        """The predictor's one-step forecast, or ``None`` if not ready."""
        predictor = self._predictor
        return predictor.forecast() if predictor.ready else None

    @property
    def n_observed(self) -> int:
        """Valid samples absorbed since the state was created."""
        return self._predictor.n_observed

    @property
    def ready(self) -> bool:
        return self._predictor.ready

    @property
    def n_level_shifts(self) -> int:
        """Cumulative LSO level-shift detections (0 for bare predictors).

        Cheap enough for per-sample reads: the quality tracker checks it
        after every ingest to reset error windows at shift boundaries.
        """
        predictor = self._predictor
        if isinstance(predictor, LsoPredictor):
            return predictor.n_level_shifts
        return 0

    def ingest(self, value: float) -> float | None:
        """Absorb one sample; return the forecast for the next epoch.

        Returns ``None`` while the predictor lacks the history to
        forecast.  Invalid (non-positive / non-finite) samples are
        flagged, skipped, and leave the prediction unchanged.

        Raises:
            ValueError: for a valid sample when a :class:`PathBundle`
                holds this state.
        """
        value = float(value)
        if not math.isfinite(value) or value <= 0:
            self.n_invalid += 1
            get_telemetry().counter("hb.invalid_samples").inc()
            return self._forecast
        feed = self._feed
        if feed is None:
            feed = self._feed = self._own_feed()
        feed(value)
        forecast = self._forecast = self._standing()
        return forecast

    def prediction(self) -> float | None:
        """The current one-step forecast, or ``None`` if not ready."""
        return self._forecast

    def diagnostics(self) -> dict[str, Any]:
        """Counters useful in service responses and state listings."""
        info: dict[str, Any] = {
            "n_observed": self.n_observed,
            "n_invalid": self.n_invalid,
            "ready": self.ready,
        }
        predictor = self._predictor
        if isinstance(predictor, LsoPredictor):
            info["n_level_shifts"] = predictor.n_level_shifts
            info["n_outliers"] = predictor.n_outliers
            info["clean_history_len"] = len(predictor.clean_history)
        return info

    # -- snapshot / restore ----------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The full state as a JSON-serializable dict."""
        return {
            "spec": self.spec.to_dict(),
            "n_invalid": self.n_invalid,
            "state": self._predictor.state_dict(),
        }

    @classmethod
    def restore(cls, doc: dict[str, Any]) -> "StreamingPredictorState":
        """Rebuild a state captured by :meth:`snapshot`, bit-for-bit."""
        try:
            spec = PredictorSpec.from_dict(doc["spec"])
            state = doc["state"]
            n_invalid = int(doc.get("n_invalid", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed predictor snapshot: {exc}") from exc
        predictor = spec.build()
        predictor.load_state(state)
        restored = cls(spec, predictor)
        restored.n_invalid = n_invalid
        return restored


class PathBundle:
    """The :class:`StreamingPredictorState` s of one path, fed together.

    Each sample is checked once and taken once per distinct kernel: the
    states' LSO wrappers with equal thresholds and equal kernel state
    follow one :class:`~repro.hb.wrappers.KernelGroup` (at the default
    ``last,ma10,ewma,hw``, one kernel for four predictors), bare
    predictors update themselves, and then every state computes its
    standing forecast.  A state keeps exactly what it would hold fed
    alone — forecasts, diagnostics and snapshot, bit for bit — and
    invalid samples are flagged in every state, as each would flag them.

    A wrapper added at restore starts fresh, so its kernel state differs
    from the restored ones and it keeps a kernel of its own.

    Attributes:
        states: predictor name -> state; feed them through :meth:`ingest`
            only.
        members: the states, in the order of ``states``.
    """

    __slots__ = ("states", "members", "_groups", "_updates")

    def __init__(self, states: dict[str, StreamingPredictorState]) -> None:
        self.states = states
        self.members = list(states.values())
        self._groups: list[KernelGroup] = []
        #: the bound update of each bare predictor.
        self._updates = []
        for state in self.members:
            state._feed = _fed_by_bundle
            predictor = state._predictor
            if not isinstance(predictor, LsoPredictor):
                self._updates.append(predictor.update)
                continue
            for group in self._groups:
                if predictor.can_follow(group.kernel):
                    break
            else:
                group = KernelGroup(predictor.kernel)
                self._groups.append(group)
            group.join(predictor)

    def ingest(self, value: float) -> bool:
        """Feed one sample to every state; ``False`` if it was invalid.

        An invalid (non-positive / non-finite) sample is flagged in every
        state and reaches no predictor.
        """
        value = float(value)
        members = self.members
        if not math.isfinite(value) or value <= 0:
            for state in members:
                state.n_invalid += 1
            get_telemetry().counter("hb.invalid_samples").inc(len(members))
            return False
        for group in self._groups:
            group.add(value)
        for update in self._updates:
            update(value)
        for state in members:
            state._forecast = state._standing()
        return True


def _fed_by_bundle(value: float) -> None:
    """The feeding step of a state a :class:`PathBundle` holds: refused."""
    raise ValueError(
        "a PathBundle holds this state and feeds its kernel group; "
        "ingest through the bundle"
    )
