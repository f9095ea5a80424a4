"""Streaming predictor state for online serving.

The predictors are incremental already — the base families are O(1)
state machines and the LSO wrapper (:class:`~repro.hb.wrappers.
LsoPredictor`) runs the incremental LSO kernel at O(1) amortised cost
per sample — so the service feeds them exactly as the offline
walk-forward evaluation does, through the same per-sample kernel step
(:meth:`~repro.hb.wrappers.KernelGroup.add`), and its forecasts are the
offline ones bit for bit.  This module adds what a long-running
service needs on top:

* :data:`SERVE_PREDICTORS` — the ``repro-serve --predictors`` names and
  the :class:`~repro.hb.spec.PredictorSpec` each stands for.
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
from dataclasses import replace
from typing import Any

from repro.core.errors import ConfigurationError, DataError
from repro.hb.base import HistoryPredictor
from repro.hb.lso import LsoConfig
from repro.hb.spec import PredictorSpec
from repro.hb.wrappers import KernelGroup, LsoPredictor
from repro.obs import get_telemetry

__all__ = [
    "DEFAULT_SERVE_PREDICTORS",
    "PathBundle",
    "SERVE_PREDICTORS",
    "StreamingPredictorState",
    "spec_from_v1",
]

#: The ``repro-serve --predictors`` names, each LSO-wrapped at the paper's
#: thresholds (``hw`` is the HW-LSO of Figs. 19-23).  All are O(1) per
#: update except ``ar3``, whose forecast refits a small ridge regression.
SERVE_PREDICTORS: dict[str, PredictorSpec] = {
    "last": PredictorSpec("ma", {"order": 1}, LsoConfig()),
    "ma5": PredictorSpec("ma", {"order": 5}, LsoConfig()),
    "ma10": PredictorSpec("ma", {"order": 10}, LsoConfig()),
    "ewma": PredictorSpec("ewma", {"alpha": 0.8}, LsoConfig()),
    "hw": PredictorSpec("hw", {"alpha": 0.8, "beta": 0.2}, LsoConfig()),
    "ar3": PredictorSpec("ar", {"order": 3}, LsoConfig()),
}

#: The predictor set ``repro-serve`` maintains per path by default.
DEFAULT_SERVE_PREDICTORS = ("last", "ma10", "ewma", "hw")


def spec_from_v1(doc: Any) -> PredictorSpec:
    """The spec of a version-1 snapshot: ``{"predictor": name, "lso",
    "harden", "level_shift_threshold", "outlier_threshold"}``, the name
    one of :data:`SERVE_PREDICTORS`.

    Raises:
        DataError: for anything but such a document with valid values.
    """
    try:
        chi, psi = float(doc["level_shift_threshold"]), float(doc["outlier_threshold"])
        lso = LsoConfig(chi, psi) if doc["lso"] else None
        named = SERVE_PREDICTORS[doc["predictor"]]
        return replace(named, lso=lso, harden=bool(doc["harden"]))
    except (ConfigurationError, LookupError, TypeError, ValueError, OverflowError) as e:
        raise DataError(f"malformed version-1 predictor spec: {e}") from e


class StreamingPredictorState:
    """One path × one :class:`~repro.hb.spec.PredictorSpec` of live service state.

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
        self._predictor = _predictor if _predictor is not None else spec()
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
    def restore(
        cls,
        doc: dict[str, Any],
        read_spec: Callable[[Any], PredictorSpec] = PredictorSpec.from_dict,
    ) -> "StreamingPredictorState":
        """Rebuild a state captured by :meth:`snapshot`, bit-for-bit;
        ``read_spec`` reads its ``spec`` (:func:`spec_from_v1` for a
        version-1 snapshot).

        Raises:
            DataError: for anything but such a snapshot, with valid
                values and a state the predictor can forecast from.
        """
        try:
            spec = read_spec(doc["spec"])
            n_invalid = int(doc.get("n_invalid", 0))
            predictor = spec()
            predictor.load_state(doc["state"])
            restored = cls(spec, predictor)
        except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
            raise DataError(f"malformed predictor snapshot: {exc}") from exc
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
