"""The reference HB semantics the shipped code must reproduce bit for bit.

The library runs the paper's LSO heuristics (Section 5.2) as one
incremental kernel (:class:`repro.hb.lso.LsoKernel`) and walks every
predictor with one forecast loop
(:func:`repro.hb.vector_eval.vector_walk`).  This module keeps the
plain, slow statement of the same semantics, for tests only:

* :func:`detect_outliers` / :func:`detect_level_shift` — the detectors
  as pure-Python loops over a list;
* :class:`ReplayLso` — the LSO wrapper that re-runs both detectors over
  its whole clean history and rebuilds its base predictor from scratch
  on every update (quadratic, obviously right);
* :func:`rescan_segmentation` — the full-trace LSO pass with both
  detectors re-run over the full history at every epoch;
* :func:`walk` — the per-epoch walk-forward loop, errors through
  :func:`repro.core.metrics.relative_error` one epoch at a time.

None of it touches telemetry; :class:`ReplayLso` and
:func:`rescan_segmentation` count their detections instead, so tests can
compare them with the ``hb.outliers_discarded`` / ``hb.level_shifts``
counters the shipped code bumps.
"""

from __future__ import annotations

from statistics import median

import numpy as np

from repro.core.metrics import relative_error
from repro.hb.base import HistoryPredictor, PredictorFactory
from repro.hb.lso import LsoConfig, relative_difference
from repro.hb.streaming import BASE_PREDICTORS, PredictorSpec


def detect_outliers(history: list[float], config: LsoConfig) -> list[int]:
    """Interior samples deviating from the median by more than ``psi``,
    unless the successor deviates in the same direction."""
    n = len(history)
    if n < 2:
        return []
    med = median(history)

    def deviates(value: float) -> bool:
        return relative_difference(value, med) > config.outlier_threshold

    outliers = []
    for k in range(n - 1):
        if not deviates(history[k]):
            continue
        successor = history[k + 1]
        same_direction_run = deviates(successor) and (
            (history[k] > med) == (successor > med)
        )
        if not same_direction_run:
            outliers.append(k)
    return outliers


def detect_level_shift(history: list[float], config: LsoConfig) -> int | None:
    """The widest-gap split ``k`` in ``[2, n-3]`` that fully separates the
    history and whose medians differ by more than ``chi``; ties go to the
    later split."""
    n = len(history)
    if n < 5:
        return None
    best_k: int | None = None
    best_gap = 0.0
    for k in range(2, n - 2):
        prefix, suffix = history[:k], history[k:]
        if max(prefix) < min(suffix):
            gap = min(suffix) - max(prefix)
        elif min(prefix) > max(suffix):
            gap = min(prefix) - max(suffix)
        else:
            continue
        if relative_difference(median(prefix), median(suffix)) <= (
            config.level_shift_threshold
        ):
            continue
        if best_k is None or gap > best_gap or (gap == best_gap and k > best_k):
            best_gap = gap
            best_k = k
    return best_k


class ReplayLso(HistoryPredictor):
    """The LSO wrapper as a full re-detection and replay per update."""

    RANGE_CLAMP_FACTOR = 2.0

    def __init__(
        self,
        factory: PredictorFactory,
        config: LsoConfig | None = None,
        harden: bool = True,
    ) -> None:
        self._factory = factory
        self._config = config or LsoConfig()
        self.harden = harden
        self._base = factory()
        self.name = f"{self._base.name}-LSO"
        self._history: list[float] = []
        self._count = 0
        self.n_level_shifts = 0
        self.n_outliers = 0

    @property
    def min_history(self) -> int:
        return self._base.min_history

    @property
    def n_observed(self) -> int:
        return self._count

    @property
    def ready(self) -> bool:
        return self._base.ready

    @property
    def clean_history(self) -> tuple[float, ...]:
        return tuple(self._history)

    def update(self, value: float) -> None:
        self._count += 1
        self._history.append(float(value))
        outliers = detect_outliers(self._history, self._config)
        if outliers:
            self.n_outliers += len(outliers)
            self._history = [
                x for k, x in enumerate(self._history) if k not in set(outliers)
            ]
        shift = detect_level_shift(self._history, self._config)
        if shift is not None:
            self.n_level_shifts += 1
            self._history = self._history[shift:]
        # Quarantine: a trailing sample deviating from the median is kept
        # for detection but withheld from the base predictor.
        feed = self._history
        if self.harden and len(feed) >= 3:
            if relative_difference(feed[-1], median(feed)) > (
                self._config.outlier_threshold
            ):
                feed = feed[:-1]
        self._base = self._factory()
        for sample in feed:
            self._base.update(sample)

    def forecast(self) -> float:
        raw = self._base.forecast()
        if not self.harden:
            return raw
        low = min(self._history) / self.RANGE_CLAMP_FACTOR
        high = max(self._history) * self.RANGE_CLAMP_FACTOR
        return min(max(raw, low), high)

    def reset(self) -> None:
        self.__init__(self._factory, self._config, self.harden)


def replay_factory(spec: PredictorSpec) -> PredictorFactory:
    """The reference predictor of a serving spec (ReplayLso when LSO is on)."""
    factory = BASE_PREDICTORS[spec.predictor]
    if not spec.lso:
        return factory
    return lambda: ReplayLso(factory, spec.lso_config(), harden=spec.harden)


def rescan_segmentation(
    values, config: LsoConfig | None = None
) -> tuple[list[int], list[int], list[tuple[float, ...]]]:
    """Outlier and shift indices (original epochs, detection order) and
    the stationary segments, re-running both detectors over the whole
    history at every epoch."""
    config = config or LsoConfig()
    values = np.asarray(values, dtype=float).tolist()
    history: list[tuple[int, float]] = []
    outlier_indices: list[int] = []
    shift_indices: list[int] = []
    for idx, value in enumerate(values):
        history.append((idx, value))
        flagged = detect_outliers([v for _, v in history], config)
        if flagged:
            outlier_indices.extend(history[k][0] for k in flagged)
            history = [item for k, item in enumerate(history) if k not in flagged]
        shift = detect_level_shift([v for _, v in history], config)
        if shift is not None:
            shift_indices.append(history[shift][0])
            history = history[shift:]
    segments = []
    bounds = [0, *sorted(shift_indices), len(values)]
    for start, stop in zip(bounds, bounds[1:]):
        segment = tuple(
            values[i] for i in range(start, stop) if i not in outlier_indices
        )
        if segment:
            segments.append(segment)
    return outlier_indices, shift_indices, segments


def walk(values, predictor) -> tuple[np.ndarray, np.ndarray]:
    """Per-epoch forecasts and Eq. 4 errors of a fresh predictor."""
    values = np.asarray(values, dtype=float)
    predictions = np.full(len(values), np.nan)
    errors = np.full(len(values), np.nan)
    for i, value in enumerate(values.tolist()):
        if predictor.ready:
            forecast = predictor.forecast()
            predictions[i] = forecast
            errors[i] = relative_error(forecast, value)
        predictor.update(value)
    return predictions, errors
