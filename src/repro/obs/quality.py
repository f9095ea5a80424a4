"""Online prediction-quality tracking: closing the forecast->outcome loop.

The paper's whole contribution is a *prediction-error* measurement —
the relative error ``E = (R_hat - R) / min(R_hat, R)`` of Eq. (4)
between a forecast and the throughput that then materialises.  Offline,
:func:`~repro.hb.evaluate.evaluate_predictor` walks a trace computing
exactly that.  Online, ``repro-serve`` emits forecasts continuously but
(before this module) never learned whether they were any good.

:class:`QualityTracker` closes the loop: on every ingested sample the
store scores **the forecast that was standing before the sample
arrived** against the sample, per ``path x predictor``, with the same
:func:`~repro.core.metrics.relative_error` the offline evaluator uses.
Because the offline walk-forward also forecasts *before* updating, the
online error stream is bit-identical to ``evaluate_predictor``'s
residuals — the parity suite in ``tests/obs/test_quality.py`` proves it
over replayed campaign traces.

Memory is bounded everywhere:

* each series keeps a **window** of the last ``config.window`` errors
  (deque + sorted mirror, so the exported p50/p95 are exact over the
  window) plus O(1) cumulative aggregates (count, total |E|, EWMA);
* the per-path map is LRU-bounded at ``config.max_paths``; the store
  additionally calls :meth:`QualityTracker.drop` when it evicts a path.

Signals derived from the error stream:

* **SLO breaches** — ``|E| > config.slo_abs_error`` increments the
  ``serve.slo_breaches`` counter (tagged by predictor).
* **Drift alerts** — when the window first fills, its p95 |E| is frozen
  as the baseline; if the live windowed p95 then exceeds
  ``baseline * drift_factor`` (and ``baseline + drift_min_delta``) for
  ``drift_patience`` consecutive scores, a ``predict.drift_alerts``
  counter ticks, a ``quality.drift`` event is emitted, and the baseline
  re-freezes at the new level (one alert per excursion, not per sample).
* **Level-shift resets** — when the predictor's own LSO detector fires
  (``hb.level_shifts``), pre-shift residuals describe a regime that no
  longer exists, so the window and drift baseline are cleared rather
  than blending across the shift.  Cumulative aggregates keep counting:
  the error *stream* is continuous (parity holds), only the *windowed*
  statistics restart.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict, deque
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

from repro.core.errors import ConfigurationError
from repro.core.metrics import relative_error
from repro.obs.metrics import nearest_rank
from repro.obs.telemetry import get_telemetry, obs_enabled

__all__ = ["QualityConfig", "PredictorQuality", "QualityTracker"]


@dataclass(frozen=True)
class QualityConfig:
    """Tuning knobs of a :class:`QualityTracker`.

    Attributes:
        window: rolling-window length per ``path x predictor`` series;
            the exported p50/p95 are exact over this window.
        ewma_alpha: smoothing factor of the |E| EWMA (weight of the
            newest error).
        slo_abs_error: |E| threshold counted as an SLO breach
            (``serve.slo_breaches``); ``None`` disables SLO accounting.
        drift_factor: windowed p95 must exceed ``baseline * factor``
            to count toward a drift alert.
        drift_min_delta: ... and exceed ``baseline + min_delta`` — an
            absolute floor so a near-zero baseline (a perfectly
            predictable path) cannot alert on noise.
        drift_patience: consecutive over-limit scores required before
            the alert fires.
        max_paths: LRU bound on tracked paths.
    """

    window: int = 120
    ewma_alpha: float = 0.1
    slo_abs_error: float | None = 1.0
    drift_factor: float = 2.0
    drift_min_delta: float = 0.05
    drift_patience: int = 5
    max_paths: int = 4096

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ConfigurationError(f"window must be >= 2, got {self.window}")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigurationError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if self.slo_abs_error is not None and self.slo_abs_error <= 0:
            raise ConfigurationError(
                f"slo_abs_error must be positive or None, got {self.slo_abs_error}"
            )
        if self.drift_factor <= 1.0:
            raise ConfigurationError(
                f"drift_factor must be > 1, got {self.drift_factor}"
            )
        if self.drift_min_delta < 0:
            raise ConfigurationError(
                f"drift_min_delta must be >= 0, got {self.drift_min_delta}"
            )
        if self.drift_patience < 1:
            raise ConfigurationError(
                f"drift_patience must be >= 1, got {self.drift_patience}"
            )
        if self.max_paths < 1:
            raise ConfigurationError(f"max_paths must be >= 1, got {self.max_paths}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "window": self.window,
            "ewma_alpha": self.ewma_alpha,
            "slo_abs_error": self.slo_abs_error,
            "drift_factor": self.drift_factor,
            "drift_min_delta": self.drift_min_delta,
            "drift_patience": self.drift_patience,
            "max_paths": self.max_paths,
        }


class PredictorQuality:
    """One ``path x predictor`` error series: window + aggregates."""

    __slots__ = (
        "config",
        "n_scored",
        "n_not_ready",
        "n_invalid",
        "n_slo_breaches",
        "n_drift_alerts",
        "n_level_shift_resets",
        "total_abs_error",
        "ewma_abs_error",
        "last_error",
        "baseline_p95",
        "drift_streak",
        "level_shifts_seen",
        "_window",
        "_sorted",
    )

    def __init__(self, config: QualityConfig) -> None:
        self.config = config
        self.n_scored = 0
        self.n_not_ready = 0
        self.n_invalid = 0
        self.n_slo_breaches = 0
        self.n_drift_alerts = 0
        self.n_level_shift_resets = 0
        self.total_abs_error = 0.0
        self.ewma_abs_error: float | None = None
        self.last_error: float | None = None
        self.baseline_p95: float | None = None
        self.drift_streak = 0
        #: cumulative hb.level_shifts of the scored predictor at the last
        #: score; ``None`` until the first score (a path restored from a
        #: snapshot may arrive with shifts already on the odometer).
        self.level_shifts_seen: int | None = None
        self._window: deque[float] = deque(maxlen=config.window)
        self._sorted: list[float] = []  # sorted |E| mirror of _window

    def observe(self, error: float, level_shifts: int) -> tuple[bool, bool, bool]:
        """Absorb one scored error.

        Args:
            error: the signed relative error (Eq. 4).
            level_shifts: the scored predictor's cumulative
                ``n_level_shifts`` at scoring time.

        Returns:
            ``(slo_breach, drift_alert, shift_reset)`` flags for the
            tracker to translate into telemetry.
        """
        shift_reset = False
        if self.level_shifts_seen is None:
            self.level_shifts_seen = level_shifts
        elif level_shifts > self.level_shifts_seen:
            # The predictor's LSO detector fired since the last score:
            # pre-shift residuals describe the old regime.  Restart the
            # windowed statistics; cumulative aggregates keep counting.
            self.level_shifts_seen = level_shifts
            self.n_level_shift_resets += 1
            self._window.clear()
            self._sorted.clear()
            self.baseline_p95 = None
            self.drift_streak = 0
            shift_reset = True

        config = self.config
        abs_error = abs(error)
        self.n_scored += 1
        self.last_error = error
        self.total_abs_error += abs_error
        if self.ewma_abs_error is None:
            self.ewma_abs_error = abs_error
        else:
            alpha = config.ewma_alpha
            self.ewma_abs_error += alpha * (abs_error - self.ewma_abs_error)

        window = self._window
        ordered = self._sorted
        if len(window) == config.window:
            # deque(maxlen) drops the left element on append; mirror that
            # removal in the sorted copy first.
            del ordered[bisect_left(ordered, abs(window[0]))]
        window.append(error)
        insort(ordered, abs_error)

        slo = config.slo_abs_error
        slo_breach = slo is not None and abs_error > slo
        if slo_breach:
            self.n_slo_breaches += 1

        drift_alert = False
        if len(window) == config.window:
            windowed_p95 = nearest_rank(ordered, 95.0)
            if self.baseline_p95 is None:
                self.baseline_p95 = windowed_p95
            else:
                limit = max(
                    self.baseline_p95 * config.drift_factor,
                    self.baseline_p95 + config.drift_min_delta,
                )
                if windowed_p95 > limit:
                    self.drift_streak += 1
                    if self.drift_streak >= config.drift_patience:
                        drift_alert = True
                        self.n_drift_alerts += 1
                        # Re-freeze at the new level: one alert per
                        # excursion, and recovery re-arms naturally.
                        self.baseline_p95 = windowed_p95
                        self.drift_streak = 0
                else:
                    self.drift_streak = 0
        return slo_breach, drift_alert, shift_reset

    def windowed_quantile(self, q: float) -> float | None:
        """Exact nearest-rank |E| quantile over the current window.

        Read by rank: the mirror is sorted by construction (``insort``).
        """
        if not self._sorted:
            return None
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        return nearest_rank(self._sorted, q)

    def summary(self) -> dict[str, Any]:
        """JSON-able statistics of this series."""
        scored = self.n_scored
        return {
            "scored": scored,
            "not_ready": self.n_not_ready,
            "invalid": self.n_invalid,
            "mean_abs_error": (self.total_abs_error / scored) if scored else None,
            "ewma_abs_error": self.ewma_abs_error,
            "last_error": self.last_error,
            "window_len": len(self._window),
            "p50_abs_error": self.windowed_quantile(50.0),
            "p95_abs_error": self.windowed_quantile(95.0),
            "baseline_p95": self.baseline_p95,
            "slo_breaches": self.n_slo_breaches,
            "drift_alerts": self.n_drift_alerts,
            "level_shift_resets": self.n_level_shift_resets,
            "level_shifts_seen": self.level_shifts_seen or 0,
        }


class QualityTracker:
    """Rolling per ``path x predictor`` forecast-quality accounting.

    The serving store calls :meth:`score` once per (valid sample,
    predictor) with the forecast that stood *before* the sample was
    ingested — matching the walk-forward order of
    :func:`~repro.hb.evaluate.evaluate_predictor`, so the two error
    streams are bit-identical.
    """

    def __init__(self, config: QualityConfig | None = None) -> None:
        self.config = config or QualityConfig()
        self._paths: OrderedDict[str, dict[str, PredictorQuality]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._paths)

    def paths(self) -> list[str]:
        return list(self._paths)

    def path_series(
        self, key: str, predictors: Iterable[str]
    ) -> list[PredictorQuality]:
        """The path's series of each of ``predictors``, created if missing.

        The path becomes the most recently used one (a new path may
        evict the least recently used).  A caller scoring a batch
        resolves the path once and passes each series to :meth:`score`
        or :meth:`observe_invalid` as ``series``.
        """
        paths = self._paths
        by_predictor = paths.get(key)
        if by_predictor is None:
            if len(paths) >= self.config.max_paths:
                evicted, _ = paths.popitem(last=False)
                self._discard_gauges(evicted)
            by_predictor = paths[key] = {}
        else:
            paths.move_to_end(key)
        found = []
        for predictor in predictors:
            series = by_predictor.get(predictor)
            if series is None:
                series = by_predictor[predictor] = PredictorQuality(self.config)
            found.append(series)
        return found

    def score(
        self,
        key: str,
        predictor: str,
        forecast: float | None,
        actual: float,
        level_shifts: int = 0,
        *,
        series: PredictorQuality | None = None,
    ) -> float | None:
        """Score one forecast against the sample that followed it.

        Args:
            key: the path key.
            predictor: the predictor name within the path's bundle.
            forecast: the forecast standing before ``actual`` arrived;
                ``None`` while the predictor is warming up (counted,
                not scored — the offline evaluator records NaN there).
            actual: the arriving throughput sample (positive, finite —
                invalid samples go to :meth:`observe_invalid` instead).
            level_shifts: the predictor's cumulative ``n_level_shifts``
                after ingesting ``actual``.
            series: the series of ``key`` and ``predictor`` as
                :meth:`path_series` resolved it; looked up when omitted.

        Returns:
            The signed relative error, or ``None`` when not scored.
        """
        if series is None:
            series = self.path_series(key, (predictor,))[0]
        if forecast is None:
            series.n_not_ready += 1
            return None
        error = relative_error(float(forecast), float(actual))
        slo_breach, drift_alert, shift_reset = series.observe(error, level_shifts)
        if slo_breach or drift_alert or shift_reset:
            tele = get_telemetry()
            if slo_breach:
                tele.counter("serve.slo_breaches", predictor=predictor).inc()
            if drift_alert:
                tele.counter("predict.drift_alerts", predictor=predictor).inc()
                tele.emit(
                    "quality.drift",
                    path=key,
                    predictor=predictor,
                    windowed_p95=series.windowed_quantile(95.0),
                    ewma_abs_error=series.ewma_abs_error,
                    n_scored=series.n_scored,
                )
            if shift_reset:
                tele.emit(
                    "quality.level_shift_reset",
                    path=key,
                    predictor=predictor,
                    level_shifts=series.level_shifts_seen,
                )
        return error

    def observe_invalid(
        self, key: str, predictor: str, *, series: PredictorQuality | None = None
    ) -> None:
        """Count a sample the streaming layer flagged as invalid.

        Invalid (non-finite / non-positive) samples never reach the
        predictors, so there is no residual to score — Eq. (4) is
        undefined for them.  ``series`` as in :meth:`score`.
        """
        if series is None:
            series = self.path_series(key, (predictor,))[0]
        series.n_invalid += 1

    def drop(self, key: str) -> None:
        """Forget a path (the store evicted it)."""
        if self._paths.pop(key, None) is not None:
            self._discard_gauges(key)

    def _discard_gauges(self, key: str) -> None:
        """Remove a dropped path's gauges from the live registry."""
        if not obs_enabled():
            return
        metrics = get_telemetry().metrics
        metrics.discard_gauges("predict.rel_error", path=key)
        metrics.discard_gauges("predict.ewma_abs_error", path=key)

    # -- export ----------------------------------------------------------

    def update_gauges(self) -> None:
        """Publish windowed quantile + EWMA gauges to the live registry.

        Called on ``/metrics`` render (not per sample): gauge cardinality
        is ``paths x predictors x {0.5, 0.95}``, bounded by the LRU caps.
        """
        tele = get_telemetry()
        if not tele.enabled:
            return
        for key, by_predictor in self._paths.items():
            for name, series in by_predictor.items():
                p50 = series.windowed_quantile(50.0)
                if p50 is not None:
                    tele.gauge(
                        "predict.rel_error", path=key, predictor=name, quantile="0.5"
                    ).set(p50)
                    tele.gauge(
                        "predict.rel_error", path=key, predictor=name, quantile="0.95"
                    ).set(series.windowed_quantile(95.0))
                if series.ewma_abs_error is not None:
                    tele.gauge(
                        "predict.ewma_abs_error", path=key, predictor=name
                    ).set(series.ewma_abs_error)

    def path_summary(self, key: str) -> dict[str, Any] | None:
        """Per-predictor series summaries of one path, or ``None``."""
        by_predictor = self._paths.get(key)
        if by_predictor is None:
            return None
        return {name: series.summary() for name, series in by_predictor.items()}

    def summary(self, include_paths: bool = False) -> dict[str, Any]:
        """The tracker as one JSON-able document (routes, manifest, CLI).

        Per-predictor aggregates are exact over the full scored stream
        (means weight every scored epoch equally, across paths);
        ``worst_ewma_abs_error``/``worst_p95_abs_error`` name the path
        currently hurting most.
        """
        totals = {
            "paths": len(self._paths),
            "scored": 0,
            "not_ready": 0,
            "invalid": 0,
            "slo_breaches": 0,
            "drift_alerts": 0,
            "level_shift_resets": 0,
        }
        predictors: dict[str, dict[str, Any]] = {}
        for key, by_predictor in self._paths.items():
            for name, series in by_predictor.items():
                agg = predictors.get(name)
                if agg is None:
                    agg = predictors[name] = {
                        "paths": 0,
                        "scored": 0,
                        "not_ready": 0,
                        "invalid": 0,
                        "total_abs_error": 0.0,
                        "slo_breaches": 0,
                        "drift_alerts": 0,
                        "level_shift_resets": 0,
                        "worst_ewma_abs_error": None,
                        "worst_path": None,
                    }
                agg["paths"] += 1
                agg["scored"] += series.n_scored
                agg["not_ready"] += series.n_not_ready
                agg["invalid"] += series.n_invalid
                agg["total_abs_error"] += series.total_abs_error
                agg["slo_breaches"] += series.n_slo_breaches
                agg["drift_alerts"] += series.n_drift_alerts
                agg["level_shift_resets"] += series.n_level_shift_resets
                ewma = series.ewma_abs_error
                if ewma is not None and (
                    agg["worst_ewma_abs_error"] is None
                    or ewma > agg["worst_ewma_abs_error"]
                ):
                    agg["worst_ewma_abs_error"] = ewma
                    agg["worst_path"] = key
                totals["scored"] += series.n_scored
                totals["not_ready"] += series.n_not_ready
                totals["invalid"] += series.n_invalid
                totals["slo_breaches"] += series.n_slo_breaches
                totals["drift_alerts"] += series.n_drift_alerts
                totals["level_shift_resets"] += series.n_level_shift_resets
        for agg in predictors.values():
            scored = agg["scored"]
            total_abs = agg.pop("total_abs_error")
            agg["mean_abs_error"] = (total_abs / scored) if scored else None
        doc: dict[str, Any] = {
            "config": self.config.to_dict(),
            "totals": totals,
            "predictors": predictors,
        }
        if include_paths:
            doc["paths"] = {
                key: {name: series.summary() for name, series in by_predictor.items()}
                for key, by_predictor in self._paths.items()
            }
        return doc
