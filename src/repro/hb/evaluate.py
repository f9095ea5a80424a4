"""One-step evaluation of HB predictors over throughput traces.

:func:`evaluate_predictor` performs the walk-forward evaluation behind
every HB figure of the paper: at each epoch the predictor (built fresh
for the trace) forecasts the next throughput from the history so far,
the relative error (Eq. 4) is recorded, and the trace's accuracy is
summarised with RMSRE (Eq. 5).  The walk itself is
:func:`~repro.hb.vector_eval.vector_walk`, the one loop every predictor
takes.

:func:`lso_segmentation` runs the paper's LSO heuristics over a whole
trace and reports the final outlier indices and stationary segments —
what Section 6.1.3 needs to compute a trace's CoV (weighted across
stationary periods, outliers excluded) and to exclude outliers from the
RMSRE of Fig. 20.  It drives the same LSO kernel
(:class:`~repro.hb.lso.LsoKernel`) the LSO predictor wraps, tracking
original epoch indices alongside.

An evaluation cache (:mod:`repro.analysis.evalcache`) can be installed
with :func:`set_active_eval_cache`; :func:`evaluate_predictor` then
consults it before walking and records fresh results after.  The hook
lives here (rather than in the analysis layer) so cache activation does
not create an hb -> analysis import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Protocol

import numpy as np

from repro.core.errors import DataError
from repro.core.metrics import rmsre, segmented_cov
from repro.core.timeseries import TimeSeries
from repro.hb.base import PredictorFactory
from repro.hb.lso import LsoConfig, LsoKernel, first_invalid_sample
from repro.hb.vector_eval import vector_errors, vector_walk
from repro.obs import get_telemetry


@dataclass(frozen=True)
class HbEvaluation:
    """Result of walking one predictor over one trace.

    Attributes:
        predictor_name: label of the evaluated predictor.
        series_name: label of the trace.
        predictions: per-epoch forecasts; NaN before the predictor had
            enough history.
        errors: per-epoch relative errors (Eq. 4); NaN where no forecast
            was made.
        outlier_indices: epochs flagged as outliers by the final LSO
            segmentation of the trace (empty when LSO is not used).
    """

    predictor_name: str
    series_name: str
    predictions: np.ndarray
    errors: np.ndarray
    outlier_indices: frozenset[int] = field(default_factory=frozenset)

    @property
    def valid_errors(self) -> np.ndarray:
        """All recorded errors (forecast epochs only)."""
        return self.errors[~np.isnan(self.errors)]

    def rmsre(self, exclude_outliers: bool = False) -> float:
        """Trace RMSRE (Eq. 5) over the forecast epochs.

        Args:
            exclude_outliers: drop epochs flagged as outliers, as the
                paper does when comparing RMSRE against CoV (Fig. 20).
        """
        mask = ~np.isnan(self.errors)
        if exclude_outliers and self.outlier_indices:
            keep = np.ones_like(mask)
            keep[list(self.outlier_indices)] = False
            mask &= keep
        errors = self.errors[mask]
        if errors.size == 0:
            raise DataError("no forecast epochs to compute RMSRE over")
        return rmsre(errors)

    def mean_absolute_error(self) -> float:
        """Mean |E| over the forecast epochs."""
        errors = self.valid_errors
        if errors.size == 0:
            raise DataError("no forecast epochs")
        return float(np.mean(np.abs(errors)))


class EvaluationCacheHook(Protocol):
    """What :func:`evaluate_predictor` asks of an installed cache."""

    def lookup(
        self,
        series: TimeSeries,
        predictor: object,
        lso_config: LsoConfig | None,
    ) -> "HbEvaluation | None":
        """A previously recorded evaluation, or None on a miss."""
        ...

    def record(
        self,
        series: TimeSeries,
        predictor: object,
        lso_config: LsoConfig | None,
        evaluation: "HbEvaluation",
    ) -> None:
        """Persist a freshly computed evaluation."""
        ...


_ACTIVE_EVAL_CACHE: EvaluationCacheHook | None = None


def set_active_eval_cache(
    cache: EvaluationCacheHook | None,
) -> EvaluationCacheHook | None:
    """Install (or clear, with ``None``) the process-wide evaluation cache.

    Returns the previously installed cache so callers can restore it.
    """
    global _ACTIVE_EVAL_CACHE
    previous = _ACTIVE_EVAL_CACHE
    _ACTIVE_EVAL_CACHE = cache
    return previous


def active_eval_cache() -> EvaluationCacheHook | None:
    """The currently installed evaluation cache, if any."""
    return _ACTIVE_EVAL_CACHE


def evaluate_predictor(
    series: TimeSeries,
    factory: PredictorFactory,
    lso_config: LsoConfig | None = None,
) -> HbEvaluation:
    """Walk-forward one-step evaluation of a predictor over a trace.

    Args:
        series: the throughput trace (values must be positive and finite).
        factory: builds the predictor instance evaluated on this trace.
        lso_config: when given, the trace's final LSO segmentation is
            computed so outlier epochs can be excluded from RMSRE (used
            for Fig. 20).  This does not wrap the predictor in LSO — pass
            an :class:`~repro.hb.wrappers.LsoPredictor` factory for that.

    Returns:
        The per-epoch forecasts and errors.

    Raises:
        DataError: when the trace carries a non-positive or non-finite
            sample — named by epoch and series, up front, before any
            predictor sees it.
    """
    values = series.values
    epoch = first_invalid_sample(values)
    if epoch is not None:
        raise DataError(
            f"throughput must be positive and finite, got {float(values[epoch])} "
            f"at epoch {epoch} of series {series.name!r}"
        )

    predictor = factory()
    name = getattr(predictor, "name", type(predictor).__name__)

    cache = _ACTIVE_EVAL_CACHE
    if cache is not None:
        cached = cache.lookup(series, predictor, lso_config)
        if cached is not None:
            return cached

    started = perf_counter()
    predictions = vector_walk(values, predictor)
    errors = vector_errors(predictions, values)
    elapsed = perf_counter() - started

    tele = get_telemetry()
    if tele.enabled:
        made = int(np.count_nonzero(~np.isnan(predictions)))
        if made:
            # One sample per walk (covering every forecast of the trace)
            # and one counter bump for all of them: the instrumented path
            # no longer pays per-epoch clock reads and handle lookups.
            tele.metrics.timer("predict.wall_s", predictor=name).observe(elapsed)
            tele.metrics.counter("predictions.made", predictor=name).inc(made)

    outliers: frozenset[int] = frozenset()
    if lso_config is not None:
        outliers = frozenset(lso_segmentation(values, lso_config).outlier_indices)

    evaluation = HbEvaluation(
        predictor_name=name,
        series_name=series.name,
        predictions=predictions,
        errors=errors,
        outlier_indices=outliers,
    )
    if cache is not None:
        cache.record(series, predictor, lso_config, evaluation)
    return evaluation


@dataclass(frozen=True)
class LsoSegmentation:
    """Final LSO structure of a trace.

    Attributes:
        outlier_indices: original epoch indices flagged as outliers.
        shift_indices: original epoch indices at which a level shift was
            detected (index of the first post-shift sample).
        segments: the stationary segments — values of consecutive
            non-outlier epochs between shift boundaries.
    """

    outlier_indices: tuple[int, ...]
    shift_indices: tuple[int, ...]
    segments: tuple[tuple[float, ...], ...]

    def weighted_cov(self) -> float:
        """Trace CoV per Section 6.1.3: segment CoVs weighted by length."""
        return segmented_cov([list(seg) for seg in self.segments])


def lso_segmentation(
    values: np.ndarray | list[float], config: LsoConfig | None = None
) -> LsoSegmentation:
    """Run the LSO heuristics over a full trace.

    Feeds the trace through the same LSO kernel the
    :class:`~repro.hb.wrappers.LsoPredictor` runs, keeping a list of the
    original epoch index of every clean-history sample so the caller
    learns *which* epochs were outliers and where the stationary
    segments lie.

    Raises:
        DataError: when the trace carries a non-positive or non-finite
            sample, named by epoch.
    """
    vals = np.asarray(values, dtype=float)
    epoch = first_invalid_sample(vals)
    if epoch is not None:
        raise DataError(
            f"throughput must be positive and finite, got {float(vals[epoch])} "
            f"at epoch {epoch}"
        )
    lso = LsoKernel(config)
    indices: list[int] = []  # original epoch of each clean-history sample
    outlier_indices: list[int] = []
    shift_indices: list[int] = []
    for idx, value in enumerate(vals.tolist()):
        indices.append(idx)
        outliers, shift = lso.add(value)
        if outliers:
            outlier_indices.extend(indices[k] for k in outliers)
            for k in reversed(outliers):
                del indices[k]
        if shift is not None:
            shift_indices.append(indices[shift])
            del indices[:shift]
    return _assemble_segmentation(vals, outlier_indices, shift_indices)


def _assemble_segmentation(
    vals: np.ndarray, outlier_indices: list[int], shift_indices: list[int]
) -> LsoSegmentation:
    """Build segments: non-outlier indices partitioned at shift boundaries."""
    outlier_set = set(outlier_indices)
    n = len(vals)
    boundaries = sorted(set(shift_indices))
    segments: list[tuple[float, ...]] = []
    start = 0
    for boundary in [*boundaries, n]:
        segment = tuple(
            float(vals[i]) for i in range(start, boundary) if i not in outlier_set
        )
        if segment:
            segments.append(segment)
        start = boundary

    return LsoSegmentation(
        outlier_indices=tuple(sorted(outlier_set)),
        shift_indices=tuple(boundaries),
        segments=tuple(segments),
    )
