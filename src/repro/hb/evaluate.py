"""One-step evaluation of HB predictors over throughput traces.

:func:`evaluate_predictor` performs the walk-forward evaluation behind
every HB figure of the paper: at each epoch the predictor (built fresh
for the trace) forecasts the next throughput from the history so far,
the relative error (Eq. 4) is recorded, and the trace's accuracy is
summarised with RMSRE (Eq. 5).  :func:`evaluate_predictors` evaluates
several predictors over one trace in one pass, LSO wrappers with equal
thresholds sharing one kernel; its results are those of
:func:`evaluate_predictor` on each predictor alone, bit for bit.  The
walk itself is :func:`~repro.hb.vector_eval.vector_walk`, the one loop
every predictor takes.

:func:`lso_segmentation` runs the paper's LSO heuristics over a whole
trace and reports the final outlier indices and stationary segments —
what Section 6.1.3 needs to compute a trace's CoV (weighted across
stationary periods, outliers excluded) and to exclude outliers from the
RMSRE of Fig. 20.  It drives the same LSO kernel
(:class:`~repro.hb.lso.LsoKernel`) the LSO predictor wraps, tracking
original epoch indices alongside (:class:`EpochTrack`).  An evaluation's
outlier exclusion tracks the kernel of its own pass the same way, so a
pass that walks an LSO wrapper with the exclusion's thresholds detects
the trace's LSO structure once.

An evaluation cache (:mod:`repro.analysis.evalcache`) can be installed
with :func:`set_active_eval_cache`; :func:`evaluate_predictor` then
consults it before walking and records fresh results after.  The hook
lives here (rather than in the analysis layer) so cache activation does
not create an hb -> analysis import cycle.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from time import perf_counter
from typing import Protocol

import numpy as np

from repro.core.errors import DataError
from repro.core.metrics import rmsre, segmented_cov
from repro.core.timeseries import TimeSeries
from repro.hb.base import HistoryPredictor, PredictorFactory
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
        """Record a freshly computed evaluation."""
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


def _checked_values(series: TimeSeries) -> np.ndarray:
    """The series' samples, after checking each is positive and finite.

    Raises:
        DataError: naming the first bad sample by epoch and series.
    """
    values = series.values
    epoch = first_invalid_sample(values)
    if epoch is not None:
        raise DataError(
            f"throughput must be positive and finite, got {float(values[epoch])} "
            f"at epoch {epoch} of series {series.name!r}"
        )
    return values


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
            predictor sees it — or when the predictor forecasts a
            non-positive value.
    """
    values = _checked_values(series)
    predictor = factory()

    cache = _ACTIVE_EVAL_CACHE
    if cache is not None:
        cached = cache.lookup(series, predictor, lso_config)
        if cached is not None:
            return cached

    (evaluation,) = _evaluate_pass(series, values, [predictor], [(0, lso_config)])
    if isinstance(evaluation, DataError):
        raise evaluation
    if cache is not None:
        cache.record(series, predictor, lso_config, evaluation)
    return evaluation


def evaluate_predictors(
    series: TimeSeries,
    walks: Sequence[tuple[PredictorFactory, LsoConfig | None]],
) -> list[HbEvaluation | None]:
    """:func:`evaluate_predictor` for several predictors, in one pass.

    Each walk is a ``(factory, lso_config)`` pair, as the two arguments
    of :func:`evaluate_predictor`.  Walks that name the same factory
    object share one predictor (its forecasts do not depend on the
    outlier exclusion), LSO wrappers with equal thresholds and every
    exclusion with those thresholds share one LSO kernel, and each
    result equals :func:`evaluate_predictor`'s for its walk, bit for bit.
    The active evaluation cache is not consulted.

    Returns:
        One evaluation per walk, in order; ``None`` for a walk whose
        predictor raised :class:`~repro.core.errors.DataError` (e.g. a
        non-positive forecast), which voids that predictor's walks only.

    Raises:
        DataError: when the trace carries a non-positive or non-finite
            sample, named by epoch and series; it voids every walk.
    """
    values = _checked_values(series)
    slots: dict[int, int] = {}  # id(factory) -> its predictor's position
    predictors: list[HistoryPredictor] = []
    for factory, _ in walks:
        if id(factory) not in slots:
            slots[id(factory)] = len(predictors)
            predictors.append(factory())
    try:
        results = _evaluate_pass(
            series, values, predictors, [(slots[id(f)], lso) for f, lso in walks]
        )
    except DataError:
        if len(predictors) == 1:
            return [None] * len(walks)
        # A predictor failed mid-walk: walk each alone, so the failure
        # voids its own walks and no others.
        return [
            evaluation
            for walk in walks
            for evaluation in evaluate_predictors(series, [walk])
        ]
    return [None if isinstance(r, DataError) else r for r in results]


def _evaluate_pass(
    series: TimeSeries,
    values: np.ndarray,
    predictors: list[HistoryPredictor],
    walks: list[tuple[int, LsoConfig | None]],
) -> list[HbEvaluation | DataError]:
    """Walk fresh ``predictors`` over checked ``values`` in one pass.

    Each walk is ``(predictor position, lso_config)``.  A predictor whose
    errors are undefined (a non-positive forecast) yields its
    :class:`~repro.core.errors.DataError` for each of its walks instead
    of an evaluation.  Telemetry: one ``predict.wall_s{predictor=hb}``
    sample for the pass, and ``predictions.made{predictor=…}`` by each
    evaluated predictor's forecast count.

    Raises:
        DataError: from a predictor that raised it mid-walk.
    """
    tracks = {lso: EpochTrack() for _, lso in walks if lso is not None}
    started = perf_counter()
    rows = vector_walk(
        values, predictors, {lso: track.record for lso, track in tracks.items()}
    )
    outcomes: list[np.ndarray | DataError] = []
    for predictions in rows:
        try:
            outcomes.append(vector_errors(predictions, values))
        except DataError as exc:
            outcomes.append(exc)
    elapsed = perf_counter() - started

    names = [getattr(p, "name", type(p).__name__) for p in predictors]
    tele = get_telemetry()
    if tele.enabled:
        made = [
            0 if isinstance(outcome, DataError)
            else int(np.count_nonzero(~np.isnan(predictions)))
            for predictions, outcome in zip(rows, outcomes)
        ]
        if any(made):
            # One timer sample per pass (covering every forecast of every
            # predictor in it) and one counter bump per predictor.
            tele.metrics.timer("predict.wall_s", predictor="hb").observe(elapsed)
            for name, count in zip(names, made):
                if count:
                    tele.metrics.counter("predictions.made", predictor=name).inc(count)

    outliers = {lso: frozenset(track.outlier_indices) for lso, track in tracks.items()}
    results: list[HbEvaluation | DataError] = []
    for position, lso in walks:
        errors = outcomes[position]
        if isinstance(errors, DataError):
            results.append(errors)
            continue
        results.append(
            HbEvaluation(
                predictor_name=names[position],
                series_name=series.name,
                predictions=rows[position],
                errors=errors,
                outlier_indices=frozenset() if lso is None else outliers[lso],
            )
        )
    return results


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
    add = LsoKernel(config).add
    track = EpochTrack()
    record = track.record
    for value in vals.tolist():
        record(*add(value))
    return _assemble_segmentation(vals, track.outlier_indices, track.shift_indices)


class EpochTrack:
    """Original epoch indices of an LSO kernel's detections.

    :meth:`record` takes the kernel's answer to each sample, in order,
    and keeps the original epoch of every clean-history sample, so the
    outliers and shifts the kernel reports by history position are
    recorded by epoch.

    Attributes:
        outlier_indices: epochs discarded as outliers, in detection order.
        shift_indices: first epoch after each level shift, in order.
    """

    __slots__ = ("_indices", "_count", "outlier_indices", "shift_indices")

    def __init__(self) -> None:
        self._indices: list[int] = []  # original epoch of each history sample
        self._count = 0
        self.outlier_indices: list[int] = []
        self.shift_indices: list[int] = []

    def record(self, outliers: list[int], shift: int | None) -> None:
        """Record the kernel's answer to the next sample."""
        indices = self._indices
        indices.append(self._count)
        self._count += 1
        if outliers:
            self.outlier_indices.extend(indices[k] for k in outliers)
            for k in reversed(outliers):
                del indices[k]
        if shift is not None:
            self.shift_indices.append(indices[shift])
            del indices[:shift]


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
