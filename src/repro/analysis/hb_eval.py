"""History-Based prediction accuracy: the analysis behind Figs. 15-23.

The unit of evaluation is the *trace*: a walk-forward one-step
evaluation of a predictor over the trace's throughput series yields a
per-trace RMSRE; the figures aggregate those RMSREs across traces.

The predictors (:func:`ma`, :func:`ewma`, :func:`hw`, :func:`with_lso`)
are :class:`~repro.hb.spec.PredictorSpec` s; a caller's own factory works
too, walked in memory.

The functions behind ``repro-analyze``'s HB figures (16, 17, 19-23)
read their walks by unit (:class:`~repro.analysis.evalcache.EvalUnit`)
from ``results``, the mapping the warm phase returns; called with the
dataset alone, they walk their units in memory first
(:func:`~repro.analysis.evalcache.evaluate_units`).  Either way one
body computes the figure, and a walk that failed raises, when the
figure reads it, the error :func:`~repro.hb.evaluate.evaluate_predictor`
raises for it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.evalcache import EvalUnit, UnitResult, UnitResults, evaluate_units
from repro.core.errors import DataError
from repro.core.metrics import Cdf, pearson_correlation, rmsre
from repro.hb.base import PredictorFactory
from repro.hb.evaluate import HbEvaluation, evaluate_predictor, lso_segmentation
from repro.hb.lso import LsoConfig
from repro.hb.spec import PredictorSpec
from repro.hb.wrappers import LsoPredictor
from repro.analysis import fb_eval
from repro.paths.records import Dataset, Trace

# ----------------------------------------------------------------------
# Standard predictors
# ----------------------------------------------------------------------


def ma(order: int) -> PredictorSpec:
    """An ``order``-MA predictor."""
    return PredictorSpec("ma", {"order": order})


def ewma(alpha: float) -> PredictorSpec:
    """An EWMA predictor."""
    return PredictorSpec("ewma", {"alpha": alpha})


def hw(alpha: float = 0.8, beta: float = 0.2) -> PredictorSpec:
    """A non-seasonal Holt-Winters predictor."""
    return PredictorSpec("hw", {"alpha": alpha, "beta": beta})


def with_lso(
    factory: PredictorFactory, config: LsoConfig | None = None
) -> PredictorFactory:
    """The predictor wrapped with the LSO heuristics (the paper's
    thresholds by default): a spec for a bare spec, else a factory
    wrapping the given one."""
    config = config or LsoConfig()
    if isinstance(factory, PredictorSpec) and factory.lso is None:
        return replace(factory, lso=config)
    return lambda: LsoPredictor(factory, config)


#: The predictor set of Fig. 21's per-trace bars.
FIG21_PREDICTORS: dict[str, PredictorFactory] = {
    "1-MA": ma(1),
    "10-MA": ma(10),
    "HW": hw(),
    "HW-LSO": with_lso(hw()),
}

#: Fig. 23's transfer intervals: label -> down-sampling factor of the
#: ~3-minute traces (6, 24 and 45-minute periods, as in the paper).
INTERVALS: dict[str, int] = {"3min": 1, "6min": 2, "24min": 8, "45min": 15}

#: The outlier exclusion of Fig. 20's RMSRE, whose segmentation gives
#: the CoV: the paper's default LSO thresholds.
FIG20_EXCLUSION = LsoConfig()


def _read(
    dataset: Dataset, units: Iterable[EvalUnit], results: UnitResults | None
) -> UnitResults:
    """``results``, or the units walked over ``dataset`` in memory."""
    return evaluate_units(dataset, units) if results is None else results


def _walked(result: UnitResult) -> HbEvaluation:
    """The walk, or the error that voided it raised."""
    if isinstance(result, DataError):
        raise result
    return result


def _ordinals_by_path(dataset: Dataset) -> dict[str, list[int]]:
    """Each path's trace positions in ``dataset``, paths in first-appearance order."""
    ordinals: dict[str, list[int]] = {}
    for ordinal, trace in enumerate(dataset.traces):
        ordinals.setdefault(trace.path_id, []).append(ordinal)
    return ordinals


# ----------------------------------------------------------------------
# Per-trace RMSRE helpers
# ----------------------------------------------------------------------


def trace_rmsre(
    trace: Trace,
    factory: PredictorFactory,
    small_window: bool = False,
    exclude_outliers: bool = False,
) -> float:
    """One predictor's RMSRE over one trace."""
    series = trace.throughput_series(small_window=small_window)
    lso_config = LsoConfig() if exclude_outliers else None
    evaluation = evaluate_predictor(series, factory, lso_config=lso_config)
    return evaluation.rmsre(exclude_outliers=exclude_outliers)


def rmsre_per_trace(
    dataset: Dataset, factory: PredictorFactory, small_window: bool = False
) -> list[float]:
    """RMSREs of one predictor across all traces of the dataset."""
    values = [
        trace_rmsre(trace, factory, small_window=small_window) for trace in dataset
    ]
    if not values:
        raise DataError("dataset has no traces")
    return values


# ----------------------------------------------------------------------
# Fig. 15 — exemplar traces with shifts / trends / outliers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExemplarTrace:
    """One Fig. 15 panel: a trace and its per-predictor RMSREs."""

    trace_name: str
    n_level_shifts: int
    n_outliers: int
    rmsres: dict[str, float]


def exemplar_traces(
    dataset: Dataset,
    predictors: dict[str, PredictorFactory] | None = None,
    max_examples: int = 3,
) -> list[ExemplarTrace]:
    """Fig. 15: traces exhibiting level shifts and outliers, with the
    RMSRE of each candidate predictor.

    Traces are ranked by how much LSO structure they contain (shifts
    first, then outliers), mirroring the three exemplar panels.
    """
    if predictors is None:
        predictors = {
            "10-MA": ma(10),
            "10-MA-LSO": with_lso(ma(10)),
            "0.8-EWMA": ewma(0.8),
            "HW": hw(),
            "HW-LSO": with_lso(hw()),
        }
    scored = []
    for trace in dataset:
        series = trace.throughput_series()
        seg = lso_segmentation(series.values)
        score = 10 * len(seg.shift_indices) + len(seg.outlier_indices)
        if score == 0:
            continue
        scored.append((score, trace, seg))
    scored.sort(key=lambda item: -item[0])
    if not scored:
        raise DataError("no traces with level shifts or outliers found")

    examples = []
    for _, trace, seg in scored[:max_examples]:
        series = trace.throughput_series()
        examples.append(
            ExemplarTrace(
                trace_name=series.name,
                n_level_shifts=len(seg.shift_indices),
                n_outliers=len(seg.outlier_indices),
                rmsres={
                    name: rmsre(
                        evaluate_predictor(series, factory).valid_errors
                    )
                    for name, factory in predictors.items()
                },
            )
        )
    return examples


# ----------------------------------------------------------------------
# Figs. 16-17 — predictor families with and without LSO
# ----------------------------------------------------------------------


def predictor_cdfs(
    dataset: Dataset,
    predictors: dict[str, PredictorFactory],
    results: UnitResults | None = None,
) -> dict[str, Cdf]:
    """CDF of per-trace RMSRE for each candidate predictor.

    Figs. 16 and 17 are exactly this, for MA and HW families.
    """
    units = {name: EvalUnit(factory) for name, factory in predictors.items()}
    results = _read(dataset, units.values(), results)
    cdfs = {}
    for name, predictor_unit in units.items():
        values = [_walked(result).rmsre() for result in results[predictor_unit]]
        if not values:
            raise DataError("dataset has no traces")
        cdfs[name] = Cdf.from_values(values, label=name)
    return cdfs


def ma_family(orders: tuple[int, ...] = (1, 5, 10, 20)) -> dict[str, PredictorFactory]:
    """Fig. 16's predictor set: n-MA with and without LSO."""
    family: dict[str, PredictorFactory] = {}
    for order in orders:
        family[f"{order}-MA"] = ma(order)
        family[f"{order}-MA-LSO"] = with_lso(ma(order))
    return family


def hw_family(
    alphas: tuple[float, ...] = (0.2, 0.5, 0.8)
) -> dict[str, PredictorFactory]:
    """Fig. 17's predictor set: alpha-HW with and without LSO."""
    family: dict[str, PredictorFactory] = {}
    for alpha in alphas:
        family[f"{alpha:g}-HW"] = hw(alpha)
        family[f"{alpha:g}-HW-LSO"] = with_lso(hw(alpha))
    return family


# ----------------------------------------------------------------------
# Fig. 18 — LSO parameter sensitivity
# ----------------------------------------------------------------------


def lso_sensitivity(
    dataset: Dataset,
    order: int = 5,
    chi_values: tuple[float, ...] = (0.2, 0.3, 0.4),
    psi_values: tuple[float, ...] = (0.3, 0.4, 0.5),
) -> dict[str, Cdf]:
    """Fig. 18: |E| CDFs for MA-LSO under different chi/psi settings."""
    cdfs: dict[str, Cdf] = {}
    for chi in chi_values:
        for psi in psi_values:
            config = LsoConfig(level_shift_threshold=chi, outlier_threshold=psi)
            abs_errors: list[float] = []
            for trace in dataset:
                series = trace.throughput_series()
                evaluation = evaluate_predictor(
                    series, with_lso(ma(order), config)
                )
                abs_errors.extend(np.abs(evaluation.valid_errors).tolist())
            label = f"chi={chi:g}, psi={psi:g}"
            cdfs[label] = Cdf.from_values(abs_errors, label=label)
    return cdfs


# ----------------------------------------------------------------------
# Fig. 19 — FB vs HB per-trace RMSRE
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FbHbComparison:
    """Fig. 19: per-trace RMSRE CDFs of the FB and an HB predictor."""

    fb: Cdf
    hb: Cdf

    def summary(self) -> str:
        return "\n".join(
            [
                self.fb.summary(),
                self.hb.summary(),
                f"HB RMSRE < 0.4 for {self.hb.fraction_below(0.4):.0%} of traces "
                f"(FB: {self.fb.fraction_below(0.4):.0%})",
            ]
        )


def fb_vs_hb(
    dataset: Dataset,
    hb_factory: PredictorFactory | None = None,
    results: UnitResults | None = None,
) -> FbHbComparison:
    """Fig. 19: FB against HB (HW-LSO by default), per-trace RMSRE."""
    hb_unit = EvalUnit(hb_factory or with_lso(hw()))
    fb_rmsres = fb_eval.rmsre_per_trace(dataset)
    results = _read(dataset, [hb_unit], results)
    hb_rmsres = [_walked(result).rmsre() for result in results[hb_unit]]
    return FbHbComparison(
        fb=Cdf.from_values(fb_rmsres, label="FB per-trace RMSRE"),
        hb=Cdf.from_values(hb_rmsres, label="HB (HW-LSO) per-trace RMSRE"),
    )


# ----------------------------------------------------------------------
# Fig. 20 — RMSRE vs CoV
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CovRelation:
    """Fig. 20: per-trace (CoV, RMSRE) pairs and their correlation."""

    covs: np.ndarray
    rmsres: np.ndarray

    def correlation(self) -> float:
        return pearson_correlation(self.covs, self.rmsres)


def cov_correlation(
    dataset: Dataset,
    hb_factory: PredictorFactory | None = None,
    results: UnitResults | None = None,
) -> CovRelation:
    """Fig. 20: HW-LSO RMSRE against the trace CoV.

    The CoV is computed per Section 6.1.3: stationary segments between
    detected level shifts, outliers excluded, weighted by segment
    length; the RMSRE likewise excludes outlier epochs.  Both come from
    one walk per trace, whose outlier exclusion's detections give the
    segments (:meth:`~repro.hb.evaluate.HbEvaluation.segmentation`).
    """
    hb_unit = EvalUnit(hb_factory or with_lso(hw()), exclusion=FIG20_EXCLUSION)
    results = _read(dataset, [hb_unit], results)
    covs, rmsres_ = [], []
    for trace, result in zip(dataset, results[hb_unit]):
        values = trace.throughput_series().values
        if isinstance(result, DataError):
            # The walk failed: segment the series on its own, which
            # raises for an invalid series what it always has; a
            # predictor's failure surfaces below, as the RMSRE's.
            seg = lso_segmentation(values, FIG20_EXCLUSION)
        else:
            seg = result.segmentation(values)
        try:
            covs.append(seg.weighted_cov())
        except DataError:
            continue
        rmsres_.append(_walked(result).rmsre(exclude_outliers=True))
    if len(covs) < 2:
        raise DataError("not enough traces for the CoV relation")
    return CovRelation(covs=np.asarray(covs), rmsres=np.asarray(rmsres_))


# ----------------------------------------------------------------------
# Fig. 21 — path predictability classes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PathClass:
    """One path's per-trace RMSREs and its predictability class."""

    path_id: str
    rmsres_by_predictor: dict[str, list[float]]
    mean_rmsre: float
    rmsre_std: float
    label: str


#: Class thresholds (mean RMSRE, std of RMSRE across traces) chosen to
#: mirror the paper's four Fig. 21 panels.
CLASS_THRESHOLDS = {
    "predictable": (0.25, np.inf),
    "stable-errors": (0.6, 0.15),
    "varying-errors": (0.6, np.inf),
    "unpredictable": (np.inf, np.inf),
}


def classify_path(mean_rmsre: float, rmsre_std: float) -> str:
    """The paper's four-way predictability classification."""
    if mean_rmsre < 0.25:
        return "predictable"
    if mean_rmsre < 0.6:
        return "stable-errors" if rmsre_std < 0.15 else "varying-errors"
    return "unpredictable"


def path_classes(
    dataset: Dataset,
    predictors: dict[str, PredictorFactory] | None = None,
    results: UnitResults | None = None,
) -> list[PathClass]:
    """Fig. 21: per-path, per-trace RMSRE for the standard predictor set,
    plus the four-way predictability class (based on HW-LSO)."""
    predictors = predictors or FIG21_PREDICTORS
    units = {name: EvalUnit(factory) for name, factory in predictors.items()}
    results = _read(dataset, units.values(), results)
    classes = []
    for path_id, ordinals in _ordinals_by_path(dataset).items():
        by_predictor = {
            name: [_walked(results[predictor_unit][k]).rmsre() for k in ordinals]
            for name, predictor_unit in units.items()
        }
        reference = by_predictor.get("HW-LSO") or next(iter(by_predictor.values()))
        mean_rmsre = float(np.mean(reference))
        rmsre_std = float(np.std(reference))
        classes.append(
            PathClass(
                path_id=path_id,
                rmsres_by_predictor=by_predictor,
                mean_rmsre=mean_rmsre,
                rmsre_std=rmsre_std,
                label=classify_path(mean_rmsre, rmsre_std),
            )
        )
    return classes


# ----------------------------------------------------------------------
# Section 6.1.4 — HB error vs path loss rate on lossy paths
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LossyPathRelation:
    """Per-path (mean a priori loss rate, mean HB RMSRE) pairs.

    Section 6.1.4: across *all* paths no path metric explained HB
    accuracy, except on paths with a priori loss above 0.5%, where the
    RMSRE correlates strongly with the loss rate (0.72-0.94).
    """

    loss_rates: np.ndarray
    rmsres: np.ndarray
    path_ids: tuple[str, ...]

    def correlation(self) -> float:
        return pearson_correlation(self.loss_rates, self.rmsres)


def lossy_path_correlation(
    dataset: Dataset,
    min_loss: float = 0.005,
    hb_factory: PredictorFactory | None = None,
) -> LossyPathRelation:
    """Section 6.1.4: RMSRE vs a priori loss rate, lossy paths only.

    A path qualifies when its mean a priori loss rate exceeds
    ``min_loss`` (the paper's 0.5% threshold).

    Raises:
        DataError: when fewer than three paths qualify.
    """
    hb_factory = hb_factory or with_lso(hw())
    loss_rates, rmsres_, ids = [], [], []
    for path_id in dataset.path_ids:
        traces = dataset.traces_for(path_id)
        mean_loss = float(np.mean(np.concatenate([t.phat for t in traces])))
        if mean_loss < min_loss:
            continue
        loss_rates.append(mean_loss)
        rmsres_.append(float(np.mean([trace_rmsre(t, hb_factory) for t in traces])))
        ids.append(path_id)
    if len(ids) < 3:
        raise DataError(
            f"only {len(ids)} paths with mean a priori loss above {min_loss}"
        )
    return LossyPathRelation(
        loss_rates=np.asarray(loss_rates),
        rmsres=np.asarray(rmsres_),
        path_ids=tuple(ids),
    )


# ----------------------------------------------------------------------
# Fig. 22 — HB accuracy for window-limited flows
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HbWindowComparison:
    """One path's HB RMSRE under both window settings (Fig. 22)."""

    path_id: str
    rmsre_large_window: float
    rmsre_small_window: float


def window_limited_hb(
    dataset: Dataset,
    hb_factory: PredictorFactory | None = None,
    results: UnitResults | None = None,
) -> list[HbWindowComparison]:
    """Fig. 22: HB RMSRE on W = 1 MB vs W = 20 KB series, per path."""
    hb_factory = hb_factory or with_lso(hw())
    large_unit = EvalUnit(hb_factory)
    small_unit = EvalUnit(hb_factory, small_window=True)
    results = _read(dataset, [large_unit, small_unit], results)
    comparisons = []
    for path_id, ordinals in _ordinals_by_path(dataset).items():
        try:
            large = [_walked(results[large_unit][k]).rmsre() for k in ordinals]
            small = [_walked(results[small_unit][k]).rmsre() for k in ordinals]
        except DataError:
            continue
        comparisons.append(
            HbWindowComparison(
                path_id=path_id,
                rmsre_large_window=float(np.mean(large)),
                rmsre_small_window=float(np.mean(small)),
            )
        )
    if not comparisons:
        raise DataError("dataset has no small-window measurements")
    return comparisons


# ----------------------------------------------------------------------
# Fig. 23 — the effect of the transfer interval
# ----------------------------------------------------------------------


def interval_effect(
    dataset: Dataset,
    downsample_factors: dict[str, int] | None = None,
    hb_factory: PredictorFactory | None = None,
    results: UnitResults | None = None,
) -> dict[str, Cdf]:
    """Fig. 23: per-trace RMSRE CDFs at longer transfer intervals.

    The paper down-samples its ~3-minute traces to 6, 24, and 45-minute
    periods; with the default factors (:data:`INTERVALS`) the same
    intervals result here.
    """
    hb_factory = hb_factory or with_lso(hw())
    downsample_factors = downsample_factors or INTERVALS
    units = {
        label: EvalUnit(hb_factory, downsample=factor)
        for label, factor in downsample_factors.items()
    }
    results = _read(dataset, units.values(), results)
    cdfs: dict[str, Cdf] = {}
    for label, factor in downsample_factors.items():
        rmsres_ = []
        for trace, result in zip(dataset, results[units[label]]):
            # The length of the down-sampled series the unit walked.
            if len(trace.throughput_mbps[::factor]) < 5:
                continue
            evaluation = _walked(result)
            if evaluation.valid_errors.size == 0:
                continue
            rmsres_.append(rmsre(evaluation.valid_errors))
        if not rmsres_:
            raise DataError(f"no traces long enough for factor {factor}")
        cdfs[label] = Cdf.from_values(rmsres_, label=f"interval {label}")
    return cdfs
