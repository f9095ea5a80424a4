"""History-Based prediction accuracy: the analysis behind Figs. 15-23.

The unit of evaluation is the *trace*: a walk-forward one-step
evaluation of a predictor over the trace's throughput series yields a
per-trace RMSRE; the figures aggregate those RMSREs across traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import DataError
from repro.core.metrics import Cdf, pearson_correlation, rmsre
from repro.hb.base import PredictorFactory
from repro.hb.evaluate import evaluate_predictor, lso_segmentation
from repro.hb.ewma import Ewma
from repro.hb.holt_winters import HoltWinters
from repro.hb.lso import LsoConfig
from repro.hb.moving_average import MovingAverage
from repro.hb.wrappers import LsoPredictor
from repro.analysis import fb_eval
from repro.paths.records import Dataset, Trace

# ----------------------------------------------------------------------
# Standard predictor factories
# ----------------------------------------------------------------------


def ma(order: int) -> PredictorFactory:
    """Factory for an ``order``-MA predictor."""
    return lambda: MovingAverage(order)


def ewma(alpha: float) -> PredictorFactory:
    """Factory for an EWMA predictor."""
    return lambda: Ewma(alpha)


def hw(alpha: float = 0.8, beta: float = 0.2) -> PredictorFactory:
    """Factory for a non-seasonal Holt-Winters predictor."""
    return lambda: HoltWinters(alpha, beta)


def with_lso(
    factory: PredictorFactory, config: LsoConfig | None = None
) -> PredictorFactory:
    """Wrap a factory with the LSO heuristics."""
    return lambda: LsoPredictor(factory, config)


#: The predictor set of Fig. 21's per-trace bars.
FIG21_PREDICTORS: dict[str, PredictorFactory] = {
    "1-MA": ma(1),
    "10-MA": ma(10),
    "HW": hw(),
    "HW-LSO": with_lso(hw()),
}


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
    dataset: Dataset, predictors: dict[str, PredictorFactory]
) -> dict[str, Cdf]:
    """CDF of per-trace RMSRE for each candidate predictor.

    Figs. 16 and 17 are exactly this, for MA and HW families.
    """
    return {
        name: Cdf.from_values(rmsre_per_trace(dataset, factory), label=name)
        for name, factory in predictors.items()
    }


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
    dataset: Dataset, hb_factory: PredictorFactory | None = None
) -> FbHbComparison:
    """Fig. 19: FB against HB (HW-LSO by default), per-trace RMSRE."""
    hb_factory = hb_factory or with_lso(hw())
    fb_rmsres = fb_eval.rmsre_per_trace(dataset)
    hb_rmsres = [trace_rmsre(trace, hb_factory) for trace in dataset]
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
    dataset: Dataset, hb_factory: PredictorFactory | None = None
) -> CovRelation:
    """Fig. 20: HW-LSO RMSRE against the trace CoV.

    The CoV is computed per Section 6.1.3: stationary segments between
    detected level shifts, outliers excluded, weighted by segment
    length; the RMSRE likewise excludes outlier epochs.
    """
    hb_factory = hb_factory or with_lso(hw())
    covs, rmsres_ = [], []
    for trace in dataset:
        series = trace.throughput_series()
        seg = lso_segmentation(series.values)
        try:
            covs.append(seg.weighted_cov())
        except DataError:
            continue
        rmsres_.append(
            trace_rmsre(trace, hb_factory, exclude_outliers=True)
        )
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
    dataset: Dataset, predictors: dict[str, PredictorFactory] | None = None
) -> list[PathClass]:
    """Fig. 21: per-path, per-trace RMSRE for the standard predictor set,
    plus the four-way predictability class (based on HW-LSO)."""
    predictors = predictors or FIG21_PREDICTORS
    classes = []
    for path_id in dataset.path_ids:
        traces = dataset.traces_for(path_id)
        by_predictor = {
            name: [trace_rmsre(t, factory) for t in traces]
            for name, factory in predictors.items()
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
        epochs = dataset.epochs(path_id)
        mean_loss = float(np.mean([e.phat for e in epochs]))
        if mean_loss < min_loss:
            continue
        traces = dataset.traces_for(path_id)
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
    dataset: Dataset, hb_factory: PredictorFactory | None = None
) -> list[HbWindowComparison]:
    """Fig. 22: HB RMSRE on W = 1 MB vs W = 20 KB series, per path."""
    hb_factory = hb_factory or with_lso(hw())
    comparisons = []
    for path_id in dataset.path_ids:
        traces = dataset.traces_for(path_id)
        try:
            large = [trace_rmsre(t, hb_factory) for t in traces]
            small = [
                trace_rmsre(t, hb_factory, small_window=True) for t in traces
            ]
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
) -> dict[str, Cdf]:
    """Fig. 23: per-trace RMSRE CDFs at longer transfer intervals.

    The paper down-samples its ~3-minute traces to 6, 24, and 45-minute
    periods; with the default factors the same intervals result here.
    """
    hb_factory = hb_factory or with_lso(hw())
    downsample_factors = downsample_factors or {
        "3min": 1,
        "6min": 2,
        "24min": 8,
        "45min": 15,
    }
    cdfs: dict[str, Cdf] = {}
    for label, factor in downsample_factors.items():
        rmsres_ = []
        for trace in dataset:
            series = trace.throughput_series().downsample(factor)
            if len(series) < 5:
                continue
            evaluation = evaluate_predictor(series, hb_factory)
            if evaluation.valid_errors.size == 0:
                continue
            rmsres_.append(rmsre(evaluation.valid_errors))
        if not rmsres_:
            raise DataError(f"no traces long enough for factor {factor}")
        cdfs[label] = Cdf.from_values(rmsres_, label=f"interval {label}")
    return cdfs
