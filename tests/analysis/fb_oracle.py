"""Per-epoch reference bodies of the FB figures (the parity oracle).

Each function here is the scalar, one-epoch-at-a-time evaluation of a
figure in :mod:`repro.analysis.fb_eval` (and of the FB half of
:func:`repro.analysis.hb_eval.fb_vs_hb`), kept only so the column
implementations can be checked against it byte for byte
(``tests/analysis/test_fb_eval.py``).  Every prediction goes through
:func:`repro.analysis.fb_eval.predict_epoch` or
:meth:`FormulaBasedPredictor.predict` on one :class:`PathEstimates`.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.fb_eval import (
    DuringFlowComparison,
    DurationEffect,
    ErrorCdfs,
    FbEpochResult,
    IncreaseCdfs,
    PathErrorSummary,
    ScatterRelation,
    WindowLimitedComparison,
    WorstPathsAnalysis,
    predict_epoch,
)
from repro.analysis.hb_eval import FbHbComparison, hw, trace_rmsre, with_lso
from repro.core.errors import DataError
from repro.core.metrics import Cdf, relative_error, rmsre
from repro.formulas.fb_predictor import FormulaBasedPredictor
from repro.formulas.params import PathEstimates, TcpParameters
from repro.hb.base import PredictorFactory
from repro.hb.moving_average import MovingAverage
from repro.paths.records import Dataset


def _default() -> FormulaBasedPredictor:
    return FormulaBasedPredictor(tcp=TcpParameters.congestion_limited())


def evaluate(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> list[FbEpochResult]:
    predictor = predictor or _default()
    return [predict_epoch(epoch, predictor) for epoch in dataset.epochs()]


def error_cdfs(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> ErrorCdfs:
    results = evaluate(dataset, predictor)
    if not results:
        raise DataError("dataset has no epochs")
    all_errors = [r.error for r in results]
    lossy = [r.error for r in results if r.lossy]
    lossless = [r.error for r in results if not r.lossy]
    if not lossy or not lossless:
        raise DataError("dataset lacks lossy or lossless predictions")
    return ErrorCdfs(
        all=Cdf.from_values(all_errors, label="all predictions"),
        lossy=Cdf.from_values(lossy, label="lossy paths (PFTK)"),
        lossless=Cdf.from_values(lossless, label="lossless paths (avail-bw)"),
    )


def increase_cdfs(dataset: Dataset) -> IncreaseCdfs:
    epochs = dataset.epochs()
    if not epochs:
        raise DataError("dataset has no epochs")
    rtt_abs = [e.ttilde_s - e.that_s for e in epochs]
    loss_abs = [e.ptilde - e.phat for e in epochs]
    rtt_rel = [(e.ttilde_s - e.that_s) / e.that_s for e in epochs]
    lossy = [e for e in epochs if e.phat > 0]
    if not lossy:
        raise DataError("no lossy epochs for relative loss increase")
    loss_rel = [(e.ptilde - e.phat) / e.phat for e in lossy]
    rtt_ratios = [e.ttilde_s / e.that_s for e in epochs]
    loss_ratios = [e.ptilde / e.phat for e in lossy]
    return IncreaseCdfs(
        rtt_absolute_s=Cdf.from_values(rtt_abs, label="RTT increase (s)"),
        loss_absolute=Cdf.from_values(loss_abs, label="loss increase"),
        rtt_relative=Cdf.from_values(rtt_rel, label="relative RTT increase"),
        loss_relative=Cdf.from_values(loss_rel, label="relative loss increase"),
        mean_rtt_ratio=float(np.mean(rtt_ratios)),
        mean_loss_ratio=float(np.mean(loss_ratios)),
    )


def during_flow_prediction(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> DuringFlowComparison:
    predictor = predictor or _default()
    prior_errors, during_errors = [], []
    for epoch in dataset.epochs():
        if epoch.phat <= 0 or epoch.ptilde <= 0:
            continue
        prior = predictor.predict(
            PathEstimates(
                rtt_s=epoch.that_s,
                loss_rate=epoch.phat,
                availbw_mbps=epoch.ahat_mbps,
            )
        )
        during = predictor.predict(
            PathEstimates(
                rtt_s=epoch.ttilde_s,
                loss_rate=epoch.ptilde,
                availbw_mbps=epoch.ahat_mbps,
            )
        )
        prior_errors.append(relative_error(prior, epoch.throughput_mbps))
        during_errors.append(relative_error(during, epoch.throughput_mbps))
    if not prior_errors:
        raise DataError("no epochs lossy both before and during the flow")
    return DuringFlowComparison(
        with_prior=Cdf.from_values(prior_errors, label="using (T^, p^)"),
        with_during=Cdf.from_values(during_errors, label="using (T~, p~)"),
    )


def per_path_percentiles(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> list[PathErrorSummary]:
    predictor = predictor or _default()
    summaries = []
    for path_id in dataset.path_ids:
        errors = [
            predict_epoch(e, predictor).error for e in dataset.epochs(path_id)
        ]
        if not errors:
            continue
        arr = np.asarray(errors)
        summaries.append(
            PathErrorSummary(
                path_id=path_id,
                median=float(np.median(arr)),
                p10=float(np.quantile(arr, 0.10)),
                p90=float(np.quantile(arr, 0.90)),
                n=len(errors),
            )
        )
    return summaries


def rmsre_per_trace(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> list[float]:
    predictor = predictor or _default()
    return [
        rmsre([predict_epoch(e, predictor).error for e in trace]) for trace in dataset
    ]


def throughput_vs_error(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> ScatterRelation:
    results = evaluate(dataset, predictor)
    return ScatterRelation(
        x=np.asarray([r.epoch.throughput_mbps for r in results]),
        errors=np.asarray([r.error for r in results]),
        x_label="R (Mbps)",
    )


def loss_vs_error(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> ScatterRelation:
    results = [r for r in evaluate(dataset, predictor) if r.lossy]
    if not results:
        raise DataError("no lossy epochs")
    return ScatterRelation(
        x=np.asarray([r.epoch.phat for r in results]),
        errors=np.asarray([r.error for r in results]),
        x_label="p^",
    )


def rtt_vs_error(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> ScatterRelation:
    results = evaluate(dataset, predictor)
    return ScatterRelation(
        x=np.asarray([r.epoch.that_s for r in results]),
        errors=np.asarray([r.error for r in results]),
        x_label="T^ (s)",
    )


def worst_paths_analysis(
    dataset: Dataset,
    n_worst: int = 10,
    predictor: FormulaBasedPredictor | None = None,
) -> WorstPathsAnalysis:
    summaries = per_path_percentiles(dataset, predictor)
    if len(summaries) < n_worst:
        raise DataError(f"need at least {n_worst} paths, have {len(summaries)}")
    ranked = sorted(summaries, key=lambda s: -s.median)
    worst_ids = tuple(s.path_id for s in ranked[:n_worst])

    all_epochs = dataset.epochs()
    worst_epochs = [e for e in all_epochs if e.path_id in worst_ids]
    lossy_worst = [e for e in worst_epochs if e.phat > 0]
    loss_ratios = [e.ptilde / e.phat for e in lossy_worst]
    rtt_ratios = [e.ttilde_s / e.that_s for e in worst_epochs]
    return WorstPathsAnalysis(
        worst_path_ids=worst_ids,
        lossy_fraction_worst=len(lossy_worst) / len(worst_epochs),
        lossy_fraction_all=sum(e.phat > 0 for e in all_epochs) / len(all_epochs),
        mean_loss_ratio_worst=float(np.mean(loss_ratios)) if loss_ratios else 1.0,
        mean_rtt_ratio_worst=float(np.mean(rtt_ratios)),
    )


def duration_effect(
    dataset: Dataset,
    cut_labels: tuple[str, ...] = ("30s", "60s", "120s"),
    predictor: FormulaBasedPredictor | None = None,
) -> DurationEffect:
    predictor = predictor or _default()
    per_cut: dict[str, list[float]] = {label: [] for label in cut_labels}
    for epoch in dataset.epochs():
        if len(epoch.duration_throughputs_mbps) != len(cut_labels):
            continue
        predicted = predictor.predict(
            PathEstimates(
                rtt_s=epoch.that_s,
                loss_rate=epoch.phat,
                availbw_mbps=epoch.ahat_mbps,
            )
        )
        for label, throughput in zip(cut_labels, epoch.duration_throughputs_mbps):
            per_cut[label].append(relative_error(predicted, throughput))
    if not any(per_cut.values()):
        raise DataError("dataset has no duration checkpoints (need the 2006 set)")
    return DurationEffect(
        cdfs={
            label: Cdf.from_values(errors, label=f"E at {label}")
            for label, errors in per_cut.items()
        }
    )


def window_limited(
    dataset: Dataset,
    large_tcp: TcpParameters | None = None,
    small_tcp: TcpParameters | None = None,
) -> list[WindowLimitedComparison]:
    large_tcp = large_tcp or TcpParameters.congestion_limited()
    small_tcp = small_tcp or TcpParameters.window_limited()
    fb_large = FormulaBasedPredictor(tcp=large_tcp)
    fb_small = FormulaBasedPredictor(tcp=small_tcp)

    comparisons = []
    for path_id in dataset.path_ids:
        epochs = [
            e for e in dataset.epochs(path_id) if e.smallw_throughput_mbps is not None
        ]
        if not epochs:
            continue
        large_errors, small_errors, ratios = [], [], []
        for e in epochs:
            estimates = PathEstimates(
                rtt_s=e.that_s, loss_rate=e.phat, availbw_mbps=e.ahat_mbps
            )
            large_errors.append(
                relative_error(fb_large.predict(estimates), e.throughput_mbps)
            )
            small_errors.append(
                relative_error(
                    fb_small.predict(estimates), e.smallw_throughput_mbps
                )
            )
            window_mbps = small_tcp.max_window_bytes * 8 / e.that_s / 1e6
            ratios.append(window_mbps / e.ahat_mbps)
        ratio = float(np.median(ratios))
        comparisons.append(
            WindowLimitedComparison(
                path_id=path_id,
                rmsre_large_window=rmsre(large_errors),
                rmsre_small_window=rmsre(small_errors),
                window_limited=ratio < 1.0,
                window_availbw_ratio=ratio,
            )
        )
    if not comparisons:
        raise DataError("dataset has no small-window measurements")
    return comparisons


def revised_model_comparison(dataset: Dataset) -> dict[str, Cdf]:
    tcp = TcpParameters.congestion_limited()
    return {
        name: Cdf.from_values(
            [r.error for r in evaluate(dataset, FormulaBasedPredictor(tcp=tcp, model=model))],
            label=name,
        )
        for name, model in [("original PFTK", "pftk"), ("revised PFTK", "pftk-revised")]
    }


def smoothed_inputs(dataset: Dataset, ma_order: int = 10) -> dict[str, Cdf]:
    predictor = _default()
    plain_errors, smoothed_errors = [], []
    for trace in dataset:
        rtt_ma = MovingAverage(ma_order)
        loss_ma = MovingAverage(ma_order)
        for epoch in trace:
            plain_errors.append(predict_epoch(epoch, predictor).error)
            if rtt_ma.ready:
                estimates = PathEstimates(
                    rtt_s=rtt_ma.forecast(),
                    loss_rate=max(0.0, loss_ma.forecast()),
                    availbw_mbps=epoch.ahat_mbps,
                )
                smoothed_errors.append(
                    relative_error(
                        predictor.predict(estimates), epoch.throughput_mbps
                    )
                )
            rtt_ma.update(epoch.that_s)
            loss_ma.update(epoch.phat)
    if not smoothed_errors:
        raise DataError("traces too short for smoothed inputs")
    return {
        "plain": Cdf.from_values(plain_errors, label="latest measurements"),
        "smoothed": Cdf.from_values(smoothed_errors, label=f"{ma_order}-MA smoothed"),
    }


def fb_vs_hb(
    dataset: Dataset, hb_factory: PredictorFactory | None = None
) -> FbHbComparison:
    hb_factory = hb_factory or with_lso(hw())
    fb_predictor = _default()
    fb_rmsres, hb_rmsres = [], []
    for trace in dataset:
        errors = [predict_epoch(e, fb_predictor).error for e in trace]
        fb_rmsres.append(rmsre(errors))
        hb_rmsres.append(trace_rmsre(trace, hb_factory))
    return FbHbComparison(
        fb=Cdf.from_values(fb_rmsres, label="FB per-trace RMSRE"),
        hb=Cdf.from_values(hb_rmsres, label="HB (HW-LSO) per-trace RMSRE"),
    )
