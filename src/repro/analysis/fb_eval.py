"""Formula-Based prediction accuracy: the analysis behind Figs. 2-14.

Every function here evaluates the FB predictor of Eq. (3) (or a variant)
over a dataset and aggregates the relative errors (Eq. 4) the way the
corresponding figure does.  A figure reads the trace columns it needs,
concatenated in dataset order (epoch by epoch, trace by trace), and
predicts every row with one :meth:`FormulaBasedPredictor.predict_many`
call per input set; per-path and per-trace groups are index arrays and
slices of those columns, and a figure that reads only some epochs
selects them with a mask.  :func:`predict_epoch` is the one-epoch form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.errors import DataError
from repro.core.metrics import (
    Cdf,
    pearson_correlation,
    relative_error,
    relative_errors,
    rmsre,
)
from repro.obs import get_telemetry
from repro.formulas.fb_predictor import FormulaBasedPredictor
from repro.formulas.params import PathEstimates, TcpParameters
from repro.hb.moving_average import MovingAverage
from repro.paths.records import Dataset, EpochMeasurement


@dataclass(frozen=True)
class FbEpochResult:
    """FB prediction outcome for one epoch."""

    epoch: EpochMeasurement
    predicted_mbps: float
    error: float

    @property
    def lossy(self) -> bool:
        """True when the prediction used the PFTK branch (``phat > 0``)."""
        return not self.epoch.lossless


def predict_epoch(
    epoch: EpochMeasurement, predictor: FormulaBasedPredictor
) -> FbEpochResult:
    """Apply the FB predictor to one epoch's a priori measurements."""
    estimates = PathEstimates(
        rtt_s=epoch.that_s,
        loss_rate=epoch.phat,
        availbw_mbps=epoch.ahat_mbps,
    )
    tele = get_telemetry()
    if tele.enabled:
        started = perf_counter()
        predicted = predictor.predict(estimates)
        tele.metrics.timer("predict.wall_s", predictor="fb").observe(
            perf_counter() - started
        )
        tele.metrics.counter(
            "predictions.made",
            predictor="fb",
            regime="lossless" if epoch.lossless else "lossy",
        ).inc()
    else:
        predicted = predictor.predict(estimates)
    return FbEpochResult(
        epoch=epoch,
        predicted_mbps=predicted,
        error=relative_error(predicted, epoch.throughput_mbps),
    )


#: The epoch fields Eq. (3) reads, then the throughput Eq. (4) scores.
_PLAIN = ("that_s", "phat", "ahat_mbps", "throughput_mbps")


def _columns(
    dataset: Dataset, *names: str, mask: np.ndarray | None = None
) -> tuple[np.ndarray, ...]:
    """The named columns of every trace, concatenated in dataset order.

    With ``mask``, only the epochs it selects.

    Raises:
        DataError: on a non-finite value, naming the column and the epoch.
    """
    columns = tuple(dataset.column(name) for name in names)
    if mask is not None:
        columns = tuple(column[mask] for column in columns)
    _require_finite(np.column_stack(columns), names, dataset, mask)
    return columns


def _require_finite(
    table: np.ndarray,
    names: tuple[str, ...],
    dataset: Dataset,
    mask: np.ndarray | None = None,
) -> None:
    """Reject the first non-finite cell of an (epoch, column) table.

    The table's rows are the dataset's epochs in order, or those
    ``mask`` selects.
    """
    finite = np.isfinite(table)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        at = int(row if mask is None else np.flatnonzero(mask)[row])
        for trace, rows in zip(dataset.traces, _trace_slices(dataset)):
            if at < rows.stop:
                break
        raise DataError(
            f"{names[col]} must be finite, got {table[row, col]} at epoch "
            f"{at - rows.start} of trace ({trace.path_id!r}, {trace.trace_index})"
        )


def _rows_by_path(
    dataset: Dataset, mask: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """Each path's row indices into the columns (those ``mask`` selects),
    in epoch order; a path with no selected epoch has no entry."""
    rows: dict[str, list[np.ndarray]] = {}
    for trace, trace_rows in zip(dataset.traces, _trace_slices(dataset)):
        rows.setdefault(trace.path_id, []).append(
            np.arange(trace_rows.start, trace_rows.stop)
        )
    by_path = {path_id: np.concatenate(parts) for path_id, parts in rows.items()}
    if mask is None:
        return by_path
    # Row r of the full columns is row position[r] of the selected ones.
    position = np.cumsum(mask) - 1
    return {
        path_id: position[indices[mask[indices]]]
        for path_id, indices in by_path.items()
        if mask[indices].any()
    }


def _trace_slices(dataset: Dataset) -> list[slice]:
    """Each trace's rows of the concatenated columns."""
    slices, start = [], 0
    for trace in dataset:
        slices.append(slice(start, start + len(trace)))
        start += len(trace)
    return slices


def _predict_table(
    predictor: FormulaBasedPredictor | None,
    that_s: np.ndarray,
    phat: np.ndarray,
    ahat_mbps: np.ndarray,
) -> np.ndarray:
    """Eq. (3) on every epoch's a priori inputs, in one kernel call.

    Records what :func:`predict_epoch` records per epoch, at the
    granularity it is computed: ``predictions.made`` grows by the row
    count of each regime, and ``predict.wall_s`` takes one sample for
    the whole table.  The default predictor is the paper's (W = 1 MB).
    """
    predictor = predictor or FormulaBasedPredictor(
        tcp=TcpParameters.congestion_limited()
    )
    started = perf_counter()
    predicted = predictor.predict_many(that_s, phat, ahat_mbps)
    tele = get_telemetry()
    if tele.enabled:
        tele.metrics.timer("predict.wall_s", predictor="fb").observe(
            perf_counter() - started
        )
        n_lossy = int(np.count_nonzero(phat > 0))
        for regime, count in (("lossless", phat.size - n_lossy), ("lossy", n_lossy)):
            if count:
                tele.metrics.counter(
                    "predictions.made", predictor="fb", regime=regime
                ).inc(count)
    return predicted


def evaluate(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> list[FbEpochResult]:
    """FB predictions for every epoch of the dataset."""
    that_s, phat, ahat, throughput = _columns(dataset, *_PLAIN)
    predicted = _predict_table(predictor, that_s, phat, ahat)
    errors = relative_errors(predicted, throughput)
    epochs = dataset.epochs()
    return [
        FbEpochResult(epoch=epoch, predicted_mbps=value, error=error)
        for epoch, value, error in zip(epochs, predicted.tolist(), errors.tolist())
    ]


# ----------------------------------------------------------------------
# Fig. 2 — CDF of E for all / lossy / lossless predictions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorCdfs:
    """The three error CDFs of Fig. 2."""

    all: Cdf
    lossy: Cdf
    lossless: Cdf

    def summary(self) -> str:
        lines = [
            self.all.summary(),
            self.lossy.summary(),
            self.lossless.summary(),
            f"overestimation fraction: {self.all.fraction_above(0.0):.2f}",
            f"P(E >= 1):  {self.all.fraction_above(1.0 - 1e-12):.2f}",
            f"P(E >= 9):  {self.all.fraction_above(9.0 - 1e-12):.2f}",
            f"P(E <= -1): {self.all.fraction_below(-1.0):.2f}",
        ]
        return "\n".join(lines)


def error_cdfs(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> ErrorCdfs:
    """Fig. 2: the error CDFs for all, lossy, and lossless predictions."""
    if not dataset.n_epochs:
        raise DataError("dataset has no epochs")
    that_s, phat, ahat, throughput = _columns(dataset, *_PLAIN)
    errors = relative_errors(_predict_table(predictor, that_s, phat, ahat), throughput)
    lossy = phat > 0
    if lossy.all() or not lossy.any():
        raise DataError("dataset lacks lossy or lossless predictions")
    return ErrorCdfs(
        all=Cdf.from_values(errors, label="all predictions"),
        lossy=Cdf.from_values(errors[lossy], label="lossy paths (PFTK)"),
        lossless=Cdf.from_values(errors[~lossy], label="lossless paths (avail-bw)"),
    )


# ----------------------------------------------------------------------
# Figs. 3-5 — RTT / loss rate increase during the target flow
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class IncreaseCdfs:
    """Fig. 3: absolute increases; Figs. 4-5: relative increases."""

    rtt_absolute_s: Cdf
    loss_absolute: Cdf
    rtt_relative: Cdf
    loss_relative: Cdf
    mean_rtt_ratio: float
    mean_loss_ratio: float

    def summary(self) -> str:
        return "\n".join(
            [
                self.rtt_absolute_s.summary(),
                self.loss_absolute.summary(),
                self.rtt_relative.summary(),
                self.loss_relative.summary(),
                f"mean RTT ratio during/before: {self.mean_rtt_ratio:.2f}",
                f"mean loss ratio during/before: {self.mean_loss_ratio:.2f}",
            ]
        )


def increase_cdfs(dataset: Dataset) -> IncreaseCdfs:
    """Figs. 3-5: how much RTT and loss rose once the flow started.

    Relative loss increases are computed only over epochs that were lossy
    even before the transfer (``phat > 0``), as in the paper.
    """
    if not dataset.n_epochs:
        raise DataError("dataset has no epochs")
    that_s, phat, ttilde_s, ptilde = _columns(
        dataset, "that_s", "phat", "ttilde_s", "ptilde"
    )
    rtt_abs = ttilde_s - that_s
    lossy = phat > 0
    if not lossy.any():
        raise DataError("no lossy epochs for relative loss increase")
    phat_lossy, ptilde_lossy = phat[lossy], ptilde[lossy]
    return IncreaseCdfs(
        rtt_absolute_s=Cdf.from_values(rtt_abs, label="RTT increase (s)"),
        loss_absolute=Cdf.from_values(ptilde - phat, label="loss increase"),
        rtt_relative=Cdf.from_values(rtt_abs / that_s, label="relative RTT increase"),
        loss_relative=Cdf.from_values(
            (ptilde_lossy - phat_lossy) / phat_lossy, label="relative loss increase"
        ),
        mean_rtt_ratio=float(np.mean(ttilde_s / that_s)),
        mean_loss_ratio=float(np.mean(ptilde_lossy / phat_lossy)),
    )


# ----------------------------------------------------------------------
# Fig. 6 — prediction using during-flow (T~, p~) instead of (T^, p^)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DuringFlowComparison:
    """Fig. 6: error CDFs with a priori vs during-flow inputs."""

    with_prior: Cdf
    with_during: Cdf

    def summary(self) -> str:
        return "\n".join(
            [
                self.with_prior.summary(),
                self.with_during.summary(),
                "during-flow |E| median: "
                f"{np.median(np.abs(self.with_during.sorted_values)):.2f} vs "
                f"prior {np.median(np.abs(self.with_prior.sorted_values)):.2f}",
            ]
        )


def during_flow_prediction(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> DuringFlowComparison:
    """Fig. 6: how much better FB would be with during-flow estimates.

    Restricted to epochs that are lossy both before and during the flow,
    as the figure is.
    """
    predictor = predictor or FormulaBasedPredictor(
        tcp=TcpParameters.congestion_limited()
    )
    that_s, phat, ahat, throughput, ttilde_s, ptilde = _columns(
        dataset, *_PLAIN, "ttilde_s", "ptilde"
    )
    both = (phat > 0) & (ptilde > 0)
    if not both.any():
        raise DataError("no epochs lossy both before and during the flow")
    ahat, throughput = ahat[both], throughput[both]
    prior = predictor.predict_many(that_s[both], phat[both], ahat)
    during = predictor.predict_many(ttilde_s[both], ptilde[both], ahat)
    return DuringFlowComparison(
        with_prior=Cdf.from_values(
            relative_errors(prior, throughput), label="using (T^, p^)"
        ),
        with_during=Cdf.from_values(
            relative_errors(during, throughput), label="using (T~, p~)"
        ),
    )


# ----------------------------------------------------------------------
# Fig. 7 — per-path error percentiles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PathErrorSummary:
    """Per-path error percentiles (one bar of Fig. 7)."""

    path_id: str
    median: float
    p10: float
    p90: float
    n: int


def per_path_percentiles(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> list[PathErrorSummary]:
    """Fig. 7: median and 10/90th percentiles of E per path."""
    that_s, phat, ahat, throughput = _columns(dataset, *_PLAIN)
    errors = relative_errors(_predict_table(predictor, that_s, phat, ahat), throughput)
    return _path_summaries(dataset, _rows_by_path(dataset), errors)


def _path_summaries(
    dataset: Dataset, rows: dict[str, np.ndarray], errors: np.ndarray
) -> list[PathErrorSummary]:
    """Fig. 7's bars from every epoch's error and each path's rows."""
    summaries = []
    for path_id in dataset.path_ids:
        if path_id not in rows:
            continue
        arr = errors[rows[path_id]]
        summaries.append(
            PathErrorSummary(
                path_id=path_id,
                median=float(np.median(arr)),
                p10=float(np.quantile(arr, 0.10)),
                p90=float(np.quantile(arr, 0.90)),
                n=arr.size,
            )
        )
    return summaries


def rmsre_per_trace(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> list[float]:
    """FB RMSRE of each trace, in dataset order (Fig. 19's FB half)."""
    that_s, phat, ahat, throughput = _columns(dataset, *_PLAIN)
    errors = relative_errors(_predict_table(predictor, that_s, phat, ahat), throughput)
    return [rmsre(errors[rows]) for rows in _trace_slices(dataset)]


# ----------------------------------------------------------------------
# Figs. 8-10 — scatter relations of E with R, p^, T^
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScatterRelation:
    """A scatter of E against a covariate, with the paper's statistics."""

    x: np.ndarray
    errors: np.ndarray
    x_label: str

    def correlation(self) -> float:
        """Pearson correlation between the covariate and E."""
        return pearson_correlation(self.x, self.errors)

    def fraction_large_error(
        self, x_threshold: float, error_threshold: float = 10.0, below: bool = True
    ) -> float:
        """P(E > error_threshold) among samples with x below/above a cut.

        Fig. 8's headline: 42% of samples with R <= 0.5 Mbps have E > 10.
        """
        mask = self.x <= x_threshold if below else self.x > x_threshold
        if not mask.any():
            raise DataError(f"no samples with {self.x_label} on that side")
        return float((self.errors[mask] > error_threshold).mean())


def throughput_vs_error(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> ScatterRelation:
    """Fig. 8: actual throughput versus prediction error."""
    that_s, phat, ahat, throughput = _columns(dataset, *_PLAIN)
    errors = relative_errors(_predict_table(predictor, that_s, phat, ahat), throughput)
    return ScatterRelation(x=throughput, errors=errors, x_label="R (Mbps)")


def loss_vs_error(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> ScatterRelation:
    """Fig. 9: a priori loss rate versus error (lossy epochs only)."""
    that_s, phat, ahat, throughput = _columns(dataset, *_PLAIN)
    errors = relative_errors(_predict_table(predictor, that_s, phat, ahat), throughput)
    lossy = phat > 0
    if not lossy.any():
        raise DataError("no lossy epochs")
    return ScatterRelation(x=phat[lossy], errors=errors[lossy], x_label="p^")


def rtt_vs_error(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> ScatterRelation:
    """Fig. 10: a priori RTT versus error."""
    that_s, phat, ahat, throughput = _columns(dataset, *_PLAIN)
    errors = relative_errors(_predict_table(predictor, that_s, phat, ahat), throughput)
    return ScatterRelation(x=that_s, errors=errors, x_label="T^ (s)")


# ----------------------------------------------------------------------
# Section 4.2.4 — drill-down into the worst paths
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorstPathsAnalysis:
    """The paper's analysis of its 10 highest-median-error paths.

    Attributes:
        worst_path_ids: paths ranked by median error, worst first.
        lossy_fraction_worst: share of PFTK-based (lossy) predictions on
            those paths (the paper: 77%).
        lossy_fraction_all: the same share across all paths (paper: 56%).
        mean_loss_ratio_worst: during/before loss ratio on the worst
            paths — the paper observes the loss rate "increases
            significantly after the target flow starts" there.
        mean_rtt_ratio_worst: during/before RTT ratio on the worst paths
            — the paper observes no significant RTT increase.
    """

    worst_path_ids: tuple[str, ...]
    lossy_fraction_worst: float
    lossy_fraction_all: float
    mean_loss_ratio_worst: float
    mean_rtt_ratio_worst: float

    def summary(self) -> str:
        return (
            f"worst paths: {list(self.worst_path_ids)}\n"
            f"lossy-prediction share: {self.lossy_fraction_worst:.2f} on worst "
            f"paths vs {self.lossy_fraction_all:.2f} overall (paper: 0.77 vs 0.56)\n"
            f"on worst paths, during/before ratios: loss x"
            f"{self.mean_loss_ratio_worst:.1f}, RTT x{self.mean_rtt_ratio_worst:.2f}"
        )


def worst_paths_analysis(
    dataset: Dataset,
    n_worst: int = 10,
    predictor: FormulaBasedPredictor | None = None,
) -> WorstPathsAnalysis:
    """Section 4.2.4: what distinguishes the worst-predicted paths.

    The paper's finding: the largest errors come from paths that were
    congested *before* the target transfer — their predictions are
    disproportionately PFTK-based, and the loss rate (not the RTT)
    climbs once the flow starts.
    """
    that_s, phat, ahat, throughput, ttilde_s, ptilde = _columns(
        dataset, *_PLAIN, "ttilde_s", "ptilde"
    )
    errors = relative_errors(_predict_table(predictor, that_s, phat, ahat), throughput)
    rows = _rows_by_path(dataset)
    summaries = _path_summaries(dataset, rows, errors)
    if len(summaries) < n_worst:
        raise DataError(f"need at least {n_worst} paths, have {len(summaries)}")
    ranked = sorted(summaries, key=lambda s: -s.median)
    worst_ids = tuple(s.path_id for s in ranked[:n_worst])

    worst = np.zeros(phat.size, dtype=bool)
    for path_id in worst_ids:
        worst[rows[path_id]] = True
    lossy = phat > 0
    lossy_worst = worst & lossy
    loss_ratios = ptilde[lossy_worst] / phat[lossy_worst]
    return WorstPathsAnalysis(
        worst_path_ids=worst_ids,
        lossy_fraction_worst=int(np.count_nonzero(lossy_worst))
        / int(np.count_nonzero(worst)),
        lossy_fraction_all=int(np.count_nonzero(lossy)) / phat.size,
        mean_loss_ratio_worst=float(np.mean(loss_ratios)) if loss_ratios.size else 1.0,
        mean_rtt_ratio_worst=float(np.mean(ttilde_s[worst] / that_s[worst])),
    )


# ----------------------------------------------------------------------
# Fig. 11 — prediction accuracy for different transfer lengths
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DurationEffect:
    """Fig. 11: error CDFs for each transfer-duration cut."""

    cdfs: dict[str, Cdf] = field(default_factory=dict)

    def summary(self) -> str:
        return "\n".join(cdf.summary() for cdf in self.cdfs.values())


def duration_effect(
    dataset: Dataset,
    cut_labels: tuple[str, ...] = ("30s", "60s", "120s"),
    predictor: FormulaBasedPredictor | None = None,
) -> DurationEffect:
    """Fig. 11: FB error against the first 30/60/120 s of each transfer.

    Requires a dataset collected with checkpoint fractions (the March
    2006 campaign settings).
    """
    predictor = predictor or FormulaBasedPredictor(
        tcp=TcpParameters.congestion_limited()
    )
    n_cuts = len(cut_labels)
    with_cuts = [
        trace.duration_throughputs_mbps.shape[1] == n_cuts for trace in dataset
    ]
    mask = np.repeat(np.array(with_cuts, dtype=bool), [len(t) for t in dataset])
    if not mask.any() or not n_cuts:
        raise DataError("dataset has no duration checkpoints (need the 2006 set)")
    that_s, phat, ahat = _columns(dataset, "that_s", "phat", "ahat_mbps", mask=mask)
    cuts = np.concatenate(
        [
            trace.duration_throughputs_mbps
            for trace, chosen in zip(dataset, with_cuts)
            if chosen
        ]
    )
    _require_finite(cuts, ("duration_throughputs_mbps",) * n_cuts, dataset, mask)
    predicted = predictor.predict_many(that_s, phat, ahat)
    return DurationEffect(
        cdfs={
            label: Cdf.from_values(
                relative_errors(predicted, cuts[:, cut]), label=f"E at {label}"
            )
            for cut, label in enumerate(cut_labels)
        }
    )


# ----------------------------------------------------------------------
# Fig. 12 — window-limited vs congestion-limited RMSRE per path
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WindowLimitedComparison:
    """One path's RMSRE under both window settings (a Fig. 12 pair)."""

    path_id: str
    rmsre_large_window: float
    rmsre_small_window: float
    window_limited: bool
    window_availbw_ratio: float


def window_limited(
    dataset: Dataset,
    large_tcp: TcpParameters | None = None,
    small_tcp: TcpParameters | None = None,
) -> list[WindowLimitedComparison]:
    """Fig. 12: FB RMSRE with W = 1 MB vs W = 20 KB, per path.

    A path counts as window-limited when the median ratio
    ``(W/T^) / A^`` across its epochs is below 1.
    """
    large_tcp = large_tcp or TcpParameters.congestion_limited()
    small_tcp = small_tcp or TcpParameters.window_limited()
    mask = dataset.column("smallw_present")
    if not mask.any():
        raise DataError("dataset has no small-window measurements")
    that_s, phat, ahat, throughput, smallw = _columns(
        dataset, *_PLAIN, "smallw_throughput_mbps", mask=mask
    )
    large_errors = relative_errors(
        FormulaBasedPredictor(tcp=large_tcp).predict_many(that_s, phat, ahat),
        throughput,
    )
    small_errors = relative_errors(
        FormulaBasedPredictor(tcp=small_tcp).predict_many(that_s, phat, ahat),
        smallw,
    )
    ratios = small_tcp.max_window_bytes * 8 / that_s / 1e6 / ahat

    rows = _rows_by_path(dataset, mask)
    comparisons = []
    for path_id in dataset.path_ids:
        if path_id not in rows:
            continue
        path_rows = rows[path_id]
        ratio = float(np.median(ratios[path_rows]))
        comparisons.append(
            WindowLimitedComparison(
                path_id=path_id,
                rmsre_large_window=rmsre(large_errors[path_rows]),
                rmsre_small_window=rmsre(small_errors[path_rows]),
                window_limited=ratio < 1.0,
                window_availbw_ratio=ratio,
            )
        )
    return comparisons


# ----------------------------------------------------------------------
# Fig. 13 — the revised PFTK model
# ----------------------------------------------------------------------


def revised_model_comparison(dataset: Dataset) -> dict[str, Cdf]:
    """Fig. 13: error CDFs of the original vs revised PFTK predictors."""
    tcp = TcpParameters.congestion_limited()
    that_s, phat, ahat, throughput = _columns(dataset, *_PLAIN)
    return {
        name: Cdf.from_values(
            relative_errors(
                _predict_table(
                    FormulaBasedPredictor(tcp=tcp, model=model), that_s, phat, ahat
                ),
                throughput,
            ),
            label=name,
        )
        for name, model in [("original PFTK", "pftk"), ("revised PFTK", "pftk-revised")]
    }


# ----------------------------------------------------------------------
# Fig. 14 — history-smoothed RTT and loss inputs
# ----------------------------------------------------------------------


def smoothed_inputs(dataset: Dataset, ma_order: int = 10) -> dict[str, Cdf]:
    """Fig. 14: FB with MA-smoothed (T^, p^) inputs vs the plain FB.

    The smoothing is a per-trace moving average over the last
    ``ma_order`` epochs' measurements, as in the paper.
    """
    predictor = FormulaBasedPredictor(tcp=TcpParameters.congestion_limited())
    that_s, phat, ahat, throughput = _columns(dataset, *_PLAIN)
    plain_errors = relative_errors(
        _predict_table(predictor, that_s, phat, ahat), throughput
    )
    rtt_values, loss_values = that_s.tolist(), phat.tolist()
    smoothed_rtt, smoothed_loss, rows = [], [], []
    for trace_rows in _trace_slices(dataset):
        rtt_ma = MovingAverage(ma_order)
        loss_ma = MovingAverage(ma_order)
        for row in range(trace_rows.start, trace_rows.stop):
            if rtt_ma.ready:
                smoothed_rtt.append(rtt_ma.forecast())
                smoothed_loss.append(max(0.0, loss_ma.forecast()))
                rows.append(row)
            rtt_ma.update(rtt_values[row])
            loss_ma.update(loss_values[row])
    if not rows:
        raise DataError("traces too short for smoothed inputs")
    smoothed_errors = relative_errors(
        predictor.predict_many(smoothed_rtt, smoothed_loss, ahat[rows]),
        throughput[rows],
    )
    return {
        "plain": Cdf.from_values(plain_errors, label="latest measurements"),
        "smoothed": Cdf.from_values(smoothed_errors, label=f"{ma_order}-MA smoothed"),
    }
