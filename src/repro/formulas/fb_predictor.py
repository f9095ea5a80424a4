"""The combined Formula-Based predictor of the paper's Eq. (3).

::

    R_hat = | min(PFTK(T_hat, p_hat, T0_hat; M, b, W), W / T_hat)   p_hat > 0
            | min(W / T_hat, A_hat)                                 p_hat = 0

with the retransmission timeout estimated as
``T0_hat = max(1 s, 2 * SRTT)`` where SRTT is the a priori RTT.

The predictor is a small class so the model variant (paper Eq. (2),
full PFTK, revised PFTK, or Mathis) is a constructor choice and the
prediction call site stays identical across the evaluation figures.
:func:`answer_fb` is the one way from a user's raw inputs to an answer,
for ``repro-predict`` and ``POST /predict/fb`` alike.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.errors import ConfigurationError, DataError, PredictionError
from repro.obs import get_telemetry
from repro.formulas.availbw import availbw_prediction, window_limit_mbps
from repro.formulas.mathis import mathis_throughput
from repro.formulas.params import PathEstimates, TcpParameters, fb_input_errors
from repro.formulas.pftk import (
    pftk_full_throughput,
    pftk_throughput,
    pftk_throughput_array,
)
from repro.formulas.pftk_revised import pftk_revised_throughput

#: Signature shared by the lossy-path models: (rtt_s, loss_rate, rto_s, tcp) -> Mbps.
LossyModel = Callable[[float, float, float, TcpParameters], float]

#: Minimum RTO mandated by RFC 2988 and used by the paper's T0 estimate.
MIN_RTO_S = 1.0


def estimate_rto(rtt_s: float, min_rto_s: float = MIN_RTO_S) -> float:
    """The paper's RTO estimate: ``T0_hat = max(1 s, 2 * SRTT)``."""
    if rtt_s <= 0:
        raise ValueError(f"rtt_s must be positive, got {rtt_s}")
    return max(min_rto_s, 2.0 * rtt_s)


def _mathis_adapter(
    rtt_s: float, loss_rate: float, rto_s: float, tcp: TcpParameters
) -> float:
    """Adapt the Mathis model (which has no RTO term) to the shared shape."""
    del rto_s  # the square-root model ignores timeouts
    return min(
        mathis_throughput(rtt_s, loss_rate, tcp),
        tcp.max_window_segments / rtt_s * tcp.mss_bytes * 8 / 1e6,
    )


#: Registry of lossy-path model variants selectable by name.
MODEL_VARIANTS: dict[str, LossyModel] = {
    "pftk": pftk_throughput,
    "pftk-full": pftk_full_throughput,
    "pftk-revised": pftk_revised_throughput,
    "mathis": _mathis_adapter,
}


@dataclass(frozen=True)
class FormulaBasedPredictor:
    """FB throughput predictor (paper Eq. (3)).

    Attributes:
        tcp: parameters of the transfer being predicted.
        model: which throughput model to apply on lossy paths; one of
            ``"pftk"`` (paper default), ``"pftk-full"``,
            ``"pftk-revised"``, ``"mathis"``.
    """

    tcp: TcpParameters = field(default_factory=TcpParameters)
    model: str = "pftk"

    def __post_init__(self) -> None:
        if self.model not in MODEL_VARIANTS:
            raise ConfigurationError(
                f"unknown model {self.model!r}; choose from {sorted(MODEL_VARIANTS)}"
            )

    def predict(self, estimates: PathEstimates) -> float:
        """Predicted throughput ``R_hat`` in Mbps from a priori estimates.

        Raises:
            PredictionError: on a lossless path with no avail-bw estimate.
        """
        if estimates.lossless:
            if estimates.availbw_mbps is None:
                raise PredictionError(
                    "path measured lossless but no avail-bw estimate available"
                )
            get_telemetry().counter("fb.model_selected", model="availbw").inc()
            return availbw_prediction(
                estimates.rtt_s, estimates.availbw_mbps, self.tcp
            )
        model_fn = MODEL_VARIANTS[self.model]
        get_telemetry().counter("fb.model_selected", model=self.model).inc()
        rto = estimate_rto(estimates.rtt_s)
        modeled = model_fn(estimates.rtt_s, estimates.loss_rate, rto, self.tcp)
        return min(modeled, window_limit_mbps(estimates.rtt_s, self.tcp))

    def predict_many(self, rtt_s, loss_rate, availbw_mbps) -> np.ndarray:
        """:meth:`predict` over equal-length arrays of a priori estimates.

        Row ``i`` equals ``predict(PathEstimates(rtt_s[i], loss_rate[i],
        availbw_mbps[i]))`` bit for bit.  ``"pftk"`` (the paper's
        Eq. (2)) runs as one array expression, the same expression tree
        as the scalar path built from correctly rounded elementwise
        operations; the other models apply their scalar function to
        each lossy row.  ``fb.model_selected`` grows by the row counts.

        Raises:
            ConfigurationError: before any arithmetic, on the first row
                :class:`PathEstimates` would reject (``rtt_s`` and
                ``availbw_mbps`` positive and finite, ``loss_rate`` in
                [0, 1)), or on arrays of unequal shape.
        """
        rtt = np.asarray(rtt_s, dtype=np.float64)
        loss = np.asarray(loss_rate, dtype=np.float64)
        availbw = np.asarray(availbw_mbps, dtype=np.float64)
        if rtt.ndim != 1 or loss.shape != rtt.shape or availbw.shape != rtt.shape:
            raise ConfigurationError(
                "predict_many needs equal-length 1-d arrays, got shapes "
                f"{rtt.shape}, {loss.shape}, {availbw.shape}"
            )
        for name, values, valid, rule in (
            ("rtt_s", rtt, (rtt > 0) & np.isfinite(rtt), "positive and finite"),
            ("loss_rate", loss, (loss >= 0.0) & (loss < 1.0), "in [0, 1)"),
            (
                "availbw_mbps",
                availbw,
                (availbw > 0) & np.isfinite(availbw),
                "positive and finite",
            ),
        ):
            if not valid.all():
                row = int(np.argmin(valid))
                raise ConfigurationError(
                    f"{name} must be {rule}, got {values[row]} at row {row}"
                )

        window_limit = self.tcp.max_window_bytes * 8 / rtt / 1e6
        lossless = loss == 0.0
        lossy = ~lossless
        predicted = np.empty_like(rtt)
        predicted[lossless] = np.minimum(window_limit[lossless], availbw[lossless])
        rtt_lossy = rtt[lossy]
        if self.model == "pftk":
            modeled = pftk_throughput_array(
                rtt_lossy,
                loss[lossy],
                np.maximum(MIN_RTO_S, 2.0 * rtt_lossy),
                self.tcp,
            )
        else:
            model_fn = MODEL_VARIANTS[self.model]
            # Python floats, so each row runs exactly the scalar code.
            modeled = np.array(
                [
                    model_fn(r, p, estimate_rto(r), self.tcp)
                    for r, p in zip(rtt_lossy.tolist(), loss[lossy].tolist())
                ],
                dtype=np.float64,
            )
        predicted[lossy] = np.minimum(modeled, window_limit[lossy])

        n_lossy = int(np.count_nonzero(lossy))
        telemetry = get_telemetry()
        if n_lossy < rtt.size:
            telemetry.counter("fb.model_selected", model="availbw").inc(
                rtt.size - n_lossy
            )
        if n_lossy:
            telemetry.counter("fb.model_selected", model=self.model).inc(n_lossy)
        return predicted

    def predict_from(
        self,
        rtt_s: float,
        loss_rate: float,
        availbw_mbps: float | None = None,
    ) -> float:
        """Convenience wrapper building :class:`PathEstimates` inline."""
        return self.predict(
            PathEstimates(rtt_s=rtt_s, loss_rate=loss_rate, availbw_mbps=availbw_mbps)
        )


class FbAnswer(NamedTuple):
    """What :func:`answer_fb` answers, in the order ``POST /predict/fb``
    writes it: the prediction of Eq. (3) and the window ceiling ``W / T``
    are finite."""

    predicted_mbps: float
    model: str
    lossless: bool
    window_ceiling_mbps: float


def answer_fb(
    *,
    rtt_ms: float,
    loss: float,
    window_kb: float,
    mss: float,
    availbw: float | None = None,
    model: str = "pftk",
) -> FbAnswer:
    """One FB prediction from a user's raw inputs, in the units
    ``repro-predict`` takes them (milliseconds, kilobytes, Mbps).

    Raises:
        DataError: the problems :func:`~repro.formulas.params.fb_input_errors`
            finds, joined by ``"; "``; or, naming every input, that inputs
            it accepts give no finite answer (say, an RTT so small that
            ``W / T`` overflows, or model terms that underflow to 0 / 0).
        ConfigurationError: ``model`` is not one of :data:`MODEL_VARIANTS`.
    """
    problems = fb_input_errors(
        rtt_ms=rtt_ms, loss=loss, window_kb=window_kb, mss=mss, availbw=availbw
    )
    if problems:
        raise DataError("; ".join(problems))
    tcp = TcpParameters(mss_bytes=int(mss), max_window_bytes=int(window_kb * 1000))
    predictor = FormulaBasedPredictor(tcp=tcp, model=model)
    try:
        estimates = PathEstimates(
            rtt_s=rtt_ms / 1000.0, loss_rate=loss, availbw_mbps=availbw
        )
        predicted = predictor.predict(estimates)
        ceiling = window_limit_mbps(estimates.rtt_s, tcp)
    except (ConfigurationError, ValueError, ArithmeticError):
        predicted = ceiling = math.inf
    if not (math.isfinite(predicted) and math.isfinite(ceiling)):
        given = f", --availbw {availbw}" if availbw is not None else ""
        raise DataError(
            f"no finite prediction for --rtt-ms {rtt_ms}, --loss {loss}, "
            f"--window-kb {window_kb}, --mss {mss}{given}"
        )
    return FbAnswer(predicted, model, estimates.lossless, ceiling)
