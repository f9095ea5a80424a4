"""Parameter bundles shared by the FB models.

Two small frozen dataclasses keep model signatures readable:

* :class:`TcpParameters` — properties of the *transfer* (segment size,
  delayed-ACK factor ``b``, maximum window ``W``), the knobs the paper
  varies (W = 1 MB vs W = 20 KB).
* :class:`PathEstimates` — the *a priori* measurements of the path
  (RTT ``T_hat``, loss rate ``p_hat``, avail-bw ``A_hat``) that the FB
  predictor of Eq. (3) consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.errors import ConfigurationError
from repro.core.units import kbyte, mbyte

#: Standard Ethernet-derived maximum segment size, bytes.
DEFAULT_MSS_BYTES = 1460

#: Delayed ACKs acknowledge every other segment (paper's ``b``).
DEFAULT_ACK_EVERY = 2


@dataclass(frozen=True)
class TcpParameters:
    """Transfer-side parameters of the TCP throughput models.

    Attributes:
        mss_bytes: maximum segment size ``M`` in bytes.
        ack_every: segments per new ACK, the models' ``b`` (2 with
            delayed ACKs, 1 without).
        max_window_bytes: maximum window ``W`` in bytes — in practice the
            smaller of the sender buffer and the receiver's advertised
            window, which the paper controls through IPerf's socket
            buffer size.
    """

    mss_bytes: int = DEFAULT_MSS_BYTES
    ack_every: int = DEFAULT_ACK_EVERY
    max_window_bytes: int = mbyte(1)

    def __post_init__(self) -> None:
        if self.mss_bytes <= 0:
            raise ConfigurationError(f"mss_bytes must be positive, got {self.mss_bytes}")
        if self.ack_every < 1:
            raise ConfigurationError(f"ack_every must be >= 1, got {self.ack_every}")
        if self.max_window_bytes < self.mss_bytes:
            raise ConfigurationError(
                "max_window_bytes must hold at least one segment "
                f"({self.max_window_bytes} < {self.mss_bytes})"
            )

    @classmethod
    def congestion_limited(cls) -> "TcpParameters":
        """The paper's default: W = 1 MB, large enough to saturate paths."""
        return cls(max_window_bytes=mbyte(1))

    @classmethod
    def window_limited(cls) -> "TcpParameters":
        """The paper's small-window setting: W = 20 KB."""
        return cls(max_window_bytes=kbyte(20))

    @property
    def max_window_segments(self) -> float:
        """Maximum window expressed in segments."""
        return self.max_window_bytes / self.mss_bytes


@dataclass(frozen=True)
class PathEstimates:
    """A priori path measurements feeding the FB predictor (Eq. (3)).

    Attributes:
        rtt_s: measured round-trip time ``T_hat`` in seconds.
        loss_rate: measured loss rate ``p_hat`` in [0, 1]; zero means the
            probing observed a lossless path.
        availbw_mbps: measured available bandwidth ``A_hat`` in Mbps, or
            ``None`` if no avail-bw measurement was taken.  Required by
            the predictor only on lossless paths.
    """

    rtt_s: float
    loss_rate: float
    availbw_mbps: float | None = None

    def __post_init__(self) -> None:
        if not (self.rtt_s > 0 and math.isfinite(self.rtt_s)):
            raise ConfigurationError(
                f"rtt_s must be positive and finite, got {self.rtt_s}"
            )
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0, 1), got {self.loss_rate}"
            )
        if self.availbw_mbps is not None and not (
            self.availbw_mbps > 0 and math.isfinite(self.availbw_mbps)
        ):
            raise ConfigurationError(
                "availbw_mbps must be positive and finite when given, "
                f"got {self.availbw_mbps}"
            )

    @property
    def lossless(self) -> bool:
        """True when the a priori probing saw no losses."""
        return self.loss_rate == 0.0


def fb_input_errors(
    *,
    rtt_ms: float,
    loss: float,
    window_kb: float,
    mss: float,
    availbw: float | None = None,
) -> list[str]:
    """Problems with raw FB prediction inputs, as one-line messages.

    The single source of truth for rejecting user-supplied FB inputs:
    the ``repro-predict`` CLI turns a non-empty result into a
    ``parser.error`` and the serving layer's ``/predict/fb`` endpoint
    turns it into an HTTP 400, so both surfaces agree on what is
    invalid and say so with the same words.  An empty list means the
    inputs can safely construct :class:`TcpParameters` and
    :class:`PathEstimates` (which still enforce their own invariants).
    """
    errors: list[str] = []
    if not math.isfinite(rtt_ms) or rtt_ms <= 0:
        errors.append(f"--rtt-ms must be a positive number, got {rtt_ms}")
    if not math.isfinite(loss) or not 0.0 <= loss < 1.0:
        errors.append(f"--loss must be in [0, 1), got {loss}")
    if not math.isfinite(window_kb) or window_kb <= 0:
        errors.append(f"--window-kb must be positive, got {window_kb}")
    if not math.isfinite(mss) or mss <= 0 or mss != int(mss):
        errors.append(f"--mss must be a positive integer, got {mss}")
    elif math.isfinite(window_kb) and 0 < window_kb * 1000 < mss:
        errors.append(
            f"--window-kb must hold at least one segment "
            f"({window_kb} KB < {mss} bytes)"
        )
    if availbw is not None and (not math.isfinite(availbw) or availbw <= 0):
        errors.append(f"--availbw must be positive when given, got {availbw}")
    if not errors and loss == 0.0 and availbw is None:
        errors.append("--availbw is required when --loss is 0 (lossless path)")
    return errors
