"""The PFTK TCP throughput model (Padhye, Firoiu, Towsley, Kurose 2000).

Two variants are provided:

* :func:`pftk_throughput` — the approximate closed form the paper uses as
  its Eq. (2)::

      E[R] = min( M / (T sqrt(2bp/3)
                       + T0 min(1, sqrt(3bp/8)) p (1 + 32 p^2)),
                  W / T )

  We follow the paper's Eq. (2) verbatim.  (The original PFTK paper
  writes the timeout term as ``min(1, 3 sqrt(3bp/8))``; the factor-3
  variant is available through the ``timeout_factor`` argument.)

* :func:`pftk_full_throughput` — the full PFTK model (eqs. (30)-(32) of
  the original paper) with the expected window ``W(p)``, the timeout
  probability ``Q(p, w)``, and the backoff factor ``G(p)``, including the
  window-limited branch.

Both return throughput in Mbps for send rates expressed in segments.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.errors import PredictionError
from repro.core.units import BITS_PER_BYTE, MEGA
from repro.formulas.params import TcpParameters


def _validate(rtt_s: float, loss_rate: float, rto_s: float) -> None:
    if rtt_s <= 0:
        raise ValueError(f"rtt_s must be positive, got {rtt_s}")
    if not 0.0 <= loss_rate < 1.0:
        raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
    if rto_s <= 0:
        raise ValueError(f"rto_s must be positive, got {rto_s}")


def _segments_to_mbps(segments_per_second: float, mss_bytes: int) -> float:
    return segments_per_second * mss_bytes * BITS_PER_BYTE / MEGA


def pftk_throughput(
    rtt_s: float,
    loss_rate: float,
    rto_s: float,
    tcp: TcpParameters | None = None,
    timeout_factor: float = 1.0,
) -> float:
    """Approximate PFTK throughput in Mbps (paper Eq. (2)).

    Args:
        rtt_s: round-trip time ``T`` in seconds.
        loss_rate: loss (congestion event) rate ``p`` in (0, 1).
        rto_s: retransmission timeout ``T0`` in seconds.
        tcp: transfer parameters (``M``, ``b``, ``W``).
        timeout_factor: multiplier inside the ``min(1, .)`` timeout term;
            1.0 matches the paper's Eq. (2), 3.0 matches the original
            PFTK publication.

    Raises:
        PredictionError: if ``loss_rate`` is zero (the model diverges; use
            the avail-bw predictor for lossless paths).
    """
    tcp = tcp or TcpParameters()
    _validate(rtt_s, loss_rate, rto_s)
    if loss_rate == 0.0:
        raise PredictionError("PFTK model undefined for a lossless path")

    b = tcp.ack_every
    p = loss_rate
    fast_retransmit_term = rtt_s * math.sqrt(2.0 * b * p / 3.0)
    timeout_term = (
        rto_s
        * min(1.0, timeout_factor * math.sqrt(3.0 * b * p / 8.0))
        * p
        * (1.0 + 32.0 * p * p)
    )
    congestion_limited = 1.0 / (fast_retransmit_term + timeout_term)
    window_limited = tcp.max_window_segments / rtt_s
    return _segments_to_mbps(min(congestion_limited, window_limited), tcp.mss_bytes)


def pftk_loss_for_throughput(
    throughput_mbps: float,
    rtt_s: float,
    rto_s: float,
    tcp: TcpParameters | None = None,
    p_bounds: tuple[float, float] = (1e-8, 0.49),
) -> float:
    """Invert the PFTK model: the loss rate yielding a given throughput.

    This is the AIMD loss-throughput duality used by the fluid path model
    (``repro.fastpath``): a saturating TCP flow drives the loss process to
    exactly the level at which its model throughput equals its bandwidth
    share.  Solved by bisection — the PFTK throughput is monotonically
    decreasing in ``p``.

    Args:
        throughput_mbps: the throughput the flow sustains.
        rtt_s: the RTT the flow experiences.
        rto_s: the retransmission timeout.
        tcp: transfer parameters.
        p_bounds: search bracket for the loss rate.

    Returns:
        The loss (congestion event) rate, clipped to ``p_bounds`` when the
        target throughput falls outside the model's range.
    """
    tcp = tcp or TcpParameters()
    if throughput_mbps <= 0:
        raise ValueError(f"throughput_mbps must be positive, got {throughput_mbps}")
    p_lo, p_hi = p_bounds
    # Throughput at the bracket ends (decreasing in p).
    if pftk_throughput(rtt_s, p_lo, rto_s, tcp) <= throughput_mbps:
        return p_lo
    if pftk_throughput(rtt_s, p_hi, rto_s, tcp) >= throughput_mbps:
        return p_hi
    for _ in range(80):
        p_mid = math.sqrt(p_lo * p_hi)  # geometric: p spans many decades
        if pftk_throughput(rtt_s, p_mid, rto_s, tcp) > throughput_mbps:
            p_lo = p_mid
        else:
            p_hi = p_mid
        if p_hi / p_lo < 1.0001:
            break
    return math.sqrt(p_lo * p_hi)


def pftk_throughput_array(
    rtt_s,
    loss_rate,
    rto_s,
    tcp: TcpParameters | None = None,
    timeout_factor: float = 1.0,
) -> np.ndarray:
    """:func:`pftk_throughput` over arrays (broadcasting), in Mbps.

    Bit-identical to the scalar form element by element: the scalar
    form's ``math.sqrt``/``min`` round exactly like ``np.sqrt``/
    ``np.minimum``, and both evaluate the same expression tree.  Loss
    rates must be strictly positive (the fluid engine only calls this
    on its ``loss > 0`` subsets).
    """
    tcp = tcp or TcpParameters()
    b = tcp.ack_every
    p = loss_rate
    fast_retransmit_term = rtt_s * np.sqrt(2.0 * b * p / 3.0)
    timeout_term = (
        rto_s
        * np.minimum(1.0, timeout_factor * np.sqrt(3.0 * b * p / 8.0))
        * p
        * (1.0 + 32.0 * p * p)
    )
    congestion_limited = 1.0 / (fast_retransmit_term + timeout_term)
    window_limited = tcp.max_window_segments / rtt_s
    segments = np.minimum(congestion_limited, window_limited)
    return segments * tcp.mss_bytes * BITS_PER_BYTE / MEGA


def pftk_loss_for_throughput_array(
    throughput_mbps: np.ndarray,
    rtt_s: np.ndarray,
    rto_s: np.ndarray,
    tcp: TcpParameters | None = None,
    p_bounds: tuple[float, float] = (1e-8, 0.49),
) -> np.ndarray:
    """:func:`pftk_loss_for_throughput` over whole epoch batches.

    Replicates the scalar geometric bisection exactly, including its
    per-element early exit: an element leaves the active set the
    iteration after its bracket ratio drops below 1.0001, precisely
    when the scalar loop would ``break`` — so every element's bracket
    sees the same update sequence as a scalar call, and the result is
    bit-identical.
    """
    tcp = tcp or TcpParameters()
    target = np.asarray(throughput_mbps, dtype=np.float64)
    rtt = np.broadcast_to(np.asarray(rtt_s, dtype=np.float64), target.shape)
    rto = np.broadcast_to(np.asarray(rto_s, dtype=np.float64), target.shape)
    if target.size and float(target.min()) <= 0:
        raise ValueError("throughput_mbps must be positive")
    p_lo_bound, p_hi_bound = p_bounds
    out = np.empty_like(target)

    # Bracket-end shortcuts, exactly as the scalar form takes them.
    at_lo = pftk_throughput_array(rtt, p_lo_bound, rto, tcp) <= target
    at_hi = pftk_throughput_array(rtt, p_hi_bound, rto, tcp) >= target
    out[at_lo] = p_lo_bound
    out[at_hi & ~at_lo] = p_hi_bound

    pos = np.nonzero(~(at_lo | at_hi))[0]
    if pos.size:
        lo = np.full(pos.size, p_lo_bound)
        hi = np.full(pos.size, p_hi_bound)
        tgt = target[pos]
        r = rtt[pos]
        t0 = rto[pos]
        # Everything hoisted here is invariant across iterations (or a
        # scalar the left-associated expression evaluates first), so
        # computing it once is bit-neutral; the loop body below is
        # pftk_throughput_array's expression, inlined with ``mid`` as
        # the loss rate (the ``timeout_factor * `` multiply is dropped —
        # ``1.0 * x`` is an IEEE identity, and ``np.copyto`` writes the
        # same values ``np.where`` would select).
        fr_scale = 2.0 * tcp.ack_every
        to_scale = 3.0 * tcp.ack_every
        mss = float(tcp.mss_bytes)
        window_limited = tcp.max_window_segments / r
        remaining = True
        for _ in range(80):
            mid = np.sqrt(lo * hi)
            fast_retransmit_term = r * np.sqrt(fr_scale * mid / 3.0)
            timeout_term = (
                t0
                * np.minimum(1.0, np.sqrt(to_scale * mid / 8.0))
                * mid
                * (1.0 + 32.0 * mid * mid)
            )
            segments = np.minimum(
                1.0 / (fast_retransmit_term + timeout_term), window_limited
            )
            above = segments * mss * BITS_PER_BYTE / MEGA > tgt
            np.copyto(lo, mid, where=above)
            np.copyto(hi, mid, where=~above)
            keep = hi / lo >= 1.0001
            if keep.all():
                continue
            done = ~keep
            out[pos[done]] = np.sqrt(lo[done] * hi[done])
            if not keep.any():
                remaining = False
                break
            pos = pos[keep]
            lo = lo[keep]
            hi = hi[keep]
            tgt = tgt[keep]
            r = r[keep]
            t0 = t0[keep]
            window_limited = window_limited[keep]
        if remaining:
            # Elements still bracketed after 80 halvings, exactly as the
            # scalar loop leaves them.
            out[pos] = np.sqrt(lo * hi)
    return out


def expected_window(loss_rate: float, ack_every: int) -> float:
    """Expected congestion window ``W(p)`` in segments (PFTK eq. (13)).

    ``W(p) = (2+b)/(3b) + sqrt(8(1-p)/(3bp) + ((2+b)/(3b))^2)``
    """
    if not 0.0 < loss_rate < 1.0:
        raise ValueError(f"loss_rate must be in (0, 1), got {loss_rate}")
    b = ack_every
    base = (2.0 + b) / (3.0 * b)
    return base + math.sqrt(8.0 * (1.0 - loss_rate) / (3.0 * b * loss_rate) + base * base)


def timeout_probability(loss_rate: float, window: float) -> float:
    """``Q(p, w)``: probability that a loss indication is a timeout.

    PFTK eq. (23): ``Q = min(1, (1 + (1-p)^3 (1 - (1-p)^(w-3)))
    / ((1 - (1-p)^w) / (1 - (1-p)^3)))``.  For windows of three segments
    or fewer every loss leads to a timeout.
    """
    if not 0.0 < loss_rate < 1.0:
        raise ValueError(f"loss_rate must be in (0, 1), got {loss_rate}")
    if window < 1.0:
        raise ValueError(f"window must be >= 1 segment, got {window}")
    if window <= 3.0:
        return 1.0
    q = 1.0 - loss_rate
    numerator = 1.0 + q**3 * (1.0 - q ** (window - 3.0))
    denominator = (1.0 - q**window) / (1.0 - q**3)
    return min(1.0, numerator / denominator)


def backoff_factor(loss_rate: float) -> float:
    """``G(p) = 1 + p + 2p^2 + 4p^3 + 8p^4 + 16p^5 + 32p^6``.

    Accounts for exponential RTO backoff across consecutive timeouts
    (PFTK eq. (26)).
    """
    p = loss_rate
    return 1.0 + p + 2 * p**2 + 4 * p**3 + 8 * p**4 + 16 * p**5 + 32 * p**6


def pftk_full_throughput(
    rtt_s: float,
    loss_rate: float,
    rto_s: float,
    tcp: TcpParameters | None = None,
) -> float:
    """Full PFTK throughput in Mbps (PFTK eqs. (30)-(32)).

    Uses the expected window ``W(p)``, the timeout probability
    ``Q(p, w)``, and the backoff factor ``G(p)``.  When the expected
    window exceeds the maximum window ``W_max`` the window-limited branch
    applies.

    Raises:
        PredictionError: if ``loss_rate`` is zero.
    """
    tcp = tcp or TcpParameters()
    _validate(rtt_s, loss_rate, rto_s)
    if loss_rate == 0.0:
        raise PredictionError("PFTK model undefined for a lossless path")

    p = loss_rate
    b = tcp.ack_every
    w_max = tcp.max_window_segments
    w_p = expected_window(p, b)

    if w_p < w_max:
        q = timeout_probability(p, w_p)
        numerator = (1.0 - p) / p + w_p + q / (1.0 - p)
        denominator = (
            rtt_s * (b / 2.0 * w_p + 1.0)
            + q * backoff_factor(p) * rto_s / (1.0 - p)
        )
    else:
        q = timeout_probability(p, w_max)
        numerator = (1.0 - p) / p + w_max + q / (1.0 - p)
        denominator = (
            rtt_s * (b / 8.0 * w_max + (1.0 - p) / (p * w_max) + 2.0)
            + q * backoff_factor(p) * rto_s / (1.0 - p)
        )
    segments_per_second = numerator / denominator
    # The model cannot exceed the hard window limit W/T.
    segments_per_second = min(segments_per_second, w_max / rtt_s)
    return _segments_to_mbps(segments_per_second, tcp.mss_bytes)
