"""Finite-buffer queueing formulas.

The bottleneck is modelled as an M/M/1/K queue: Poisson-ish cross
traffic offered at utilization ``rho`` to a server of ``K`` packet
slots.  M/M/1/K has closed forms for exactly the two quantities the
paper's error analysis needs — the overflow (loss) probability and the
mean queueing delay — and is well-behaved in overload (``rho > 1``),
which happens whenever the target flow saturates the path.

Internet cross traffic is burstier than Poisson; the path configuration
compensates through its ``burst_factor``/``probe_loss_factor``
parameters rather than through a heavier queueing model.

Each scalar formula has an ``*_array`` variant evaluating whole epoch
batches at once for the fluid engine.  The scalar forms
deliberately route their exponentials and logarithms through ``np.exp``
/ ``np.log`` (the ``math`` module's versions round differently in the
last bit on some inputs — unlike ``sqrt``, ``exp``/``log`` are not
IEEE-correctly-rounded, so the two libms may disagree) and the array
forms replicate every special case element by element, so the two are
**bit-identical** — the property that holds the engine to the per-epoch
reference loop in ``tests/fastpath/oracle.py``, which calls the scalar
forms.
"""

from __future__ import annotations

import numpy as np


def _validate(rho: float, k_packets: int) -> None:
    if rho < 0:
        raise ValueError(f"utilization must be non-negative, got {rho}")
    if k_packets < 1:
        raise ValueError(f"buffer must hold at least 1 packet, got {k_packets}")


def mm1k_loss_probability(rho: float, k_packets: int) -> float:
    """Blocking probability of an M/M/1/K queue at offered load ``rho``.

    ``P_K = (1 - rho) rho^K / (1 - rho^(K+1))``; at ``rho = 1`` the limit
    is ``1 / (K + 1)``.  Valid for ``rho > 1`` (overload) as well.
    """
    _validate(rho, k_packets)
    if rho == 0.0:
        return 0.0
    if abs(rho - 1.0) < 1e-9:
        return 1.0 / (k_packets + 1)
    # For large K and rho < 1, rho^K underflows harmlessly to 0.
    log_rho = float(np.log(rho))
    if rho < 1.0 and k_packets * log_rho < -700:
        return 0.0
    num = (1.0 - rho) * np.exp(k_packets * log_rho)
    den = 1.0 - np.exp((k_packets + 1) * log_rho)
    return float(min(1.0, max(0.0, num / den)))


def mm1k_loss_probability_array(rho: np.ndarray, k_packets: int) -> np.ndarray:
    """Elementwise :func:`mm1k_loss_probability` over a load array.

    Bit-identical to the scalar form for every element, including its
    ``rho == 0`` / ``rho ~ 1`` / underflow special cases.
    """
    _validate(float(rho.min(initial=0.0)), k_packets)
    out = np.zeros_like(rho)
    near_one = np.abs(rho - 1.0) < 1e-9
    if near_one.any():
        out[near_one] = 1.0 / (k_packets + 1)
    index = np.nonzero(~near_one & (rho != 0.0))[0]
    if index.size:
        r = rho[index]
        log_rho = np.log(r)
        num = (1.0 - r) * np.exp(k_packets * log_rho)
        den = 1.0 - np.exp((k_packets + 1) * log_rho)
        values = np.minimum(1.0, np.maximum(0.0, num / den))
        # Match the scalar underflow guard exactly: below exp's
        # subnormal range the scalar returns a clean 0.0 early.
        values[(r < 1.0) & (k_packets * log_rho < -700)] = 0.0
        out[index] = values
    return out


def mm1k_mean_system_occupancy(rho: float, k_packets: int) -> float:
    """Mean number of packets in an M/M/1/K system (queue + service).

    ``L = rho/(1-rho) - (K+1) rho^(K+1) / (1 - rho^(K+1))``; at
    ``rho = 1`` the limit is ``K/2``.
    """
    _validate(rho, k_packets)
    if rho == 0.0:
        return 0.0
    if abs(rho - 1.0) < 1e-9:
        return k_packets / 2.0
    log_rho = float(np.log(rho))
    if rho < 1.0 and (k_packets + 1) * log_rho < -700:
        return rho / (1.0 - rho)
    tail = (k_packets + 1) * np.exp((k_packets + 1) * log_rho)
    occupancy = rho / (1.0 - rho) - tail / (1.0 - np.exp((k_packets + 1) * log_rho))
    return float(min(float(k_packets), max(0.0, occupancy)))


def mm1k_mean_system_occupancy_array(
    rho: np.ndarray, k_packets: int
) -> np.ndarray:
    """Elementwise :func:`mm1k_mean_system_occupancy` over a load array."""
    _validate(float(rho.min(initial=0.0)), k_packets)
    out = np.zeros_like(rho)
    near_one = np.abs(rho - 1.0) < 1e-9
    if near_one.any():
        out[near_one] = k_packets / 2.0
    index = np.nonzero(~near_one & (rho != 0.0))[0]
    if index.size:
        r = rho[index]
        log_rho = np.log(r)
        geometric = r / (1.0 - r)
        tail = (k_packets + 1) * np.exp((k_packets + 1) * log_rho)
        occupancy = geometric - tail / (1.0 - np.exp((k_packets + 1) * log_rho))
        values = np.minimum(float(k_packets), np.maximum(0.0, occupancy))
        # The scalar underflow branch returns rho/(1-rho) *unclamped*.
        underflow = (r < 1.0) & ((k_packets + 1) * log_rho < -700)
        values[underflow] = geometric[underflow]
        out[index] = values
    return out


def mm1k_mean_queue_delay_s(
    rho: float, k_packets: int, service_rate_pps: float
) -> float:
    """Mean *queueing* delay (excluding service) of accepted packets.

    From Little's law: ``W = L / lambda_eff`` with
    ``lambda_eff = lambda (1 - P_K)``; the queueing delay is
    ``W - 1/mu``.

    Args:
        rho: offered load.
        k_packets: buffer size in packets.
        service_rate_pps: ``mu``, packets per second the link serves.
    """
    _validate(rho, k_packets)
    if service_rate_pps <= 0:
        raise ValueError(f"service_rate_pps must be positive, got {service_rate_pps}")
    if rho == 0.0:
        return 0.0
    loss = mm1k_loss_probability(rho, k_packets)
    occupancy = mm1k_mean_system_occupancy(rho, k_packets)
    effective_arrivals = rho * service_rate_pps * (1.0 - loss)
    if effective_arrivals <= 0:
        return 0.0
    total_delay = occupancy / effective_arrivals
    return float(max(0.0, total_delay - 1.0 / service_rate_pps))


def mm1k_mean_queue_delay_s_array(
    rho: np.ndarray, k_packets: int, service_rate_pps: float
) -> np.ndarray:
    """Elementwise :func:`mm1k_mean_queue_delay_s` over a load array."""
    if service_rate_pps <= 0:
        raise ValueError(f"service_rate_pps must be positive, got {service_rate_pps}")
    loss = mm1k_loss_probability_array(rho, k_packets)
    occupancy = mm1k_mean_system_occupancy_array(rho, k_packets)
    effective_arrivals = rho * service_rate_pps * (1.0 - loss)
    out = np.zeros_like(rho)
    index = np.nonzero(effective_arrivals > 0)[0]
    if index.size:
        total_delay = occupancy[index] / effective_arrivals[index]
        out[index] = np.maximum(0.0, total_delay - 1.0 / service_rate_pps)
    return out


def pollaczek_khinchine_factor(scv: float) -> float:
    """The M/G/1 mean-wait multiplier relative to M/M/1.

    Pollaczek-Khinchine: ``Wq(M/G/1) = Wq(M/M/1) * (1 + C_s^2) / 2``
    where ``C_s^2`` is the squared coefficient of variation of the
    service process.  ``scv = 1`` recovers the exponential baseline;
    burstier-than-Poisson traffic (``scv > 1``) queues longer at the
    same utilization.
    """
    if scv < 0:
        raise ValueError(f"scv must be non-negative, got {scv}")
    return (1.0 + scv) / 2.0


def packets_for_buffer(buffer_bytes: int, packet_bytes: int = 1500) -> int:
    """Buffer size converted to (whole) packet slots, at least one."""
    if buffer_bytes <= 0:
        raise ValueError(f"buffer_bytes must be positive, got {buffer_bytes}")
    if packet_bytes <= 0:
        raise ValueError(f"packet_bytes must be positive, got {packet_bytes}")
    return max(1, buffer_bytes // packet_bytes)


def service_rate_pps(capacity_mbps: float, packet_bytes: int = 1500) -> float:
    """Packets per second a link of the given capacity serves."""
    if capacity_mbps <= 0:
        raise ValueError(f"capacity_mbps must be positive, got {capacity_mbps}")
    return capacity_mbps * 1e6 / (packet_bytes * 8)
