"""How active probing observes the path (paper Section 3.3).

Periodic probes do not see the path the way a TCP flow does:

* a **finite probe count** quantizes loss estimates — 600 probes cannot
  resolve rates below 1/600, and the paper's own Fig. 5 footnote notes
  the resulting discretization;
* the **sample mean** of probe RTTs carries noise that shrinks with the
  probe count;
* during saturation, TCP's losses cluster in bursts of its own making,
  which a uniform-in-time sampler largely misses — probes observe only a
  path-dependent fraction (``probe_loss_factor``) of the packet loss
  TCP inflicts.
"""

from __future__ import annotations

import numpy as np

#: The paper's probing setup: 100 ms period.
PROBES_PER_SECOND = 10

#: Kernel/NIC timestamping jitter on a single RTT sample, seconds.
RTT_JITTER_S = 2e-4


def probe_loss_estimate(
    rng: np.random.Generator, true_loss: float, n_probes: int
) -> float:
    """A finite-sample loss estimate: Binomial(n, p) / n.

    This is what quantizes the paper's measured loss rates to multiples
    of ``1/n_probes`` and what makes mildly lossy paths often *measure*
    lossless.
    """
    if not 0.0 <= true_loss <= 1.0:
        raise ValueError(f"true_loss must be in [0, 1], got {true_loss}")
    if n_probes < 1:
        raise ValueError(f"n_probes must be >= 1, got {n_probes}")
    return float(rng.binomial(n_probes, true_loss)) / n_probes


def probe_rtt_estimate(
    rng: np.random.Generator,
    base_rtt_s: float,
    mean_queue_delay_s: float,
    n_probes: int,
) -> float:
    """The sample-mean RTT a periodic prober reports.

    Per-probe queueing delays are roughly exponential around their mean
    (M/M/1-like), so the sample mean over ``n`` probes has standard
    error ``mean / sqrt(n)``; timestamping jitter adds a floor.
    """
    if base_rtt_s <= 0:
        raise ValueError(f"base_rtt_s must be positive, got {base_rtt_s}")
    if mean_queue_delay_s < 0:
        raise ValueError(
            f"mean_queue_delay_s must be non-negative, got {mean_queue_delay_s}"
        )
    if n_probes < 1:
        raise ValueError(f"n_probes must be >= 1, got {n_probes}")
    stderr = mean_queue_delay_s / np.sqrt(n_probes)
    noise = rng.normal(0.0, stderr) + rng.normal(0.0, RTT_JITTER_S)
    return float(max(base_rtt_s, base_rtt_s + mean_queue_delay_s + noise))


def probe_rtt_sample(
    base_rtt_s: float,
    mean_queue_delay_s,
    n_probes: int,
    z_stderr,
    z_jitter,
):
    """:func:`probe_rtt_estimate` as a pure kernel over pre-drawn noise.

    Written entirely in NumPy ufunc operations, so a float argument and
    a whole epoch array produce bit-identical values — NumPy applies
    the same elementwise routine either way.
    """
    stderr = mean_queue_delay_s / np.sqrt(n_probes)
    noise = stderr * z_stderr + RTT_JITTER_S * z_jitter
    return np.maximum(base_rtt_s, base_rtt_s + mean_queue_delay_s + noise)


def pathload_sample(
    true_availbw_mbps,
    capacity_mbps: float,
    bias: float,
    noise: float,
    z,
):
    """:func:`pathload_estimate` as a pure kernel over pre-drawn noise.

    Same scalar/array bit-identity contract as :func:`probe_rtt_sample`.
    """
    estimate = true_availbw_mbps * (1.0 + bias + noise * z)
    floor = 0.05  # Mbps; the estimator cannot report zero or less
    return np.clip(estimate, floor, capacity_mbps * 1.05)


def pathload_estimate(
    rng: np.random.Generator,
    true_availbw_mbps: float,
    capacity_mbps: float,
    bias: float,
    noise: float,
) -> float:
    """An avail-bw estimate with pathload's bias and noise.

    Pathload's binary search has finite resolution and tends to settle
    slightly above the true avail-bw (the paper hypothesizes exactly
    this overestimation in Section 4.2.1); both the fractional ``bias``
    and the fractional ``noise`` come from the path configuration.

    The estimate is clipped to a small positive floor and to just above
    the capacity (an estimator can report a touch more than ``C``).
    """
    if true_availbw_mbps < 0:
        raise ValueError(
            f"true_availbw_mbps must be non-negative, got {true_availbw_mbps}"
        )
    if capacity_mbps <= 0:
        raise ValueError(f"capacity_mbps must be positive, got {capacity_mbps}")
    estimate = true_availbw_mbps * (1.0 + bias + rng.normal(0.0, noise))
    floor = 0.05  # Mbps; the estimator cannot report zero or less
    return float(np.clip(estimate, floor, capacity_mbps * 1.05))
