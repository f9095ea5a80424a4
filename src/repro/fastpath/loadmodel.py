"""The stochastic cross-traffic load process of one path.

Three timescales, matching what the paper's traces exhibit (Fig. 15):

* **regimes** — the per-trace mean utilization, drawn around the path's
  long-run mean (different traces run at different times of day);
* **level shifts** — a Poisson hazard replaces the regime mean with a
  fresh draw (routing changes, start/stop of big aggregates), producing
  the sudden mean changes the LSO heuristic targets;
* **epoch-to-epoch dynamics** — an AR(1) process around the regime
  mean, plus rare transient **outlier** bursts confined to a single
  epoch's transfer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.paths.config import PathConfig

#: Utilization from cross traffic alone never quite reaches the link.
MAX_CROSS_UTIL = 0.96

#: Outlier bursts add this much extra offered load (before clipping).
OUTLIER_EXTRA_UTIL_RANGE = (0.15, 0.5)


@dataclass(frozen=True)
class EpochLoad:
    """Cross-traffic load state for one epoch.

    Attributes:
        util_pre: bottleneck utilization during the pre-transfer
            measurements (pathload + ping).
        util_during: cross-traffic utilization during the transfer
            (excluding the target flow itself).
        outlier: True when a transient burst hits this epoch's transfer.
        shifted: True when a level shift occurred just before this epoch.
    """

    util_pre: float
    util_during: float
    outlier: bool
    shifted: bool


#: Seconds in the diurnal cycle.
DAY_S = 24 * 3600.0


class CrossLoadProcess:
    """Evolves one path's cross-traffic utilization across epochs.

    Args:
        config: the path's static parameters.
        rng: random stream (one per path/trace for reproducibility).
        regime_mean: starting regime mean; ``None`` draws one around the
            path's ``base_util`` (what a fresh trace does).
        start_time_s: absolute start time; only matters when the config
            enables a diurnal cycle (``diurnal_amplitude > 0``), which
            adds ``A * sin(2 pi t / 24h)`` to the regime mean.
    """

    def __init__(
        self,
        config: PathConfig,
        rng: np.random.Generator,
        regime_mean: float | None = None,
        start_time_s: float = 0.0,
    ) -> None:
        self.config = config
        self.rng = rng
        self.time_s = start_time_s
        if regime_mean is None:
            regime_mean = self._draw_regime_mean()
        self.regime_mean = regime_mean
        self.util = self._clip(regime_mean + rng.normal(0.0, config.ar_sigma))

    def _draw_regime_mean(self) -> float:
        draw = self.rng.normal(self.config.base_util, self.config.util_spread)
        return self._clip(draw)

    @staticmethod
    def _clip(value: float) -> float:
        return float(np.clip(value, 0.0, MAX_CROSS_UTIL))

    def advance(self, dt_s: float) -> EpochLoad:
        """Advance the process by one epoch interval and sample its load.

        Args:
            dt_s: elapsed time since the previous epoch (level-shift
                hazard scales with it).
        """
        if dt_s < 0:
            raise ValueError(f"dt_s must be non-negative, got {dt_s}")
        cfg = self.config
        self.time_s += dt_s

        shifted = False
        shift_prob = 1.0 - np.exp(-cfg.shift_rate_per_hour * dt_s / 3600.0)
        if self.rng.random() < shift_prob:
            self.regime_mean = self._draw_shift_target()
            # Jump most of the way to the new level immediately.
            self.util = self._clip(
                self.regime_mean + self.rng.normal(0.0, cfg.ar_sigma)
            )
            shifted = True
        else:
            mean = self.regime_mean + self._diurnal_offset()
            self.util = self._clip(
                mean
                + cfg.ar_phi * (self.util - mean)
                + self.rng.normal(0.0, cfg.ar_sigma)
            )

        # The transfer happens ~1-2 minutes after the measurements begin;
        # at short timescales cross traffic is bursty, so the load during
        # the transfer can differ substantially from what the probes saw
        # (the paper's Section 3.2 — the primary cause of FB errors).
        within_epoch_drift = self.rng.normal(0.01, cfg.ar_sigma * 0.8)
        util_during = self._clip(self.util + within_epoch_drift)

        outlier = bool(self.rng.random() < cfg.outlier_rate)
        if outlier:
            extra = self.rng.uniform(*OUTLIER_EXTRA_UTIL_RANGE)
            util_during = self._clip(util_during + extra)

        return EpochLoad(
            util_pre=self.util,
            util_during=util_during,
            outlier=outlier,
            shifted=shifted,
        )

    def _diurnal_offset(self) -> float:
        """Sinusoidal load-of-day offset; zero when disabled."""
        amplitude = self.config.diurnal_amplitude
        if amplitude == 0.0:
            return 0.0
        return amplitude * float(np.sin(2.0 * np.pi * self.time_s / DAY_S))

    def _draw_shift_target(self) -> float:
        """A new regime mean, clearly separated from the current one."""
        cfg = self.config
        # Shift magnitude: at least ~1.5 sigma of trace-level variation,
        # in a random direction, biased back toward the long-run mean.
        magnitude = self.rng.uniform(1.5, 4.0) * max(cfg.util_spread, 0.05)
        toward_base = np.sign(cfg.base_util - self.regime_mean) or 1.0
        direction = toward_base if self.rng.random() < 0.6 else -toward_base
        return self._clip(self.regime_mean + direction * magnitude)


# ---------------------------------------------------------------------------
# The pre-drawn-noise load process of the fluid engine.
#
# :class:`CrossLoadProcess` above owns its generator and draws as it
# goes, which the packet-level :class:`~repro.testbed.packet_epoch.
# PacketTraceRunner` still relies on.  The fluid campaign instead
# pre-draws all load noise from its ``u``/``z`` site streams (see
# ``repro.fastpath.sites``) and feeds it through the pure function
# :func:`load_step`, which evolves the AR(1) recursion one epoch at a
# time — so the engine and the per-epoch reference loop in
# ``tests/fastpath/oracle.py`` run the same code here.
# ---------------------------------------------------------------------------


def _clip_util(value: float) -> float:
    """Clip a utilization to ``[0, MAX_CROSS_UTIL]`` (branchy, scalar-fast)."""
    if value < 0.0:
        return 0.0
    if value > MAX_CROSS_UTIL:
        return MAX_CROSS_UTIL
    return value


@dataclass
class LoadState:
    """Mutable cross-load state threaded through :func:`load_step`.

    Attributes:
        regime_mean: the current regime's mean utilization.
        util: the AR(1) state (last epoch's pre-transfer utilization).
        time_s: absolute time (drives the optional diurnal cycle).
    """

    regime_mean: float
    util: float
    time_s: float


def init_load_state(
    config: PathConfig,
    z_regime: float,
    z_util: float,
    regime_mean: float | None = None,
    start_time_s: float = 0.0,
) -> LoadState:
    """Initial load state from the trace's two init draws.

    ``z_regime`` is consumed only when no explicit ``regime_mean`` is
    given (it is drawn-and-discarded otherwise, keeping the init
    stream's layout fixed).
    """
    if regime_mean is None:
        regime_mean = _clip_util(
            config.base_util + config.util_spread * z_regime
        )
    util = _clip_util(regime_mean + config.ar_sigma * z_util)
    return LoadState(regime_mean=regime_mean, util=util, time_s=start_time_s)


def load_step(
    config: PathConfig,
    state: LoadState,
    dt_s: float,
    u,
    z_ar: float,
    z_drift: float,
) -> tuple[float, float, bool, bool]:
    """Advance the load by one epoch using pre-drawn noise.

    Args:
        config: the path's static parameters.
        state: the mutable load state (updated in place).
        dt_s: elapsed time since the previous epoch.
        u: this epoch's uniform block (``U_WIDTH`` wide, indexed by the
            ``U_*`` constants of ``repro.fastpath.sites``).
        z_ar: the AR innovation (shared by the shift and AR branches).
        z_drift: the within-epoch drift innovation.

    Returns:
        ``(util_pre, util_during, outlier, shifted)`` — a plain tuple
        (this runs once per epoch on the campaign hot path).
    """
    if dt_s < 0:
        raise ValueError(f"dt_s must be non-negative, got {dt_s}")
    cfg = config
    state.time_s += dt_s

    shifted = False
    shift_prob = 1.0 - math.exp(-cfg.shift_rate_per_hour * dt_s / 3600.0)
    if u[0] < shift_prob:
        # Level shift: magnitude of at least ~1.5 sigma of trace-level
        # variation, biased back toward the long-run mean.
        magnitude = (1.5 + 2.5 * u[1]) * max(cfg.util_spread, 0.05)
        diff = cfg.base_util - state.regime_mean
        toward_base = 1.0 if diff > 0.0 else (-1.0 if diff < 0.0 else 1.0)
        direction = toward_base if u[2] < 0.6 else -toward_base
        state.regime_mean = _clip_util(state.regime_mean + direction * magnitude)
        # Jump most of the way to the new level immediately.
        state.util = _clip_util(state.regime_mean + cfg.ar_sigma * z_ar)
        shifted = True
    else:
        mean = state.regime_mean
        amplitude = cfg.diurnal_amplitude
        if amplitude != 0.0:
            mean = mean + amplitude * math.sin(
                2.0 * math.pi * state.time_s / DAY_S
            )
        state.util = _clip_util(
            mean + cfg.ar_phi * (state.util - mean) + cfg.ar_sigma * z_ar
        )

    # The transfer happens ~1-2 minutes after the measurements begin;
    # at short timescales cross traffic is bursty, so the load during
    # the transfer can differ substantially from what the probes saw.
    util_during = _clip_util(state.util + (0.01 + cfg.ar_sigma * 0.8 * z_drift))

    outlier = bool(u[3] < cfg.outlier_rate)
    if outlier:
        extra = OUTLIER_EXTRA_UTIL_RANGE[0] + (
            OUTLIER_EXTRA_UTIL_RANGE[1] - OUTLIER_EXTRA_UTIL_RANGE[0]
        ) * u[4]
        util_during = _clip_util(util_during + extra)

    return state.util, util_during, outlier, shifted
