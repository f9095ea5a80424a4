"""The per-epoch fluid loop the shipped engine must reproduce bit for bit.

The library simulates a (path, trace) unit as whole-trace array kernels
(:func:`repro.fastpath.vector.run_fluid_trace`).  This module keeps the
plain statement of the same model — one epoch at a time, through the
scalar formulas (``mm1k_*``, ``pftk_*``) — for tests only:

* :class:`FluidPathSimulator` — one :class:`EpochMeasurement` per
  :meth:`~FluidPathSimulator.run_epoch` call, drawing each epoch's
  fixed-width blocks from the :class:`~repro.fastpath.sites.FluidSites`
  streams as it goes;
* :func:`oracle_run_trace` / :func:`oracle_campaign` — what
  ``Campaign.run_trace`` / ``Campaign.run`` compute, on that loop
  (serially, from the same named site streams);
* :func:`oracle_trace` and :func:`engine_trace` — ``n`` epochs of one
  configuration ``dt_s`` apart, on the loop and on the shipped engine,
  under one signature.

None of it touches telemetry.  The engine's constants and its two
per-trace helpers (``draw_elastic_rtts``, ``elastic_cross_weight``) are
imported, not restated: they hold no arithmetic the engine batches.

To bisect numeric drift, compare :func:`engine_trace` with
:func:`oracle_trace` on the smallest configuration that still differs
(``tests/fastpath/test_vector.py`` draws them), then compare the two
epoch by epoch and field by field: the first differing field names the
kernel (``that_s`` -> the pre-transfer probes, ``throughput_mbps`` ->
the transfer branch in ``truth.regime``, ``ptilde`` -> the probe-loss
mismatch), and the oracle's method for that step is the reference
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.fastpath.loadmodel import init_load_state, load_step
from repro.fastpath.queueing import (
    mm1k_loss_probability,
    mm1k_mean_queue_delay_s,
    packets_for_buffer,
    pollaczek_khinchine_factor,
    service_rate_pps,
)
from repro.fastpath.sampling import pathload_sample, probe_rtt_sample
from repro.fastpath.sites import (
    U_WIDTH,
    FluidSites,
    Z_AR,
    Z_DRIFT,
    Z_FILL,
    Z_PATHLOAD,
    Z_PROBE_MISMATCH,
    Z_RTT_DURING_JITTER,
    Z_RTT_DURING_STDERR,
    Z_RTT_PRE_JITTER,
    Z_RTT_PRE_STDERR,
    Z_SMALL_FILL,
    Z_SMALL_VARIABILITY,
    Z_VARIABILITY,
    z_checkpoint_base,
    z_width,
)
from repro.fastpath.vector import (
    CAPACITY_MEASUREMENT_SLACK,
    N_PROBES_DURING,
    N_PROBES_PRE,
    PROBE_LOSS_LOGNORMAL_SIGMA,
    WINDOW_LIMITED_MARGIN,
    draw_elastic_rtts,
    elastic_cross_weight,
    run_fluid_trace,
)
from repro.formulas.params import TcpParameters
from repro.formulas.pftk import pftk_loss_for_throughput, pftk_throughput
from repro.paths.config import PathConfig
from repro.paths.records import Dataset, EpochMeasurement, EpochTruth, Trace
from repro.testbed.campaign import (
    EPOCH_INTERVAL_RANGE_S,
    TRACE_GAP_S,
    Campaign,
    CampaignSettings,
)


@dataclass(frozen=True)
class _TransferOutcome:
    """Internal result of the transfer model."""

    throughput_mbps: float
    mean_throughput_mbps: float
    loss_event_rate: float
    rtt_during_s: float
    queue_delay_during_s: float
    regime: str


class FluidPathSimulator:
    """Epoch-level simulator of one path, one epoch per call.

    Args:
        config: the path's static parameters.
        rng: this path/trace's random streams — either a
            :class:`~repro.fastpath.sites.FluidSites` bundle or a single
            :class:`numpy.random.Generator` from which a bundle is
            spawned.
        regime_mean: optional starting regime mean for the load process.
        start_time_s: absolute start time, forwarded to the load process
            (only observable when the config enables a diurnal cycle).
    """

    def __init__(
        self,
        config: PathConfig,
        rng: np.random.Generator | FluidSites,
        regime_mean: float | None = None,
        start_time_s: float = 0.0,
    ) -> None:
        self.config = config
        sites = rng if isinstance(rng, FluidSites) else FluidSites.from_generator(rng)
        self.sites = sites
        self._k_packets = packets_for_buffer(config.buffer_bytes)
        self._mu_pps = service_rate_pps(config.capacity_mbps)
        self._pk_factor = pollaczek_khinchine_factor(config.burstiness_scv)
        # Elastic cross flows competing at the bottleneck: count and RTTs
        # are drawn once per simulator (i.e. per trace).
        self._elastic_rtts_s = draw_elastic_rtts(config, sites.elastic)
        self._cross_weight = elastic_cross_weight(self._elastic_rtts_s)
        z_init = sites.init.standard_normal(2)
        self._load_state = init_load_state(
            config,
            float(z_init[0]),
            float(z_init[1]),
            regime_mean,
            start_time_s=start_time_s,
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run_epoch(
        self,
        path_id: str,
        trace_index: int,
        epoch_index: int,
        start_time_s: float,
        dt_s: float,
        tcp: TcpParameters,
        small_tcp: TcpParameters | None = None,
        checkpoint_fractions: tuple[float, ...] = (),
        transfer_duration_s: float = 50.0,
    ) -> EpochMeasurement:
        """Simulate one epoch and return its measurement record.

        Args:
            path_id/trace_index/epoch_index: identity of the epoch.
            start_time_s: absolute epoch start time.
            dt_s: time since the previous epoch (load evolution).
            tcp: the main transfer's parameters (the paper's W = 1 MB).
            small_tcp: when given, a companion small-window transfer is
                simulated under the same load (the paper's W = 20 KB).
            checkpoint_fractions: fractions of the transfer duration at
                which cumulative throughput snapshots are reported
                (Fig. 11's 30/60/120 s cuts, as fractions of 120 s).
            transfer_duration_s: the transfer length.
        """
        cfg = self.config

        has_small = small_tcp is not None
        u = self.sites.u.random(U_WIDTH).tolist()
        z = self.sites.z.standard_normal(
            z_width(has_small, len(checkpoint_fractions))
        ).tolist()
        util_pre, util_during, outlier, _shifted = load_step(
            cfg, self._load_state, dt_s, u, z[Z_AR], z[Z_DRIFT]
        )

        # --- pre-transfer measurements (pathload, then 60 s of ping) ---
        dq_pre = self._queue_delay(util_pre)
        that_s = float(
            probe_rtt_sample(
                cfg.base_rtt_s,
                dq_pre,
                N_PROBES_PRE,
                z[Z_RTT_PRE_STDERR],
                z[Z_RTT_PRE_JITTER],
            )
        )
        loss_pre = min(
            0.5,
            cfg.random_loss + mm1k_loss_probability(util_pre, self._k_packets),
        )
        phat = float(self.sites.phat.binomial(N_PROBES_PRE, loss_pre)) / N_PROBES_PRE
        availbw_pre = cfg.capacity_mbps * (1.0 - util_pre)
        ahat_mbps = float(
            pathload_sample(
                availbw_pre,
                cfg.capacity_mbps,
                cfg.pathload_bias,
                cfg.pathload_noise,
                z[Z_PATHLOAD],
            )
        )

        # --- the target transfer ---------------------------------------
        outcome = self._transfer(util_during, tcp, z[Z_FILL], z[Z_VARIABILITY])

        # --- probing during the transfer --------------------------------
        ttilde_s = float(
            probe_rtt_sample(
                cfg.base_rtt_s,
                outcome.queue_delay_during_s,
                N_PROBES_DURING,
                z[Z_RTT_DURING_STDERR],
                z[Z_RTT_DURING_JITTER],
            )
        )
        probe_loss_during = self._probe_observed_loss(outcome, z[Z_PROBE_MISMATCH])
        ptilde = (
            float(self.sites.ptilde.binomial(N_PROBES_DURING, probe_loss_during))
            / N_PROBES_DURING
        )

        # --- companion small-window transfer ----------------------------
        smallw = None
        if has_small:
            smallw = self._transfer(
                util_during, small_tcp, z[Z_SMALL_FILL], z[Z_SMALL_VARIABILITY]
            ).throughput_mbps

        # --- sub-duration throughputs (second measurement set) ----------
        checkpoints = self._checkpoint_throughputs(
            outcome, checkpoint_fractions, transfer_duration_s, z, has_small
        )

        return EpochMeasurement(
            path_id=path_id,
            trace_index=trace_index,
            epoch_index=epoch_index,
            start_time_s=start_time_s,
            ahat_mbps=ahat_mbps,
            phat=phat,
            that_s=that_s,
            throughput_mbps=outcome.throughput_mbps,
            ptilde=ptilde,
            ttilde_s=ttilde_s,
            smallw_throughput_mbps=smallw,
            duration_throughputs_mbps=checkpoints,
            truth=EpochTruth(
                utilization_pre=util_pre,
                utilization_during=util_during,
                loss_event_rate=outcome.loss_event_rate,
                regime=outcome.regime,
                outlier=outlier,
            ),
        )

    # ------------------------------------------------------------------
    # The transfer model
    # ------------------------------------------------------------------

    def _transfer(
        self, util: float, tcp: TcpParameters, z_fill: float, z_var: float
    ) -> _TransferOutcome:
        cfg = self.config
        capacity = cfg.capacity_mbps
        availbw = capacity * (1.0 - util)
        base_rtt = cfg.base_rtt_s

        # First guess of the flow's RTT if it stays non-saturating.
        dq_light = self._queue_delay(util)
        window_cap = tcp.max_window_bytes * 8.0 / (base_rtt + dq_light) / 1e6

        if window_cap < WINDOW_LIMITED_MARGIN * availbw:
            return self._window_limited_transfer(util, tcp, z_var)

        # The flow saturates (or tries to): compute its bandwidth share.
        share = self._bandwidth_share(util, base_rtt)
        rto_guess = max(1.0, 2.0 * base_rtt)
        loss_cap = math.inf
        if cfg.random_loss > 0:
            loss_cap = pftk_throughput(
                base_rtt + dq_light, cfg.random_loss, rto_guess, tcp
            )

        if loss_cap < share:
            return self._loss_limited_transfer(util, tcp, loss_cap, z_var)
        return self._congestion_limited_transfer(util, tcp, share, z_fill, z_var)

    def _window_limited_transfer(
        self, util: float, tcp: TcpParameters, z_var: float
    ) -> _TransferOutcome:
        cfg = self.config
        # The flow adds its own (small) load; recompute the queue with it.
        window_mbps = tcp.max_window_bytes * 8.0 / cfg.base_rtt_s / 1e6
        util_total = min(0.98, util + window_mbps / cfg.capacity_mbps)
        dq = self._queue_delay(util_total)
        rtt_during = cfg.base_rtt_s + dq
        mean_rate = tcp.max_window_bytes * 8.0 / rtt_during / 1e6

        loss = min(
            0.4,
            cfg.random_loss + mm1k_loss_probability(util_total, self._k_packets),
        )
        if loss > 0:
            rto = max(1.0, 2.0 * rtt_during)
            mean_rate = min(mean_rate, pftk_throughput(rtt_during, loss, rto, tcp))

        sigma = 0.03 + 1.5 * np.sqrt(loss)
        sample = mean_rate * np.exp(min(sigma, 0.35) * z_var)
        sample = min(sample, window_mbps)
        sample = min(sample, CAPACITY_MEASUREMENT_SLACK * cfg.capacity_mbps)
        return _TransferOutcome(
            throughput_mbps=float(max(sample, 1e-3)),
            mean_throughput_mbps=mean_rate,
            loss_event_rate=loss,
            rtt_during_s=rtt_during,
            queue_delay_during_s=dq,
            regime="window",
        )

    def _loss_limited_transfer(
        self, util: float, tcp: TcpParameters, loss_cap_mbps: float, z_var: float
    ) -> _TransferOutcome:
        cfg = self.config
        util_total = min(
            0.99, util + loss_cap_mbps / cfg.capacity_mbps
        )
        dq = self._queue_delay(util_total)
        rtt_during = cfg.base_rtt_s + dq
        # Loss-limited flows have high throughput variance: the loss
        # process, not the capacity, sets the pace.
        sigma = 0.07 + 0.5 * np.sqrt(cfg.random_loss)
        sample = loss_cap_mbps * np.exp(min(sigma, 0.4) * z_var)
        sample = min(sample, CAPACITY_MEASUREMENT_SLACK * cfg.capacity_mbps)
        return _TransferOutcome(
            throughput_mbps=float(max(sample, 1e-3)),
            mean_throughput_mbps=loss_cap_mbps,
            loss_event_rate=cfg.random_loss,
            rtt_during_s=rtt_during,
            queue_delay_during_s=dq,
            regime="loss",
        )

    def _congestion_limited_transfer(
        self,
        util: float,
        tcp: TcpParameters,
        share_mbps: float,
        z_fill: float,
        z_var: float,
    ) -> _TransferOutcome:
        cfg = self.config
        # Buffer adequacy: an AIMD sawtooth needs roughly a BDP of
        # buffering to keep the link busy through window halvings.  The
        # base efficiency sits well below 1 even with ample buffering:
        # classic Reno loses whole RTO periods (1 s minimum) whenever a
        # drop-tail overflow claims several segments of one window —
        # calibrated against the packet-level simulator (see
        # tests/integration/test_fluid_vs_packet.py).
        bdp_bytes = share_mbps * 1e6 * cfg.base_rtt_s / 8.0
        eta = 0.55 + 0.35 * min(1.0, cfg.buffer_bytes / max(bdp_bytes, 1.0))
        mean_rate = share_mbps * eta

        # Saturation keeps the buffer partially full; the fill level rises
        # with how loaded the path already was.
        fill = min(0.9, max(0.15, 0.25 + 0.35 * util + 0.08 * z_fill))
        dq = fill * self._k_packets / self._mu_pps
        rtt_during = cfg.base_rtt_s + dq
        mean_rate = min(mean_rate, tcp.max_window_bytes * 8.0 / rtt_during / 1e6)

        # Short-term throughput variability: grows with utilization,
        # shrinks with statistical multiplexing (the paper's queueing
        # analysis, Section 6.1.4).
        sigma = 0.03 + 0.35 * util * util / math.sqrt(max(1, cfg.n_cross_flows))
        sample = mean_rate * np.exp(min(sigma, 0.5) * z_var)
        sample = min(sample, CAPACITY_MEASUREMENT_SLACK * cfg.capacity_mbps)
        sample = float(max(sample, 1e-3))

        # AIMD duality: the loss event rate is whatever makes the TCP
        # model deliver the achieved rate at the experienced RTT.
        rto = max(1.0, 2.0 * rtt_during)
        p_event = pftk_loss_for_throughput(sample, rtt_during, rto, tcp)
        p_event = max(p_event, cfg.random_loss)

        return _TransferOutcome(
            throughput_mbps=sample,
            mean_throughput_mbps=mean_rate,
            loss_event_rate=p_event,
            rtt_during_s=rtt_during,
            queue_delay_during_s=dq,
            regime="congestion",
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _queue_delay(self, utilization: float) -> float:
        """Mean queueing delay at the given load, with the PK burstiness
        factor applied (neutral at the default ``burstiness_scv = 1``)."""
        return self._pk_factor * mm1k_mean_queue_delay_s(
            utilization, self._k_packets, self._mu_pps
        )

    def _bandwidth_share(self, util: float, target_rtt_s: float) -> float:
        """The saturating flow's bandwidth share.

        The flow gets the available bandwidth plus whatever the elastic
        share of the cross traffic yields; the yield shrinks with the
        number of elastic competitors and their RTT advantage
        (Section 3.4).

        The share is floored at 10% of capacity: even against a heavy
        inelastic aggregate, a persistent Reno flow keeps pushing and
        claims buffer slots, so full starvation does not happen on a
        drop-tail bottleneck.
        """
        cfg = self.config
        availbw = cfg.capacity_mbps * (1.0 - util)
        if not self._elastic_rtts_s:
            return max(availbw, 0.10 * cfg.capacity_mbps)
        elastic_cross_mbps = util * cfg.elasticity * cfg.capacity_mbps
        target_weight = 1.0 / target_rtt_s
        yielded = (
            elastic_cross_mbps
            * target_weight
            / (target_weight + self._cross_weight)
        )
        return max(availbw + yielded, 0.10 * cfg.capacity_mbps)

    def _probe_observed_loss(
        self, outcome: _TransferOutcome, z_mismatch: float
    ) -> float:
        """Loss rate periodic probes see during the transfer.

        In the congestion-limited regime the flow's own losses cluster in
        its AIMD bursts; probes observe only a fraction, with large
        epoch-to-epoch spread (Section 3.3).
        """
        cfg = self.config
        if outcome.regime == "congestion":
            packet_loss = outcome.loss_event_rate * cfg.burst_factor
            mismatch = np.exp(PROBE_LOSS_LOGNORMAL_SIGMA * z_mismatch)
            observed = cfg.random_loss + cfg.probe_loss_factor * mismatch * packet_loss
        else:
            observed = outcome.loss_event_rate
        return float(min(0.5, max(0.0, observed)))

    def _checkpoint_throughputs(
        self,
        outcome: _TransferOutcome,
        fractions: tuple[float, ...],
        duration_s: float,
        z: list,
        has_small: bool,
    ) -> tuple[float, ...]:
        """Cumulative throughput at intermediate cuts of the transfer.

        A shorter averaging window sees more of the flow's short-term
        variability, so the deviation from the full-transfer throughput
        shrinks with the square root of the cut length.
        """
        if not fractions:
            return ()
        base = z_checkpoint_base(has_small)
        checkpoints = []
        for offset, fraction in enumerate(fractions):
            if not 0.0 < fraction <= 1.0:
                raise ValueError(f"checkpoint fraction {fraction} outside (0, 1]")
            rel_std = 0.08 / math.sqrt(fraction)
            value = outcome.throughput_mbps * np.exp(
                min(rel_std, 0.5) * z[base + offset]
            )
            checkpoints.append(float(max(value, 1e-3)))
        del duration_s  # documented knob; the fractions carry the scale
        return tuple(checkpoints)


def _run_epochs(
    simulator: FluidPathSimulator,
    path_id: str,
    trace_index: int,
    dt_s,
    start_time_s: float,
    **epoch_kwargs,
) -> Trace:
    """One trace on the loop, epoch ``e`` starting ``dt_s[:e + 1]`` in."""
    epochs = []
    time_s = start_time_s
    for epoch_index, dt in enumerate(dt_s):
        time_s += dt
        epochs.append(
            simulator.run_epoch(
                path_id=path_id,
                trace_index=trace_index,
                epoch_index=epoch_index,
                start_time_s=time_s,
                dt_s=dt,
                **epoch_kwargs,
            )
        )
    return Trace.from_epochs(path_id, trace_index, epochs)


def oracle_run_trace(
    campaign: Campaign,
    config: PathConfig,
    trace_index: int,
    settings: CampaignSettings,
) -> Trace:
    """:meth:`Campaign.run_trace` on the per-epoch loop.

    Draws each epoch's interval from the ``dt`` site as it goes (one
    ``uniform`` call per epoch, the bits a batched draw consumes).
    """
    sites = FluidSites.from_streams(campaign.streams, config.path_id, trace_index)
    start_time_s = trace_index * TRACE_GAP_S
    simulator = FluidPathSimulator(config, sites, start_time_s=start_time_s)
    dt_s = (
        float(sites.dt.uniform(*EPOCH_INTERVAL_RANGE_S))
        for _ in range(settings.epochs_per_trace)
    )
    return _run_epochs(
        simulator,
        config.path_id,
        trace_index,
        dt_s,
        start_time_s,
        tcp=campaign.tcp,
        small_tcp=campaign.small_tcp if settings.run_small_window else None,
        checkpoint_fractions=settings.checkpoint_fractions,
        transfer_duration_s=settings.transfer_duration_s,
    )


def oracle_campaign(campaign: Campaign, settings: CampaignSettings) -> Dataset:
    """:meth:`Campaign.run` on the per-epoch loop, serially."""
    dataset = Dataset(label=campaign.label)
    for config in campaign.catalog:
        for trace_index in range(settings.n_traces):
            dataset.traces.append(
                oracle_run_trace(campaign, config, trace_index, settings)
            )
    return dataset


def oracle_trace(
    config: PathConfig,
    n: int,
    *,
    seed: int = 0,
    dt_s: float = 180.0,
    tcp: TcpParameters | None = None,
    small_tcp: TcpParameters | None = None,
    checkpoint_fractions: tuple[float, ...] = (),
    regime_mean: float | None = None,
) -> Trace:
    """``n`` epochs of ``config``, ``dt_s`` apart, on the per-epoch loop."""
    simulator = FluidPathSimulator(
        config, np.random.default_rng(seed), regime_mean=regime_mean
    )
    return _run_epochs(
        simulator,
        config.path_id,
        0,
        [dt_s] * n,
        0.0,
        tcp=tcp or TcpParameters.congestion_limited(),
        small_tcp=small_tcp,
        checkpoint_fractions=checkpoint_fractions,
    )


def engine_trace(
    config: PathConfig,
    n: int,
    *,
    seed: int = 0,
    dt_s: float = 180.0,
    tcp: TcpParameters | None = None,
    small_tcp: TcpParameters | None = None,
    checkpoint_fractions: tuple[float, ...] = (),
    regime_mean: float | None = None,
) -> Trace:
    """:func:`oracle_trace`'s epochs on the shipped engine."""
    return run_fluid_trace(
        config,
        FluidSites.from_generator(np.random.default_rng(seed)),
        0,
        np.full(n, dt_s),
        tcp=tcp or TcpParameters.congestion_limited(),
        small_tcp=small_tcp,
        checkpoint_fractions=checkpoint_fractions,
        transfer_duration_s=50.0,
        start_time_s=0.0,
        regime_mean=regime_mean,
    )
