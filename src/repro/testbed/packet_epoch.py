"""One measurement epoch at packet granularity (the paper's Fig. 1).

:class:`PacketEpochRunner` executes the epoch timeline on the
discrete-event packet simulator:

1. a pathload avail-bw measurement,
2. 60 s of pre-transfer probing (600 pings at 10 Hz),
3. the target transfer, with concurrent probing for the during-flow
   RTT/loss estimates,

against the same :class:`~repro.paths.config.PathConfig` the fluid model
consumes — the cross traffic runs at the configured utilization as a
Poisson aggregate plus optional elastic (TCP) flows, and DSL-style
random loss is injected at the path level.

This runner is ~10^5 simulation events per epoch, so it powers the
validation tests and the packet-level example, not the full campaign
(that is what ``repro.fastpath`` is for; see DESIGN.md Section 5).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.apps.cross import CrossTrafficSink, ElasticCrossFlow, PoissonSource
from repro.apps.iperf import BulkTransferApp
from repro.apps.pathload import measure_availbw
from repro.apps.pinger import PingResponder, Pinger
from repro.core.units import Bandwidth
from repro.formulas.params import TcpParameters
from repro.obs import get_telemetry
from repro.obs.spans import record_epoch_spans
from repro.paths.config import PathConfig
from repro.paths.records import EpochMeasurement, EpochTruth
from repro.simnet.engine import Simulator
from repro.simnet.path import DumbbellPath

#: Warm-up before measurements so the cross traffic reaches steady state.
WARMUP_S = 5.0

#: The paper's pre-transfer probing interval.
PRE_PROBE_DURATION_S = 60.0

#: Vectorized pre-draw depth for the Poisson cross-traffic source.
#: Batching is bit-identical to scalar draws *only* while the source is
#: the epoch's sole consumer of the shared generator, so it is enabled
#: just for the common configuration where that holds: no per-packet
#: random-loss draws (``random_loss == 0``) and a drop-tail bottleneck
#: (RED draws per-arrival drop decisions from the same generator).
POISSON_BATCH = 512


class PacketEpochRunner:
    """Runs measurement epochs on the packet simulator.

    Each epoch gets a fresh simulator (epochs are ~3 minutes apart; the
    queues drain in between) while the utilization evolves across epochs
    through the injected values.

    Args:
        config: the path to emulate.
        rng: randomness for cross traffic and the loss process.
        aqm: bottleneck queue discipline ("droptail" or "red") —
            drop-tail matches the paper's testbed; RED is the
            counterfactual explored by ``bench_red_counterfactual.py``.
    """

    def __init__(
        self,
        config: PathConfig,
        rng: np.random.Generator,
        aqm: str = "droptail",
    ) -> None:
        self.config = config
        self.rng = rng
        self.aqm = aqm
        n_elastic = int(round(config.elasticity * min(config.n_cross_flows, 4)))
        self._n_elastic = n_elastic

    def run_epoch(
        self,
        utilization: float,
        tcp: TcpParameters | None = None,
        transfer_duration_s: float = 50.0,
        pre_probe_duration_s: float = PRE_PROBE_DURATION_S,
        path_id: str | None = None,
        trace_index: int = 0,
        epoch_index: int = 0,
    ) -> EpochMeasurement:
        """Execute one epoch at the given cross-traffic utilization.

        Args:
            utilization: offered cross load as a fraction of capacity
                (inelastic aggregate; elastic flows come on top per the
                path's elasticity).
            tcp: target transfer parameters.
            transfer_duration_s: target transfer length.
            pre_probe_duration_s: pre-transfer ping interval (60 s in
                the paper; reducible for faster tests).
        """
        if not 0.0 <= utilization < 1.0:
            raise ValueError(f"utilization must be in [0, 1), got {utilization}")
        tcp = tcp or TcpParameters.congestion_limited()
        cfg = self.config

        telemetry = get_telemetry()
        clock = telemetry.phase_clock()
        sim = Simulator()
        path = DumbbellPath(
            sim,
            Bandwidth.from_mbps(cfg.capacity_mbps),
            buffer_bytes=cfg.buffer_bytes,
            one_way_delay_s=cfg.base_rtt_s / 2.0,
            random_loss=cfg.random_loss,
            rng=self.rng,
            aqm=self.aqm,
        )
        cross_sink = CrossTrafficSink()
        path.register("cross-sink", cross_sink)
        # If the elastic share rounds to zero flows, fold it back into
        # the inelastic aggregate so the offered load stays as configured.
        elastic_share = cfg.elasticity if self._n_elastic else 0.0
        inelastic_rate = utilization * (1.0 - elastic_share) * cfg.capacity_mbps
        batch_size = (
            POISSON_BATCH
            if cfg.random_loss == 0 and self.aqm == "droptail"
            else 1
        )
        source = PoissonSource(
            sim,
            path,
            "cross-sink",
            rate_mbps=inelastic_rate,
            rng=self.rng,
            batch_size=batch_size,
        )
        source.start()
        # Elastic cross flows are remotely limited (other bottlenecks,
        # receiver windows): cap each flow's window so the aggregate
        # offers the configured elastic share of the load — they yield
        # under congestion but do not saturate the path on their own.
        elastic_flows = []
        # The stops must also run when the epoch aborts mid-flight
        # (``max_events`` overrun, injected fault, any exception):
        # ``source.stop()`` is what rewinds the shared generator past
        # exactly the consumed pre-drawn exponentials, and a retry that
        # skipped it would see a desynced RNG and silently produce a
        # different trace.  Both stops are idempotent.
        try:
            if self._n_elastic:
                elastic_rate_each = (
                    utilization * cfg.elasticity * cfg.capacity_mbps / self._n_elastic
                )
                window_bytes = max(
                    2920, int(elastic_rate_each * 1e6 * cfg.base_rtt_s * 1.5 / 8)
                )
                elastic_flows = [
                    ElasticCrossFlow(sim, path, max_window_bytes=window_bytes)
                    for _ in range(self._n_elastic)
                ]
            for flow in elastic_flows:
                flow.start()
            responder = PingResponder(sim, path, "pingd")
            path.register("pingd", responder)

            sim.run(until=WARMUP_S)
            clock.lap("setup")

            # 1. Avail-bw measurement (drives the simulator itself).
            pathload = measure_availbw(
                sim, path, max_rate_mbps=cfg.capacity_mbps * 1.2
            )
            clock.lap("pathload")

            # 2. Pre-transfer probing.
            pre_pinger = Pinger(sim, path, "pingd")
            pre = pre_pinger.measure(pre_probe_duration_s)
            clock.lap("ping")

            # 3. The target transfer with concurrent probing.
            during_pinger = Pinger(sim, path, "pingd")
            during_pinger.start(transfer_duration_s)
            app = BulkTransferApp(
                sim,
                path,
                max_window_bytes=tcp.max_window_bytes,
                mss_bytes=tcp.mss_bytes,
                ack_every=tcp.ack_every,
            )
            transfer = app.run(duration_s=transfer_duration_s)
            during = during_pinger.collect()
            clock.lap("iperf")
        finally:
            for flow in elastic_flows:
                flow.stop()
            source.stop()

        if clock.enabled:
            queue_stats = path.forward_queue.stats
            telemetry.counter("simnet.queue_drops").inc(queue_stats.drops)
            telemetry.counter("tcp.retransmits").inc(
                transfer.retransmissions
            )
            telemetry.counter("tcp.timeouts").inc(transfer.timeouts)
            telemetry.record_phases(
                "packet_epoch",
                clock.phases,
                path=path_id or cfg.path_id,
                trace=trace_index,
                epoch=epoch_index,
                events_processed=sim.events_processed,
                queue_drops=queue_stats.drops,
                queue_arrivals=queue_stats.arrivals,
                retransmits=transfer.retransmissions,
                timeouts=transfer.timeouts,
                utilization=round(utilization, 6),
            )
            # Under an open unit span, the laps also become a
            # packet_epoch span with phase children.
            record_epoch_spans(
                telemetry,
                "packet_epoch",
                path_id or cfg.path_id,
                trace_index,
                epoch_index,
                clock.phases,
            )

        that_s = pre.rtt_mean_s if pre.rtt_mean_s is not None else cfg.base_rtt_s
        ttilde_s = (
            during.rtt_mean_s if during.rtt_mean_s is not None else that_s
        )
        return EpochMeasurement(
            path_id=path_id or cfg.path_id,
            trace_index=trace_index,
            epoch_index=epoch_index,
            start_time_s=0.0,
            ahat_mbps=max(pathload.availbw_mbps, 0.05),
            phat=pre.loss_rate,
            that_s=that_s,
            throughput_mbps=max(transfer.throughput_mbps, 1e-3),
            ptilde=during.loss_rate,
            ttilde_s=ttilde_s,
            truth=EpochTruth(
                utilization_pre=utilization,
                utilization_during=utilization,
                loss_event_rate=(
                    transfer.timeouts + app.sender.stats.fast_retransmits
                )
                / max(1, app.sender.stats.segments_sent),
                regime="packet-sim",
                outlier=False,
            ),
        )


class PacketTraceRunner:
    """A multi-epoch trace on the packet simulator.

    Drives the same :class:`~repro.fastpath.loadmodel.CrossLoadProcess`
    the fluid model uses, but executes every epoch at packet granularity
    — a miniature version of the paper's campaign used to validate the
    fluid model end to end (see ``benchmarks/bench_validation_packet.py``).

    Args:
        config: the path to emulate.
        rng: randomness shared by the load process and the epochs.
        regime_mean: optional starting regime mean for the load process
            (pin it to compare against a fluid trace at the same level).
    """

    def __init__(
        self,
        config: PathConfig,
        rng: np.random.Generator,
        regime_mean: float | None = None,
    ) -> None:
        from repro.fastpath.loadmodel import CrossLoadProcess

        self.config = config
        self.rng = rng
        self.load = CrossLoadProcess(config, rng, regime_mean)
        self._epoch_runner = PacketEpochRunner(config, rng)

    def run_trace(
        self,
        n_epochs: int,
        trace_index: int = 0,
        tcp: TcpParameters | None = None,
        transfer_duration_s: float = 20.0,
        pre_probe_duration_s: float = 20.0,
        epoch_interval_s: float = 170.0,
    ) -> "Trace":
        """Collect ``n_epochs`` packet-level epochs under evolving load."""
        from repro.paths.records import Trace

        if n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
        epochs = []
        time_s = 0.0
        for epoch_index in range(n_epochs):
            time_s += epoch_interval_s
            load = self.load.advance(epoch_interval_s)
            epoch = self._epoch_runner.run_epoch(
                utilization=load.util_pre,
                tcp=tcp,
                transfer_duration_s=transfer_duration_s,
                pre_probe_duration_s=pre_probe_duration_s,
                trace_index=trace_index,
                epoch_index=epoch_index,
            )
            epochs.append(replace(epoch, start_time_s=time_s))
        return Trace.from_epochs(self.config.path_id, trace_index, epochs)
