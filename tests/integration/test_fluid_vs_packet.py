"""Validation: the fluid model reproduces the packet simulator's physics.

The full campaign runs on the fluid model for tractability (DESIGN.md
Section 5); these tests check that, on matched configurations, the
packet-level simulator — real TCP Reno, real queues, real probing —
exhibits the same signatures the fluid model encodes:

* window-limited transfers achieve ~W/RTT and barely perturb the path,
* saturating transfers inflate RTT and the loss rate seen by probes,
* the measured avail-bw tracks C(1-u),
* throughput magnitudes agree within a modest factor.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.formulas.params import TcpParameters
from repro.paths.config import may_2004_catalog
from repro.testbed.packet_epoch import PacketEpochRunner
from tests.fastpath.oracle import engine_trace

pytestmark = pytest.mark.slow


def clean_config(path_id, **overrides):
    """A deterministic variant of a catalog path: no regime dynamics."""
    base = next(c for c in may_2004_catalog() if c.path_id == path_id)
    return replace(
        base,
        shift_rate_per_hour=0.0,
        outlier_rate=0.0,
        util_spread=0.0,
        ar_sigma=1e-4,
        **overrides,
    )


def packet_epoch(config, utilization, tcp=None, seed=0):
    runner = PacketEpochRunner(config, np.random.default_rng(seed))
    return runner.run_epoch(
        utilization=utilization,
        tcp=tcp,
        transfer_duration_s=20.0,
        pre_probe_duration_s=20.0,
    )


def fluid_epochs(config, n=30, tcp=None, seed=0):
    return engine_trace(config, n, seed=seed, tcp=tcp).epochs


class TestWindowLimitedAgreement:
    def test_both_engines_hit_window_ceiling(self):
        """W = 20 KB on a fast, lightly loaded path: R = W/RTT in both."""
        config = clean_config("p21", base_util=0.15)
        tcp = TcpParameters.window_limited()
        expected = 20_000 * 8 / config.base_rtt_s / 1e6

        packet = packet_epoch(config, utilization=0.15, tcp=tcp)
        fluid_r = np.median(
            [e.throughput_mbps for e in fluid_epochs(config, tcp=tcp)]
        )
        assert packet.throughput_mbps == pytest.approx(expected, rel=0.3)
        assert fluid_r == pytest.approx(expected, rel=0.3)

    def test_window_limited_flow_leaves_rtt_alone(self):
        config = clean_config("p21", base_util=0.15)
        tcp = TcpParameters.window_limited()
        packet = packet_epoch(config, utilization=0.15, tcp=tcp)
        assert packet.ttilde_s / packet.that_s < 1.25


class TestSaturatingAgreement:
    def test_rtt_inflates_in_both_engines(self):
        config = clean_config("p12", base_util=0.5)
        packet = packet_epoch(config, utilization=0.5)
        fluid = fluid_epochs(config)
        packet_ratio = packet.ttilde_s / packet.that_s
        fluid_ratio = np.median([e.ttilde_s / e.that_s for e in fluid])
        assert packet_ratio > 1.1
        assert fluid_ratio > 1.1

    def test_probe_loss_rises_during_transfer(self):
        config = clean_config("p12", base_util=0.5)
        packet = packet_epoch(config, utilization=0.5)
        fluid = fluid_epochs(config)
        assert packet.ptilde >= packet.phat
        # The median epoch may resolve no loss at all with 500 probes;
        # the mean over epochs shows the during-flow increase.
        fluid_increase = np.mean([e.ptilde - e.phat for e in fluid])
        assert fluid_increase > 0

    def test_throughput_same_ballpark(self):
        """Fluid and packet R within a factor of ~2 on a congested path."""
        config = clean_config("p12", base_util=0.5)
        packet_r = np.median(
            [
                packet_epoch(config, utilization=0.5, seed=s).throughput_mbps
                for s in range(3)
            ]
        )
        fluid_r = np.median([e.throughput_mbps for e in fluid_epochs(config)])
        assert 0.5 < packet_r / fluid_r < 2.0


class TestAvailbwAgreement:
    def test_pathload_tracks_unused_capacity(self):
        config = clean_config("p12", base_util=0.4, elasticity=0.0)
        packet = packet_epoch(config, utilization=0.4)
        expected = config.capacity_mbps * 0.6
        assert packet.ahat_mbps == pytest.approx(expected, rel=0.35)

    def test_fluid_ahat_matches_same_quantity(self):
        config = clean_config("p12", base_util=0.4, elasticity=0.0)
        fluid_a = np.median([e.ahat_mbps for e in fluid_epochs(config)])
        assert fluid_a == pytest.approx(config.capacity_mbps * 0.6, rel=0.25)


class TestDslAgreement:
    def test_dsl_transfer_slow_in_both(self):
        config = clean_config("p01", base_util=0.5)
        packet = packet_epoch(config, utilization=0.5)
        fluid_r = np.median([e.throughput_mbps for e in fluid_epochs(config)])
        assert packet.throughput_mbps < 1.0
        assert fluid_r < 1.0

    def test_random_loss_observed_by_probes(self):
        config = clean_config("p02", base_util=0.3, random_loss=5e-3)
        packet = packet_epoch(config, utilization=0.3)
        # 200 pre-probes at 5e-3 loss: expect >= 0 observed, and the
        # loss estimate stays well below 10x the true rate.
        assert packet.phat <= 0.05
