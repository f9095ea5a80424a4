"""The fluid path model's behaviour, epoch by epoch, on the engine."""

from dataclasses import replace

import numpy as np
import pytest

from repro.formulas.params import TcpParameters
from repro.paths.config import may_2004_catalog
from tests.fastpath.oracle import engine_trace


def get_config(path_id):
    return next(c for c in may_2004_catalog() if c.path_id == path_id)


def run_epochs(config, n=50, seed=0, tcp=None, small=None, **kwargs):
    return engine_trace(
        config, n, seed=seed, tcp=tcp, small_tcp=small, **kwargs
    ).epochs


class TestEpochStructure:
    def test_reproducible(self):
        cfg = get_config("p08")
        a = run_epochs(cfg, n=10, seed=5)
        b = run_epochs(cfg, n=10, seed=5)
        assert [e.throughput_mbps for e in a] == [e.throughput_mbps for e in b]

    def test_measurements_within_physical_bounds(self):
        cfg = get_config("p08")
        for epoch in run_epochs(cfg, n=100):
            assert 0 < epoch.throughput_mbps <= cfg.capacity_mbps * 1.1
            assert 0 <= epoch.phat < 1
            assert 0 <= epoch.ptilde < 1
            assert epoch.that_s >= cfg.base_rtt_s
            assert epoch.ttilde_s >= cfg.base_rtt_s
            assert 0 < epoch.ahat_mbps <= cfg.capacity_mbps * 1.05

    def test_truth_attached(self):
        epoch = run_epochs(get_config("p01"), n=1)[0]
        assert epoch.truth is not None
        assert epoch.truth.regime in {"window", "loss", "congestion"}


class TestRegimes:
    def test_saturating_window_on_congested_path(self):
        """W = 1 MB saturates the 10 Mbps paths (no window regime)."""
        epochs = run_epochs(get_config("p08"), n=100)
        assert all(e.truth.regime != "window" for e in epochs)

    def test_small_window_is_window_limited_on_fast_path(self):
        epochs = run_epochs(
            get_config("p21"), n=50, tcp=TcpParameters.window_limited()
        )
        assert sum(e.truth.regime == "window" for e in epochs) > 40

    def test_random_loss_path_can_be_loss_limited(self):
        epochs = run_epochs(get_config("p31"), n=100)
        assert any(e.truth.regime == "loss" for e in epochs)

    def test_dsl_throughput_low(self):
        epochs = run_epochs(get_config("p05"), n=100)
        assert np.median([e.throughput_mbps for e in epochs]) < 0.6


class TestErrorCauses:
    def test_loss_increases_during_congested_transfer(self):
        """The paper's primary FB error cause (Section 3.2)."""
        epochs = run_epochs(get_config("p01"), n=200)
        lossy = [e for e in epochs if e.phat > 0 and e.truth.regime == "congestion"]
        assert lossy, "expected lossy congestion-limited epochs"
        ratios = [e.ptilde / e.phat for e in lossy if e.ptilde > 0]
        assert np.mean(ratios) > 2.0

    def test_rtt_increases_during_saturating_transfer(self):
        epochs = run_epochs(get_config("p08"), n=100)
        increases = [e.ttilde_s - e.that_s for e in epochs]
        assert np.median(increases) > 0

    def test_window_limited_flow_barely_perturbs_path(self):
        epochs = run_epochs(
            get_config("p21"), n=50, tcp=TcpParameters.window_limited()
        )
        rtt_ratio = np.median([e.ttilde_s / e.that_s for e in epochs])
        assert rtt_ratio < 1.3

    def test_small_window_companion_recorded(self):
        epochs = run_epochs(
            get_config("p21"), n=20, small=TcpParameters.window_limited()
        )
        assert all(e.smallw_throughput_mbps is not None for e in epochs)
        assert all(e.smallw_throughput_mbps > 0 for e in epochs)

    def test_smallw_more_stable_than_largew(self):
        epochs = run_epochs(
            get_config("p22"), n=150, small=TcpParameters.window_limited()
        )
        large = np.array([e.throughput_mbps for e in epochs])
        small = np.array([e.smallw_throughput_mbps for e in epochs])
        assert small.std() / small.mean() < large.std() / large.mean()


class TestCheckpoints:
    def test_checkpoints_emitted(self):
        epochs = run_epochs(
            get_config("p08"), n=20, checkpoint_fractions=(0.25, 0.5, 1.0)
        )
        for epoch in epochs:
            assert len(epoch.duration_throughputs_mbps) == 3
            assert all(v > 0 for v in epoch.duration_throughputs_mbps)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            run_epochs(get_config("p08"), n=1, checkpoint_fractions=(1.5,))

    def test_shorter_cuts_noisier(self):
        epochs = run_epochs(
            get_config("p08"), n=400, checkpoint_fractions=(0.25, 1.0)
        )
        short = np.array(
            [e.duration_throughputs_mbps[0] / e.throughput_mbps for e in epochs]
        )
        full = np.array(
            [e.duration_throughputs_mbps[1] / e.throughput_mbps for e in epochs]
        )
        assert short.std() > full.std()


class TestElasticity:
    def test_elastic_cross_traffic_yields_bandwidth(self):
        """High elasticity with few competitors: R above avail-bw."""
        grabby = replace(
            get_config("p11"), outlier_rate=0.0, shift_rate_per_hour=0.0
        )
        rigid = replace(grabby, elasticity=0.0)
        grabby_r = np.median(
            [e.throughput_mbps for e in run_epochs(grabby, n=150, seed=3)]
        )
        rigid_r = np.median(
            [e.throughput_mbps for e in run_epochs(rigid, n=150, seed=3)]
        )
        assert grabby_r > rigid_r
