"""Fuzzing the two simulation engines with randomized configurations.

Whatever the (valid) configuration, the engines must terminate and
produce physically sane measurements — no crashes, no negative rates,
no violations of capacity.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.units import Bandwidth
from repro.formulas.params import TcpParameters
from repro.paths.config import may_2004_catalog
from repro.simnet.engine import Simulator
from repro.simnet.path import DumbbellPath
from repro.tcp.reno import RenoSender
from repro.tcp.sink import TcpSink
from tests.fastpath.oracle import engine_trace

BASE_CONFIG = may_2004_catalog()[0]


fluid_configs = st.builds(
    lambda cap, buf_kb, rtt_ms, util, sigma, shift, outlier, loss, elast, ncross: replace(
        BASE_CONFIG,
        capacity_mbps=cap,
        buffer_bytes=buf_kb * 1000,
        base_rtt_s=rtt_ms / 1000.0,
        base_util=util,
        ar_sigma=sigma,
        shift_rate_per_hour=shift,
        outlier_rate=outlier,
        random_loss=loss,
        elasticity=elast,
        n_cross_flows=ncross,
    ),
    cap=st.floats(min_value=0.3, max_value=1000.0),
    buf_kb=st.integers(min_value=2, max_value=2000),
    rtt_ms=st.floats(min_value=1.0, max_value=500.0),
    util=st.floats(min_value=0.0, max_value=0.95),
    sigma=st.floats(min_value=1e-4, max_value=0.2),
    shift=st.floats(min_value=0.0, max_value=5.0),
    outlier=st.floats(min_value=0.0, max_value=0.5),
    loss=st.floats(min_value=0.0, max_value=0.05),
    elast=st.floats(min_value=0.0, max_value=1.0),
    ncross=st.integers(min_value=1, max_value=500),
)


class TestFluidFuzz:
    @given(fluid_configs, st.integers(min_value=0, max_value=10**6))
    # Regression: a loss-limited path whose PFTK cap sits near capacity —
    # the lognormal variability draw used to push the measured sample
    # past the capacity envelope before the sampler clamped it.
    @example(
        config=replace(
            BASE_CONFIG,
            capacity_mbps=2.75,
            buffer_bytes=2 * 1000,
            base_rtt_s=1.0 / 1000.0,
            base_util=0.0,
            ar_sigma=0.0625,
            shift_rate_per_hour=0.0,
            outlier_rate=0.0,
            random_loss=0.029296875,
            elasticity=0.0625,
            n_cross_flows=120,
        ),
        seed=0,
    )
    @settings(max_examples=80, deadline=None)
    def test_epochs_always_physical(self, config, seed):
        trace = engine_trace(
            config, 5, seed=seed, small_tcp=TcpParameters.window_limited()
        )
        for epoch in trace:
            assert 0 < epoch.throughput_mbps <= config.capacity_mbps * 1.2
            assert 0 <= epoch.phat < 1 and 0 <= epoch.ptilde < 1
            assert epoch.that_s >= config.base_rtt_s
            assert epoch.ttilde_s >= config.base_rtt_s
            assert 0 < epoch.ahat_mbps <= config.capacity_mbps * 1.1
            assert epoch.smallw_throughput_mbps > 0

    @given(fluid_configs)
    @settings(max_examples=30, deadline=None)
    def test_deterministic_per_seed(self, config):
        runs = []
        for _ in range(2):
            epoch = engine_trace(config, 1, seed=123).epochs[0]
            runs.append((epoch.throughput_mbps, epoch.phat, epoch.that_s))
        assert runs[0] == runs[1]


class TestPacketFuzz:
    @pytest.mark.parametrize("seed", range(6))
    def test_tcp_on_random_paths(self, seed):
        """TCP terminates sanely on randomized path parameters."""
        rng = np.random.default_rng(seed)
        capacity = float(rng.uniform(0.5, 50.0))
        sim = Simulator()
        path = DumbbellPath(
            sim,
            Bandwidth.from_mbps(capacity),
            buffer_bytes=int(rng.integers(3_000, 300_000)),
            one_way_delay_s=float(rng.uniform(0.001, 0.15)),
            random_loss=float(rng.uniform(0.0, 0.01)),
            rng=rng,
        )
        sink = TcpSink(sim, path, name="rcv", peer="snd", flow="f")
        sender = RenoSender(
            sim, path, name="snd", peer="rcv", flow="f",
            max_window_segments=float(rng.integers(2, 700)),
        )
        path.register("snd", sender)
        path.register("rcv", sink)
        sender.start()
        sim.run(until=5.0, max_events=5_000_000)
        sender.stop()

        throughput = sink.bytes_delivered * 8 / 5.0 / 1e6
        assert 0 <= throughput <= capacity * 1.01
        assert sink.rcv_next == sink.segments_delivered
        assert sender.una <= sender.highest_sent
