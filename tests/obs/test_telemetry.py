"""The telemetry collector: events, context, drain/merge, the kill switch."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import NULL_COUNTER, NULL_GAUGE, NULL_TIMER, percentile
from repro.obs.telemetry import ENV_OBS, PhaseClock, Telemetry, get_telemetry


@pytest.fixture
def tele(monkeypatch):
    monkeypatch.delenv(ENV_OBS, raising=False)
    return Telemetry()


class TestEnabledSwitch:
    def test_enabled_by_default(self, tele):
        assert tele.enabled

    def test_disabled_by_env(self, tele, monkeypatch):
        monkeypatch.setenv(ENV_OBS, "0")
        assert not tele.enabled
        assert tele.counter("x") is NULL_COUNTER
        assert tele.gauge("x") is NULL_GAUGE
        assert tele.timer("x") is NULL_TIMER

    def test_disabled_collects_nothing(self, tele, monkeypatch):
        monkeypatch.setenv(ENV_OBS, "0")
        tele.counter("hits").inc()
        tele.emit("cache", outcome="hit")
        tele.record_phases("trace", {"iperf": 0.1}, 150, path="p01", trace=0)
        snapshot = tele.drain()
        assert snapshot["counters"] == []
        assert snapshot["events"] == []
        assert not PhaseClock(enabled=False).phases

    def test_singleton(self):
        assert get_telemetry() is get_telemetry()


class TestEvents:
    def test_emit_and_drain(self, tele):
        tele.emit("cache", outcome="miss", key="abc")
        snapshot = tele.drain()
        assert snapshot["events"] == [
            {"kind": "cache", "outcome": "miss", "key": "abc"}
        ]
        assert tele.drain()["events"] == []  # drain resets

    def test_context_stamped_onto_events(self, tele):
        tele.set_context(run="r1", seed=7)
        tele.emit("epoch", path="p01")
        tele.clear_context()
        tele.emit("epoch", path="p02")
        events = tele.drain()["events"]
        assert events[0] == {"kind": "epoch", "run": "r1", "seed": 7, "path": "p01"}
        assert events[1] == {"kind": "epoch", "path": "p02"}

    def test_event_fields_win_over_context(self, tele):
        tele.set_context(run="ctx")
        tele.emit("e", run="explicit")
        assert tele.drain()["events"][0]["run"] == "explicit"


class TestRecordPhases:
    def test_updates_timers_counter_and_event(self, tele):
        tele.record_phases(
            "packet_epoch",
            {"ping": 0.01, "iperf": 0.04},
            path="p03",
            trace=1,
            epoch=5,
            regime="window",
        )
        assert tele.metrics.counter("epochs.simulated").value == 1
        assert tele.metrics.timer("epoch.phase_s", phase="ping").samples == [0.01]
        assert tele.metrics.timer("epoch.wall_s").samples[0] == pytest.approx(0.05)
        event = tele.drain()["events"][0]
        assert event["kind"] == "packet_epoch"
        assert event["path"] == "p03"
        assert event["trace"] == 1
        assert event["epoch"] == 5
        assert event["regime"] == "window"
        assert event["ping_s"] == pytest.approx(0.01)
        assert event["elapsed_s"] == pytest.approx(0.05)

    def test_trace_record_samples_the_per_epoch_mean(self, tele):
        tele.set_context(run="r1")
        tele.record_phases(
            "trace",
            {"load": 0.3, "iperf": 1.2},
            150,
            path="p01",
            trace=2,
            epochs=150,
            regimes={"window": 100, "loss": 0, "congestion": 50},
        )
        assert tele.metrics.counter("epochs.simulated").value == 150
        assert tele.metrics.timer("epoch.phase_s", phase="load").samples == [
            pytest.approx(0.002)
        ]
        assert tele.metrics.timer("epoch.phase_s", phase="iperf").samples == [
            pytest.approx(0.008)
        ]
        assert tele.metrics.timer("epoch.wall_s").samples == [pytest.approx(0.01)]
        assert tele.drain()["events"] == [
            {
                "kind": "trace",
                "run": "r1",
                "path": "p01",
                "trace": 2,
                "epochs": 150,
                "regimes": {"window": 100, "loss": 0, "congestion": 50},
                "load_s": 0.3,
                "iperf_s": 1.2,
                "elapsed_s": pytest.approx(1.5),
            }
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        totals=st.lists(
            st.floats(min_value=1e-6, max_value=10.0), min_size=1, max_size=300
        ),
        n_epochs=st.integers(min_value=1, max_value=200),
        q=st.sampled_from([50.0, 95.0, 99.0]),
    )
    def test_one_sample_per_trace_keeps_the_quantiles(self, totals, n_epochs, q):
        """A nearest-rank quantile over one per-epoch mean per trace equals
        the quantile over that mean repeated once per epoch, so recording
        per trace leaves every p50/p95/p99 of a uniform campaign as is."""
        tele = Telemetry()
        for total in totals:
            tele.record_phases("trace", {"iperf": total}, n_epochs)
        per_trace = tele.metrics.timer("epoch.phase_s", phase="iperf")
        per_epoch = sorted(
            total / n_epochs for total in totals for _ in range(n_epochs)
        )
        assert per_trace.quantile(q) == percentile(per_epoch, q)

    def test_sweep_scale_stays_inside_the_sample_ring(self, tele):
        # 500 traces of 150 epochs: one sample each, where per-epoch
        # samples (75,000) would overflow the 65,536-sample ring.
        for trace in range(500):
            tele.record_phases("trace", {"iperf": 0.15}, 150, trace=trace)
        wall = tele.metrics.timer("epoch.wall_s")
        assert wall.count == 500
        assert wall.samples.dropped == 0
        assert tele.metrics.counter("epochs.simulated").value == 75_000
        assert len(tele.events) == 500


class TestDrainMerge:
    def test_worker_snapshot_merges_into_parent(self, tele):
        worker = Telemetry()
        worker.counter("epochs.simulated").inc(3)
        worker.emit("epoch", path="p01")
        tele.counter("epochs.simulated").inc(1)
        tele.merge(worker.drain())
        assert tele.metrics.counter("epochs.simulated").value == 4
        assert len(tele.events) == 1

    def test_snapshot_is_picklable(self, tele):
        import pickle

        tele.counter("c").inc()
        tele.timer("t").observe(0.5)
        tele.emit("e", n=1)
        restored = pickle.loads(pickle.dumps(tele.drain()))
        fresh = Telemetry()
        fresh.merge(restored)
        assert fresh.metrics.counter("c").value == 1


class TestPhaseClock:
    def test_laps_accumulate_per_phase(self):
        clock = PhaseClock(enabled=True)
        clock.lap("ping")
        clock.lap("iperf")
        clock.lap("ping")
        assert set(clock.phases) == {"ping", "iperf"}
        assert all(v >= 0.0 for v in clock.phases.values())
        assert clock.total_s == pytest.approx(sum(clock.phases.values()))

    def test_disabled_clock_is_inert(self):
        clock = PhaseClock(enabled=False)
        clock.lap("ping")
        assert clock.phases == {}
        assert clock.total_s == 0.0
