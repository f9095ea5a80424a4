"""The parallel campaign executor.

The load-bearing property: a parallel campaign is *bit-identical* to the
serial one — same traces, same epoch tuples (including truth records),
in the same order — because every (path, trace) pair owns a named RNG
stream.
"""

import pytest

from repro.core.errors import ConfigurationError
from repro.paths.config import may_2004_catalog, scaled_catalog
from repro.testbed.campaign import Campaign, CampaignSettings
from repro.testbed.executor import CampaignProgress, resolve_workers

SETTINGS = CampaignSettings(n_traces=2, epochs_per_trace=4)


def small_campaign(seed=0, n_paths=2):
    return Campaign(scaled_catalog(may_2004_catalog(), n_paths), seed=seed)


class TestParallelDeterminism:
    def test_parallel_equals_serial(self):
        """n_workers=4 reproduces the serial dataset exactly."""
        serial = small_campaign(seed=11).run(SETTINGS, n_workers=1)
        parallel = small_campaign(seed=11).run(SETTINGS, n_workers=4)
        assert parallel == serial

    def test_parallel_preserves_epoch_tuples(self):
        serial = small_campaign(seed=7).run(SETTINGS, n_workers=1)
        parallel = small_campaign(seed=7).run(SETTINGS, n_workers=2)
        assert [(t.path_id, t.trace_index) for t in parallel] == [
            (t.path_id, t.trace_index) for t in serial
        ]
        for a, b in zip(parallel.epochs(), serial.epochs()):
            assert a == b
            assert a.truth == b.truth

    def test_all_cpus_request(self):
        dataset = small_campaign(seed=3, n_paths=1).run(
            CampaignSettings(n_traces=1, epochs_per_trace=2), n_workers=0
        )
        assert len(dataset.traces) == 1

    def test_worker_count_validation(self):
        with pytest.raises(ConfigurationError):
            small_campaign().run(SETTINGS, n_workers="four")

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        assert resolve_workers(-2) >= 1


class TestProgressReporting:
    def test_serial_progress_snapshots(self):
        snapshots: list[CampaignProgress] = []
        small_campaign().run(SETTINGS, n_workers=1, progress=snapshots.append)
        assert [s.traces_done for s in snapshots] == [1, 2, 3, 4]
        assert snapshots[-1].done
        assert snapshots[-1].epochs_done == snapshots[-1].epochs_total == 16
        assert all(s.traces_total == 4 for s in snapshots)

    def test_parallel_progress_snapshots(self):
        snapshots: list[CampaignProgress] = []
        small_campaign().run(SETTINGS, n_workers=2, progress=snapshots.append)
        assert [s.traces_done for s in snapshots] == [1, 2, 3, 4]
        assert snapshots[-1].done

    def test_rate_and_eta(self):
        midway = CampaignProgress(
            traces_done=1,
            traces_total=2,
            epochs_done=10,
            epochs_total=20,
            elapsed_s=2.0,
        )
        assert midway.epochs_per_s == pytest.approx(5.0)
        assert midway.eta_s == pytest.approx(2.0)
        assert not midway.done

    def test_eta_before_any_work(self):
        fresh = CampaignProgress(
            traces_done=0,
            traces_total=2,
            epochs_done=0,
            epochs_total=20,
            elapsed_s=0.0,
        )
        assert fresh.epochs_per_s == 0.0
        assert fresh.eta_s == float("inf")

    def test_sub_resolution_first_trace(self):
        """Work done in under the clock resolution must not divide by zero."""
        instant = CampaignProgress(
            traces_done=1,
            traces_total=2,
            epochs_done=10,
            epochs_total=20,
            elapsed_s=0.0,
        )
        assert instant.epochs_per_s == 0.0
        assert instant.eta_s == float("inf")

    def test_progress_and_registry_share_the_snapshot(self, monkeypatch):
        """The metrics gauges and the callback see the same numbers."""
        monkeypatch.delenv("REPRO_OBS", raising=False)
        from repro.obs import get_telemetry

        telemetry = get_telemetry()
        telemetry.drain()
        observed: list[tuple] = []

        def callback(snapshot: CampaignProgress) -> None:
            gauges = telemetry.metrics
            observed.append(
                (
                    snapshot.traces_done,
                    gauges.gauge("campaign.traces_done").value,
                    snapshot.epochs_done,
                    gauges.gauge("campaign.epochs_done").value,
                )
            )

        small_campaign().run(SETTINGS, n_workers=1, progress=callback)
        telemetry.drain()
        assert observed  # the callback ran
        for traces_done, gauge_traces, epochs_done, gauge_epochs in observed:
            assert traces_done == gauge_traces
            assert epochs_done == gauge_epochs


class TestChunkedDispatch:
    """A job of several units: one path's traces."""

    def test_chunk_unit_error_is_picklable(self):
        import pickle

        from repro.testbed.executor import ChunkUnitError

        error = ChunkUnitError("p03", 1, "RuntimeError('boom')")
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.path_id, clone.trace_index) == ("p03", 1)
        assert "p03" in str(clone) and "boom" in str(clone)


class TestWorkerInitializer:
    def test_chunk_job_requires_initializer(self):
        """The worker entry point refuses to run without the shipped state."""
        import repro.testbed.executor as ex

        state = ex._WORKER_STATE
        ex._WORKER_STATE = None
        try:
            with pytest.raises(AssertionError):
                ex._run_job((ex.Unit("p01", 0, 0),))
        finally:
            ex._WORKER_STATE = state

    def test_initializer_installs_state_once(self):
        import repro.testbed.executor as ex

        campaign = small_campaign(seed=5)
        catalog = campaign.catalog
        state = ex._WORKER_STATE
        try:
            ex._init_worker(
                ex._simulate_trace,
                (catalog, 5, campaign.label, campaign.tcp,
                 campaign.small_tcp, SETTINGS),
            )
            results = ex._run_job(
                (ex.Unit(catalog[0].path_id, 0, 0), ex.Unit(catalog[1].path_id, 1, 1))
            )
            assert len(results) == 2
            traces = [trace for trace, _ in results]
            assert traces[0].path_id == campaign.catalog[0].path_id
            assert traces[1].trace_index == 1
            # And the worker-path result equals the in-process one.
            expected = campaign.run_trace(campaign.catalog[0], 0, SETTINGS)
            assert traces[0] == expected
        finally:
            ex._WORKER_STATE = state
