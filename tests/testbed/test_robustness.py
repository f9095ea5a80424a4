"""Fault-tolerant campaign execution: retry, rebuild, timeout, resume.

Faults are injected through the engine's crash-injection hook (see
``tests/faults.py``), so these tests exercise the real
retry/rebuild/resume machinery against real process crashes, not mocks.
"""

import pytest

from repro.core.errors import ConfigurationError, ExecutionError
from repro.paths.config import may_2004_catalog, scaled_catalog
from repro.testbed.campaign import Campaign, CampaignSettings
from repro.testbed.checkpoint import CheckpointStore
from repro.testbed.executor import RetryPolicy
from tests.faults import counter_value, inject, telemetry  # noqa: F401

SETTINGS = CampaignSettings(n_traces=2, epochs_per_trace=3)

#: No backoff sleeps in tests.
FAST_RETRY = RetryPolicy(max_retries=2, backoff_s=0.0)


def small_campaign(seed=0, n_paths=2):
    return Campaign(scaled_catalog(may_2004_catalog(), n_paths), seed=seed)


class TestRetryPolicy:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.max_retries == 2
        assert policy.job_timeout_s is None

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(backoff_s=1.0, backoff_cap_s=3.0)
        assert policy.backoff_for(1) == 1.0
        assert policy.backoff_for(2) == 2.0
        assert policy.backoff_for(3) == 3.0  # capped, not 4.0
        assert policy.backoff_for(0) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_s": -0.1},
            {"backoff_cap_s": -1.0},
            {"job_timeout_s": 0.0},
            {"max_pool_rebuilds": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


class TestRetryPath:
    def test_serial_transient_failure_retried(self, telemetry, inject):
        """A job that raises once succeeds on retry, losing nothing."""
        clean = small_campaign(seed=5).run(SETTINGS)
        telemetry.drain()
        inject("p01/1:raise:1")
        dataset = small_campaign(seed=5).run(SETTINGS, retry=FAST_RETRY)
        assert dataset == clean
        assert counter_value(telemetry, "campaign.retries") == 1
        assert counter_value(telemetry, "campaign.job_failures") == 1

    def test_parallel_transient_failure_retried(self, telemetry, inject):
        clean = small_campaign(seed=5).run(SETTINGS)
        telemetry.drain()
        inject("p18/0:raise:1")
        dataset = small_campaign(seed=5).run(
            SETTINGS, n_workers=2, retry=FAST_RETRY
        )
        assert dataset == clean
        assert counter_value(telemetry, "campaign.retries") == 1

    def test_exhausted_retries_name_the_job(self, telemetry, inject):
        inject("p18/0:raise", counted=False)  # fails every attempt
        with pytest.raises(ExecutionError, match=r"'p18', trace 0"):
            small_campaign().run(
                SETTINGS, retry=RetryPolicy(max_retries=1, backoff_s=0.0)
            )
        aborted = [e for e in telemetry.events if e["kind"] == "campaign.aborted"]
        assert len(aborted) == 1
        assert aborted[0]["path"] == "p18"
        assert aborted[0]["trace"] == 0
        assert counter_value(telemetry, "campaign.job_failures") == 2

    def test_parallel_abort_names_the_job(self, telemetry, inject):
        inject("p01/0:raise", counted=False)
        with pytest.raises(ExecutionError, match=r"'p01', trace 0"):
            small_campaign().run(
                SETTINGS,
                n_workers=2,
                retry=RetryPolicy(max_retries=0, backoff_s=0.0),
            )
        assert any(e["kind"] == "campaign.aborted" for e in telemetry.events)


class TestSerialAttemptIsolation:
    """A serial retry must behave exactly like a worker retry: fresh RNG
    state and discarded partial telemetry per attempt.

    The crash-injection hook raises before any RNG draw, so these tests
    inject the failure *after* the engine has run — every site stream of
    the trace consumed, its trace telemetry recorded — where a retry
    that reused the parent campaign's cached generators would silently
    produce a different trace.
    """

    @staticmethod
    def _arm_mid_trace_fault(monkeypatch):
        """Make the 2nd engine call of the run raise, once, after the
        real call returns.  The campaign looks the engine up on its
        module at call time, so the patch goes there."""
        from repro.fastpath import vector

        real_run_fluid_trace = vector.run_fluid_trace
        calls = {"n": 0}

        def flaky_run_fluid_trace(*args, **kwargs):
            trace = real_run_fluid_trace(*args, **kwargs)
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected mid-trace fault")
            return trace

        monkeypatch.setattr(vector, "run_fluid_trace", flaky_run_fluid_trace)

    def test_mid_trace_failure_retries_bit_identical(self, telemetry, monkeypatch):
        """A failure after consuming RNG draws must not perturb the retry."""
        reference = small_campaign(seed=17).run(SETTINGS)
        telemetry.drain()
        self._arm_mid_trace_fault(monkeypatch)
        dataset = small_campaign(seed=17).run(SETTINGS, retry=FAST_RETRY)
        assert dataset == reference
        assert counter_value(telemetry, "campaign.retries") == 1

    def test_failed_attempt_telemetry_is_discarded(self, telemetry, monkeypatch):
        """Serial telemetry matches parallel: partial attempts vanish."""
        self._arm_mid_trace_fault(monkeypatch)
        small_campaign(seed=17).run(SETTINGS, retry=FAST_RETRY)
        # 2 paths x 2 traces x 3 epochs = 12; the failed attempt's trace
        # record is discarded with the attempt, not double-counted.
        trace_events = [e for e in telemetry.events if e["kind"] == "trace"]
        assert len(trace_events) == 4
        assert counter_value(telemetry, "epochs.simulated") == 12
        # Only successful attempts record a trace timer sample.
        assert telemetry.metrics.timer("campaign.trace_s").count == 4


class TestVectorEngineRetry:
    """The crash-injection suite against the fluid engine's per-path jobs.

    The engine pre-draws whole per-trace site streams up front; an
    abandoned attempt must not leave any of that state behind — the
    retry re-derives every stream from the campaign seed, so the result
    must match a never-failed run bit for bit.
    """

    def test_parallel_chunked_retry_bit_identical(self, telemetry, inject):
        """Each path's traces form one job; a fault in one unit retries
        the job once, counted against that unit."""
        clean = small_campaign(seed=5).run(SETTINGS)
        telemetry.drain()
        inject("p18/1:raise:1")
        dataset = small_campaign(seed=5).run(
            SETTINGS, n_workers=2, retry=FAST_RETRY
        )
        assert dataset == clean
        assert counter_value(telemetry, "campaign.retries") == 1


class TestWorkerCrash:
    def test_pool_rebuilt_after_worker_death(self, telemetry, inject):
        """An os._exit'ing worker breaks the pool; the campaign survives."""
        clean = small_campaign(seed=9).run(SETTINGS)
        telemetry.drain()
        inject("p01/0:exit:1")
        dataset = small_campaign(seed=9).run(
            SETTINGS, n_workers=2, retry=FAST_RETRY
        )
        assert dataset == clean
        assert counter_value(telemetry, "campaign.pool_rebuilds") >= 1
        assert counter_value(telemetry, "campaign.job_failures") >= 1


class TestJobTimeout:
    @pytest.mark.slow
    def test_hung_job_killed_and_retried(self, telemetry, inject):
        clean = small_campaign(seed=3).run(SETTINGS)
        telemetry.drain()
        inject("p01/1:hang:1")
        policy = RetryPolicy(max_retries=2, backoff_s=0.0, job_timeout_s=1.5)
        dataset = small_campaign(seed=3).run(SETTINGS, n_workers=2, retry=policy)
        assert dataset == clean
        failures = [
            e for e in telemetry.events if e["kind"] == "campaign.job_failure"
        ]
        assert any(e["failure"] == "timeout" for e in failures)

    @pytest.mark.slow
    def test_queue_wait_does_not_count_against_timeout(self, telemetry, inject):
        """Queued jobs must not expire: the budget covers running time.

        12 jobs of ~0.75 s on 2 workers take ~4.5 s end to end — longer
        than the 4 s job timeout — but no single job exceeds it, so a
        timeout measured from dispatch (not submission) never fires.
        ``max_retries=0`` turns any spurious expiry into a hard abort.
        12 one-trace paths make the 12 single-trace jobs the timing
        argument rests on (the engine packs each path into one job).
        """
        inject("*:nap:0.75", counted=False)
        policy = RetryPolicy(max_retries=0, backoff_s=0.0, job_timeout_s=4.0)
        dataset = small_campaign(seed=6, n_paths=12).run(
            CampaignSettings(n_traces=1, epochs_per_trace=2),
            n_workers=2,
            retry=policy,
        )
        assert len(dataset.traces) == 12
        assert counter_value(telemetry, "campaign.job_failures") == 0


class TestCheckpointAndResume:
    def test_interrupt_then_resume_is_bit_identical(
        self, telemetry, inject, tmp_path, monkeypatch
    ):
        """The acceptance scenario: crash, resume, compare to serial."""
        from repro.testbed.io import save_dataset

        reference = small_campaign(seed=13).run(SETTINGS)
        store = CheckpointStore(tmp_path / "ckpt")

        inject("p18/1:raise", counted=False)
        with pytest.raises(ExecutionError):
            small_campaign(seed=13).run(
                SETTINGS,
                checkpoint=store,
                retry=RetryPolicy(max_retries=0, backoff_s=0.0),
            )
        # Serial order: p01/0, p01/1, p18/0 completed before the crash.
        run_keys = [d.name for d in (tmp_path / "ckpt").iterdir()]
        assert len(run_keys) == 1
        stored = sorted(p.name for p in store.run_dir(run_keys[0]).iterdir())
        assert stored == ["p01.t0.npz", "p01.t1.npz", "p18.t0.npz"]

        monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)
        telemetry.drain()
        resumed = small_campaign(seed=13).run(
            SETTINGS, checkpoint=store, resume=True
        )
        assert resumed == reference
        assert counter_value(telemetry, "campaign.traces_resumed") == 3
        assert counter_value(telemetry, "campaign.traces_attempted") == 1

        ref_csv, res_csv = tmp_path / "ref.csv", tmp_path / "res.csv"
        save_dataset(reference, ref_csv)
        save_dataset(resumed, res_csv)
        assert ref_csv.read_bytes() == res_csv.read_bytes()

    def test_parallel_resume_matches_serial(self, telemetry, inject, tmp_path, monkeypatch):
        reference = small_campaign(seed=21).run(SETTINGS)
        store = CheckpointStore(tmp_path / "ckpt")
        inject("p01/1:raise", counted=False)
        with pytest.raises(ExecutionError):
            small_campaign(seed=21).run(
                SETTINGS,
                n_workers=2,
                checkpoint=store,
                retry=RetryPolicy(max_retries=0, backoff_s=0.0),
            )
        monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)
        resumed = small_campaign(seed=21).run(
            SETTINGS, n_workers=2, checkpoint=store, resume=True
        )
        assert resumed == reference

    def test_checkpoints_discarded_after_success(self, telemetry, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        small_campaign().run(SETTINGS, checkpoint=store)
        assert not any((tmp_path / "ckpt").iterdir())

    def test_partial_checkpoint_is_resimulated(self, telemetry, tmp_path):
        """A checkpoint with the wrong epoch count is ignored on resume."""
        from repro.testbed.cache import campaign_cache_key

        store = CheckpointStore(tmp_path / "ckpt")
        campaign = small_campaign(seed=2)
        short = campaign.run_trace(
            campaign.catalog[0], 0, CampaignSettings(n_traces=2, epochs_per_trace=2)
        )
        key = campaign_cache_key(small_campaign(seed=2), SETTINGS)
        store.store_trace(key, short)
        dataset = small_campaign(seed=2).run(
            SETTINGS, checkpoint=store, resume=True
        )
        assert dataset == small_campaign(seed=2).run(SETTINGS)

    def test_resume_without_prior_run_is_a_plain_run(self, telemetry, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        dataset = small_campaign(seed=4).run(SETTINGS, checkpoint=store, resume=True)
        assert dataset == small_campaign(seed=4).run(SETTINGS)


class TestGaugeHygiene:
    def test_aborted_run_does_not_leak_stale_progress(self, telemetry, inject):
        """Gauges are reset at entry, so an abort leaves honest values."""
        small_campaign().run(SETTINGS)  # completes: traces_done == 4
        assert telemetry.metrics.gauge("campaign.traces_done").value == 4
        inject("p01/0:raise", counted=False)
        with pytest.raises(ExecutionError):
            small_campaign().run(
                SETTINGS, retry=RetryPolicy(max_retries=0, backoff_s=0.0)
            )
        # The failed run made no progress; the gauge must say so rather
        # than keep the previous run's 4.
        assert telemetry.metrics.gauge("campaign.traces_done").value == 0
        assert telemetry.metrics.gauge("campaign.epochs_done").value == 0


class TestChunkedRetry:
    """A job of several units (one path's traces) keeps per-unit failure
    attribution and retry."""

    def test_failed_unit_in_chunk_retried_and_attributed(self, telemetry, inject):
        clean = small_campaign(seed=5).run(SETTINGS)
        telemetry.drain()
        inject("p18/1:raise:1")
        dataset = small_campaign(seed=5).run(
            SETTINGS, n_workers=2, retry=FAST_RETRY
        )
        assert dataset == clean
        assert counter_value(telemetry, "campaign.retries") == 1
        failures = [
            e for e in telemetry.events if e["kind"] == "campaign.job_failure"
        ]
        assert len(failures) == 1
        assert (failures[0]["path"], failures[0]["trace"]) == ("p18", 1)

    def test_chunked_abort_names_the_failing_unit(self, telemetry, inject):
        inject("p18/0:raise", counted=False)  # fails every attempt
        with pytest.raises(ExecutionError, match=r"'p18', trace 0"):
            small_campaign().run(
                SETTINGS,
                n_workers=2,
                retry=RetryPolicy(max_retries=0, backoff_s=0.0),
            )
        aborted = [e for e in telemetry.events if e["kind"] == "campaign.aborted"]
        assert len(aborted) == 1
        assert (aborted[0]["path"], aborted[0]["trace"]) == ("p18", 0)

    def test_chunked_worker_crash_rebuilds_and_recovers(self, telemetry, inject):
        clean = small_campaign(seed=5).run(SETTINGS)
        telemetry.drain()
        inject("p01/0:exit:1")
        dataset = small_campaign(seed=5).run(
            SETTINGS, n_workers=2, retry=FAST_RETRY
        )
        assert dataset == clean
        assert counter_value(telemetry, "campaign.pool_rebuilds") >= 1
