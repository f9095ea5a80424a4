"""Span-tree parity: serial, parallel, and retried campaigns must all
record the *same* causal tree.

Worker-process spans travel through the executor's drain/merge protocol
and get re-parented under the dispatching campaign span, so the only
acceptable differences between execution modes are ids and timings —
which is exactly what :func:`normalized` strips before comparing.
"""

import pytest

from repro.paths.config import may_2004_catalog, scaled_catalog
from repro.testbed.campaign import Campaign, CampaignSettings
from repro.testbed.executor import RetryPolicy
from repro.testbed.io import save_dataset
from tests.faults import inject, normalized, spans_named, telemetry  # noqa: F401

SETTINGS = CampaignSettings(n_traces=2, epochs_per_trace=3)

FAST_RETRY = RetryPolicy(max_retries=2, backoff_s=0.0)


def small_campaign(seed=0, n_paths=2):
    return Campaign(scaled_catalog(may_2004_catalog(), n_paths), seed=seed)


def run_and_snapshot(telemetry, seed=5, **kwargs):
    dataset = small_campaign(seed=seed).run(SETTINGS, **kwargs)
    snapshot = telemetry.drain()
    return dataset, snapshot["events"]


class TestExecutionModeParity:
    @pytest.mark.parametrize(
        "kwargs",
        [{"n_workers": 2}, {"n_workers": 4}],
        ids=["workers2", "workers4"],
    )
    def test_parallel_tree_matches_serial(self, telemetry, kwargs):
        serial_ds, serial_events = run_and_snapshot(telemetry)
        parallel_ds, parallel_events = run_and_snapshot(telemetry, **kwargs)
        assert parallel_ds == serial_ds
        assert normalized(parallel_events) == normalized(serial_events)

    def test_tree_shape_is_the_documented_one(self, telemetry):
        _, events = run_and_snapshot(telemetry)
        tree = normalized(events)
        assert len(tree) == 1  # single campaign root
        campaign_tags, units = tree[0]
        assert ("name", "campaign") in campaign_tags
        assert len(units) == 4  # 2 paths x 2 traces
        for unit_tags, _phases in units:
            assert ("name", "trace") in unit_tags

    def test_single_trace_id_across_workers(self, telemetry):
        _, events = run_and_snapshot(telemetry, n_workers=2)
        spans = [e for e in events if e.get("kind") == "span"]
        assert len({e["trace_id"] for e in spans}) == 1
        roots = [e for e in spans if e["parent_id"] is None]
        assert [e["name"] for e in roots] == ["campaign"]


class TestRetryParity:
    def test_serial_retry_keeps_one_span_per_unit(self, telemetry, inject):
        _, clean_events = run_and_snapshot(telemetry)
        inject("p01/1:raise:1")
        dataset, events = run_and_snapshot(telemetry, retry=FAST_RETRY)
        assert dataset == small_campaign(seed=5).run(SETTINGS)
        telemetry.drain()
        units = spans_named(events, "trace")
        assert len(units) == 4  # one per completed unit, not per attempt
        assert not any("error" in u for u in units)
        assert normalized(events) == normalized(clean_events)

    def test_parallel_retry_keeps_one_span_per_unit(self, telemetry, inject):
        _, clean_events = run_and_snapshot(telemetry)
        inject("p18/1:raise:1")
        _, events = run_and_snapshot(
            telemetry, n_workers=2, retry=FAST_RETRY
        )
        assert len(spans_named(events, "trace")) == 4
        assert normalized(events) == normalized(clean_events)

    def test_worker_crash_retry_keeps_tree(self, telemetry, inject):
        _, clean_events = run_and_snapshot(telemetry)
        inject("p01/0:exit:1")
        _, events = run_and_snapshot(
            telemetry, n_workers=2, retry=FAST_RETRY
        )
        assert len(spans_named(events, "trace")) == 4
        assert normalized(events) == normalized(clean_events)


class TestSamplingParity:
    def test_fractional_rate_is_mode_independent(self, telemetry, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0.5")
        serial_ds, serial_events = run_and_snapshot(telemetry)
        parallel_ds, parallel_events = run_and_snapshot(
            telemetry, n_workers=2
        )
        assert parallel_ds == serial_ds
        assert normalized(parallel_events) == normalized(serial_events)
        # A fractional rate keeps some units and drops others: the
        # decision is per-unit and deterministic, not all-or-nothing.
        full = monkeypatch.delenv("REPRO_TRACE_SAMPLE")
        del full
        _, full_events = run_and_snapshot(telemetry)
        kept = len(spans_named(serial_events, "trace"))
        assert 0 < kept < len(spans_named(full_events, "trace"))

    def test_sampling_never_perturbs_results(
        self, telemetry, monkeypatch, tmp_path
    ):
        baseline, _ = run_and_snapshot(telemetry)
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0.25")
        sampled, _ = run_and_snapshot(telemetry)
        monkeypatch.setenv("REPRO_OBS", "0")
        dark, _ = run_and_snapshot(telemetry)
        assert sampled == baseline
        assert dark == baseline
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(baseline, a)
        save_dataset(sampled, b)
        assert a.read_bytes() == b.read_bytes()
