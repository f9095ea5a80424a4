"""Online quality tracking: parity with the offline evaluator, drift,
SLO accounting, level-shift resets, and bounded memory.

The tentpole guarantee: the error stream :class:`QualityTracker` scores
online (previous forecast vs arriving sample, Eq. 4) is bit-identical
to the residuals :func:`evaluate_predictor` computes offline over the
same trace — ``==`` on floats, no tolerance.
"""

import itertools
import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.core.timeseries import TimeSeries
from repro.hb.evaluate import evaluate_predictor
from repro.hb.streaming import (
    BASE_PREDICTORS,
    PredictorSpec,
    StreamingPredictorState,
)
from repro.obs import metrics, quality
from repro.obs.metrics import percentile
from repro.obs.quality import PredictorQuality, QualityConfig, QualityTracker
from repro.obs.telemetry import ENV_OBS, get_telemetry
from repro.paths.config import may_2004_catalog
from repro.serve.state import ShardedStateStore, default_specs
from repro.testbed.campaign import Campaign, CampaignSettings


@pytest.fixture(autouse=True)
def _clean_telemetry(monkeypatch):
    monkeypatch.delenv(ENV_OBS, raising=False)
    get_telemetry().reset()
    yield
    get_telemetry().reset()


@pytest.fixture(scope="module")
def campaign_traces():
    """Replayed campaign traces, plus one with a forced level shift."""
    catalog = may_2004_catalog()[:3]
    campaign = Campaign(catalog, seed=11, label="quality-parity")
    settings = CampaignSettings(n_traces=1, epochs_per_trace=80)
    traces = {
        config.path_id: [
            epoch.throughput_mbps
            for epoch in campaign.run_trace(config, 0, settings)
        ]
        for config in catalog
    }
    base = next(iter(traces.values()))
    traces["shifted"] = base + [value * 3.1 for value in base]
    return traces


def online_errors(values, spec, tracker, key="p", name="x"):
    """Score a trace through the tracker exactly as the store does."""
    state = StreamingPredictorState(spec)
    errors = []
    for value in values:
        previous = state.prediction()
        state.ingest(value)
        errors.append(
            tracker.score(
                key, name, previous, value, level_shifts=state.n_level_shifts
            )
        )
    return errors


class TestOfflineParity:
    """score()'s error stream == evaluate_predictor's residuals."""

    @pytest.mark.parametrize("name", sorted(BASE_PREDICTORS))
    def test_campaign_trace_parity(self, campaign_traces, name):
        spec = PredictorSpec(predictor=name, lso=True)
        for path_id, values in campaign_traces.items():
            evaluation = evaluate_predictor(
                TimeSeries.from_values(values), spec.build
            )
            tracker = QualityTracker(QualityConfig(slo_abs_error=None))
            errors = online_errors(values, spec, tracker)
            for i, online in enumerate(errors):
                offline = evaluation.errors[i]
                if online is None:
                    assert math.isnan(offline), (path_id, i)
                else:
                    assert online == offline, (path_id, i)

    def test_shifted_trace_actually_resets(self, campaign_traces):
        spec = PredictorSpec(predictor="ma10", lso=True)
        tracker = QualityTracker(QualityConfig(slo_abs_error=None))
        online_errors(campaign_traces["shifted"], spec, tracker)
        series = tracker.path_summary("p")["x"]
        assert series["level_shift_resets"] >= 1
        # The cumulative stream kept counting across the reset.
        assert series["scored"] > len(campaign_traces["shifted"]) // 2

    def test_store_ingest_scores_identically(self, campaign_traces):
        """End to end: ShardedStateStore.ingest drives the same stream."""
        values = campaign_traces["shifted"]
        spec = PredictorSpec(predictor="ewma", lso=True)
        evaluation = evaluate_predictor(
            TimeSeries.from_values(values), spec.build
        )
        store = ShardedStateStore(
            specs={"ewma": spec},
            quality=QualityTracker(QualityConfig(slo_abs_error=None)),
        )
        # Ingest in uneven batches, as HTTP clients would.
        for start in range(0, len(values), 7):
            store.ingest("p1", values[start:start + 7])
        series = store.quality.path_summary("p1")["ewma"]
        finite = [e for e in evaluation.errors if not math.isnan(e)]
        assert series["scored"] == len(finite)
        assert series["last_error"] == finite[-1]
        total = 0.0
        for error in finite:
            total += abs(error)
        assert series["mean_abs_error"] == total / len(finite)


class TestPredictorQuality:
    def config(self, **kwargs):
        defaults = dict(
            window=4,
            slo_abs_error=None,
            drift_factor=2.0,
            drift_min_delta=0.0,
            drift_patience=2,
        )
        defaults.update(kwargs)
        return QualityConfig(**defaults)

    def test_windowed_quantiles_are_exact(self):
        series = PredictorQuality(self.config(window=5))
        for error in (0.1, -0.3, 0.2, -0.5, 0.4):
            series.observe(error, level_shifts=0)
        assert series.windowed_quantile(50.0) == 0.3
        assert series.windowed_quantile(95.0) == 0.5
        # Window slides: the oldest |E| leaves the quantile base.
        series.observe(0.25, level_shifts=0)
        assert series.windowed_quantile(95.0) == 0.5
        series.observe(0.05, level_shifts=0)  # 0.3 dropped
        assert sorted(abs(e) for e in series._window) == series._sorted

    def test_drift_alert_fires_after_patience_and_refreezes(self):
        series = PredictorQuality(self.config())
        for _ in range(4):
            series.observe(0.1, level_shifts=0)
        assert series.baseline_p95 == pytest.approx(0.1)
        flags = [series.observe(0.5, level_shifts=0) for _ in range(2)]
        assert [f[1] for f in flags] == [False, True]
        assert series.n_drift_alerts == 1
        # Re-frozen baseline: the same elevated level does not re-alert.
        for _ in range(6):
            assert series.observe(0.5, level_shifts=0)[1] is False
        assert series.n_drift_alerts == 1

    def test_drift_streak_resets_on_recovery(self):
        series = PredictorQuality(self.config(drift_patience=6))
        for _ in range(4):
            series.observe(0.1, level_shifts=0)
        series.observe(0.5, level_shifts=0)
        series.observe(0.5, level_shifts=0)
        assert series.drift_streak == 2
        # Recovery: the windowed p95 stays elevated until the spike
        # slides out of the window, then the streak re-arms.
        for _ in range(4):
            series.observe(0.01, level_shifts=0)
        assert series.drift_streak == 0
        assert series.n_drift_alerts == 0

    def test_min_delta_floors_near_zero_baselines(self):
        series = PredictorQuality(self.config(drift_min_delta=10.0))
        for _ in range(4):
            series.observe(0.001, level_shifts=0)
        for _ in range(8):
            slo, drift, reset = series.observe(0.5, level_shifts=0)
            assert drift is False  # 0.5 < baseline + 10.0

    def test_level_shift_resets_window_not_aggregates(self):
        series = PredictorQuality(self.config())
        for _ in range(4):
            series.observe(0.2, level_shifts=0)
        assert series.baseline_p95 is not None
        flags = series.observe(0.3, level_shifts=1)
        assert flags[2] is True
        assert series.n_level_shift_resets == 1
        assert len(series._window) == 1  # cleared, then the new error
        assert series.baseline_p95 is None
        assert series.n_scored == 5  # cumulative stream uninterrupted

    def test_first_score_adopts_the_odometer(self):
        """A restored path arriving with shifts already counted must not
        immediately reset."""
        series = PredictorQuality(self.config())
        flags = series.observe(0.1, level_shifts=7)
        assert flags[2] is False
        assert series.level_shifts_seen == 7

    def test_slo_breach_counted(self):
        series = PredictorQuality(self.config(slo_abs_error=0.3))
        assert series.observe(0.2, level_shifts=0)[0] is False
        assert series.observe(-0.4, level_shifts=0)[0] is True
        assert series.n_slo_breaches == 1

    def test_summary_shape(self):
        series = PredictorQuality(self.config())
        assert series.summary()["mean_abs_error"] is None
        series.observe(0.5, level_shifts=0)
        doc = series.summary()
        assert doc["scored"] == 1
        assert doc["mean_abs_error"] == 0.5
        assert doc["last_error"] == 0.5
        assert doc["window_len"] == 1


def reference_p95_stream(config, stream):
    """``(drift_alert, baseline_p95, windowed p95)`` after each
    ``(error, level_shifts)`` of ``stream``, with every p95 taken as
    ``percentile(sorted(window))``: the tracker's rules, re-sorted."""
    window, baseline, streak, seen = deque(maxlen=config.window), None, 0, None
    out = []
    for error, shifts in stream:
        if seen is None:
            seen = shifts
        elif shifts > seen:
            seen, baseline, streak = shifts, None, 0
            window.clear()
        window.append(error)
        p95 = percentile(sorted(abs(e) for e in window), 95.0)
        alert = False
        if len(window) == config.window:
            if baseline is None:
                baseline = p95
            elif p95 > max(
                baseline * config.drift_factor, baseline + config.drift_min_delta
            ):
                streak += 1
                if streak >= config.drift_patience:
                    alert, baseline, streak = True, p95, 0
            else:
                streak = 0
        out.append((alert, baseline, p95))
    return out


errors = st.sampled_from([0.0, -0.0, 0.1, -0.1, 0.5, 2.0]) | st.floats(-4.0, 4.0)


@settings(max_examples=150, deadline=None)
@given(
    window=st.integers(2, 9),
    patience=st.integers(1, 3),
    stream=st.lists(st.tuples(errors, st.sampled_from([0] * 9 + [1])), max_size=60),
)
def test_p95_by_rank_equals_percentile_of_the_sorted_window(window, patience, stream):
    config = QualityConfig(
        window=window, slo_abs_error=None, drift_min_delta=0.01, drift_patience=patience
    )
    # Level-shift odometer: cumulative bumps.
    shifts = itertools.accumulate(bump for _, bump in stream)
    stream = [(error, total) for (error, _), total in zip(stream, shifts)]
    series = PredictorQuality(config)
    observed = []
    for error, total in stream:
        alert = series.observe(error, total)[1]
        observed.append((alert, series.baseline_p95, series.windowed_quantile(95.0)))
    assert observed == reference_p95_stream(config, stream)


def test_scoring_never_re_checks_the_sorted_window(monkeypatch):
    """The tracker's mirror is sorted by construction (``insort``), so
    scoring reads its p95 by rank; :func:`percentile`, which checks the
    order of its whole sample on every call, is never called."""

    def unchecked(*args):
        raise AssertionError("percentile() called while scoring")

    monkeypatch.setattr(quality, "percentile", unchecked, raising=False)
    monkeypatch.setattr(metrics, "percentile", unchecked)
    tracker = QualityTracker(QualityConfig(drift_patience=1, drift_min_delta=0.0))
    for i in range(200):
        actual = 11.0 if i < 120 else 40.0  # a jump: drift alerts fire
        tracker.score("p", "last", 10.0, actual)
    assert tracker.path_summary("p")["last"]["drift_alerts"] >= 1


class TestQualityTracker:
    def test_not_ready_counted_not_scored(self):
        tracker = QualityTracker()
        assert tracker.score("p", "ma10", None, 10.0) is None
        assert tracker.path_summary("p")["ma10"]["not_ready"] == 1
        assert tracker.path_summary("p")["ma10"]["scored"] == 0

    def test_invalid_counted_separately(self):
        tracker = QualityTracker()
        tracker.observe_invalid("p", "ma10")
        series = tracker.path_summary("p")["ma10"]
        assert series["invalid"] == 1 and series["scored"] == 0

    def test_slo_breach_ticks_counter(self):
        tracker = QualityTracker(QualityConfig(slo_abs_error=0.5))
        tracker.score("p", "last", 10.0, 30.0)  # E = -2.0
        counter = get_telemetry().counter("serve.slo_breaches", predictor="last")
        assert counter.value == 1

    def test_drift_alert_ticks_counter_and_emits(self):
        tracker = QualityTracker(
            QualityConfig(
                window=4,
                slo_abs_error=None,
                drift_min_delta=0.0,
                drift_patience=1,
            )
        )
        for _ in range(4):
            tracker.score("p", "last", 10.0, 11.0)
        for _ in range(4):
            tracker.score("p", "last", 10.0, 40.0)
        counter = get_telemetry().counter("predict.drift_alerts", predictor="last")
        assert counter.value >= 1
        kinds = [e["kind"] for e in get_telemetry().events]
        assert "quality.drift" in kinds

    def test_lru_bound_and_drop(self):
        tracker = QualityTracker(QualityConfig(max_paths=2))
        for key in ("a", "b", "c"):
            tracker.score(key, "last", 10.0, 11.0)
        assert len(tracker) == 2
        assert tracker.paths() == ["b", "c"]
        tracker.drop("b")
        assert tracker.paths() == ["c"]
        assert tracker.path_summary("a") is None

    def test_dropped_path_gauges_discarded(self):
        tracker = QualityTracker()
        tracker.score("p", "last", 10.0, 11.0)
        tracker.update_gauges()
        registry = get_telemetry().metrics
        before = [g for g in registry.snapshot()["gauges"]
                  if g["name"] == "predict.rel_error"]
        assert before
        tracker.drop("p")
        after = [g for g in registry.snapshot()["gauges"]
                 if g["name"] == "predict.rel_error"]
        assert after == []

    def test_update_gauges_publishes_quantiles(self):
        tracker = QualityTracker()
        for _ in range(3):
            tracker.score("p", "ewma", 10.0, 12.0)
        tracker.update_gauges()
        gauges = {
            (g["name"], g["tags"].get("quantile")): g["value"]
            for g in get_telemetry().metrics.snapshot()["gauges"]
        }
        assert ("predict.rel_error", "0.5") in gauges
        assert ("predict.rel_error", "0.95") in gauges
        assert ("predict.ewma_abs_error", None) in gauges

    def test_summary_aggregates_across_paths(self):
        tracker = QualityTracker(QualityConfig(slo_abs_error=None))
        tracker.score("a", "last", 10.0, 11.0)
        tracker.score("b", "last", 10.0, 20.0)
        tracker.score("b", "ewma", None, 20.0)
        doc = tracker.summary(include_paths=True)
        assert doc["totals"]["paths"] == 2
        assert doc["totals"]["scored"] == 2
        assert doc["totals"]["not_ready"] == 1
        last = doc["predictors"]["last"]
        assert last["paths"] == 2
        assert last["worst_path"] == "b"
        assert last["mean_abs_error"] == pytest.approx((0.1 + 1.0) / 2)
        assert set(doc["paths"]) == {"a", "b"}
        assert "total_abs_error" not in last  # internal term, not exported

    def test_summary_without_paths_by_default(self):
        tracker = QualityTracker()
        tracker.score("a", "last", 10.0, 11.0)
        assert "paths" not in tracker.summary()


class TestStoreIntegration:
    def make_store(self):
        return ShardedStateStore(
            specs=default_specs(["last", "ewma"]),
            n_shards=1,
            max_paths_per_shard=2,
        )

    def test_invalid_samples_not_scored(self):
        store = self.make_store()
        store.ingest("p", [10.0, 0.0, float("nan"), 11.0])
        series = store.quality.path_summary("p")["last"]
        assert series["invalid"] == 2
        assert series["scored"] + series["not_ready"] == 2

    def test_eviction_drops_quality_series(self):
        store = self.make_store()
        for key in ("a", "b", "c"):
            store.ingest(key, [10.0, 11.0])
        assert store.n_evicted == 1
        assert store.quality.path_summary("a") is None
        assert store.quality.path_summary("c") is not None

    def test_kill_switch_disables_scoring(self, monkeypatch):
        monkeypatch.setenv(ENV_OBS, "0")
        store = self.make_store()
        store.ingest("p", [10.0, 11.0, 12.0])
        assert store.quality.path_summary("p") is None
        # Predictions still work; only the scoring is off.
        assert store.get("p")["last"].prediction() == 12.0

    def test_quality_none_disables_entirely(self):
        store = ShardedStateStore(
            specs=default_specs(["last"]), quality=None
        )
        store.ingest("p", [10.0, 11.0])
        assert store.quality is None


class TestQualityConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 1},
            {"ewma_alpha": 0.0},
            {"ewma_alpha": 1.5},
            {"slo_abs_error": 0.0},
            {"drift_factor": 1.0},
            {"drift_min_delta": -0.1},
            {"drift_patience": 0},
            {"max_paths": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            QualityConfig(**kwargs)

    def test_to_dict_round_trips(self):
        config = QualityConfig(window=10, slo_abs_error=None)
        assert QualityConfig(**config.to_dict()) == config
