"""Streaming-layer parity: ingest-driven predictions must be
bit-identical to the reference walk-forward evaluation.

The guarantee of the serving layer: for every registered base predictor
and LSO configuration, feeding a trace sample-by-sample through
:meth:`StreamingPredictorState.ingest` produces exactly the forecasts of
the oracle's quadratic LSO replay (``tests/hb/oracle.py``) — no
tolerance, ``==`` on floats — and so exactly what
:func:`evaluate_predictor` computes offline.
"""

import json
import math
import random
from dataclasses import replace

import pytest

from repro.core.errors import DataError
from repro.core.timeseries import TimeSeries
from repro.hb.evaluate import evaluate_predictor
from repro.hb.lso import LsoConfig
from repro.hb.streaming import (
    SERVE_PREDICTORS,
    StreamingPredictorState,
    spec_from_v1,
)
from repro.hb.wrappers import LsoPredictor
from repro.paths.config import may_2004_catalog
from repro.testbed.campaign import Campaign, CampaignSettings
from tests.hb import oracle


def synthetic_trace(n=150, seed=7):
    """A trace with two level shifts and periodic outlier spikes."""
    rng = random.Random(seed)
    values, level = [], 50.0
    for i in range(n):
        if i == 40:
            level *= 2.2
        elif i == 90:
            level *= 0.35
        value = level * rng.uniform(0.92, 1.08)
        if i % 23 == 11:
            value *= 3.0
        values.append(value)
    return values


@pytest.fixture(scope="module")
def campaign_traces():
    """Throughput values of real (simulated) campaign traces."""
    catalog = may_2004_catalog()[:3]
    campaign = Campaign(catalog, seed=11, label="streaming-parity")
    settings = CampaignSettings(n_traces=1, epochs_per_trace=150)
    return {
        config.path_id: [
            epoch.throughput_mbps
            for epoch in campaign.run_trace(config, 0, settings)
        ]
        for config in catalog
    }


LSO_CONFIGS = [None, LsoConfig(level_shift_threshold=0.2, outlier_threshold=0.3)]


def bare(name):
    """The spec of a ``--predictors`` name without its LSO wrapper."""
    return replace(SERVE_PREDICTORS[name], lso=None)


class TestStreamingLsoParity:
    """LsoPredictor mirrors the oracle's quadratic replay update-for-update."""

    @pytest.mark.parametrize("name", sorted(SERVE_PREDICTORS))
    @pytest.mark.parametrize("harden", [True, False])
    @pytest.mark.parametrize("config", LSO_CONFIGS, ids=["paper", "tight"])
    def test_forecast_parity_on_synthetic_trace(self, name, harden, config):
        factory = bare(name)
        replay = oracle.ReplayLso(factory, config, harden=harden)
        streaming = LsoPredictor(factory, config, harden=harden)
        for value in synthetic_trace():
            replay.update(value)
            streaming.update(value)
            assert replay.ready == streaming.ready
            if replay.ready:
                assert streaming.forecast() == replay.forecast()
        assert streaming.clean_history == replay.clean_history
        assert streaming.n_level_shifts == replay.n_level_shifts
        assert streaming.n_outliers == replay.n_outliers
        assert streaming.n_observed == replay.n_observed

    def test_detects_same_shifts_and_outliers(self):
        streaming = LsoPredictor(bare("ma10"))
        for value in synthetic_trace():
            streaming.update(value)
        assert streaming.n_level_shifts >= 2
        assert streaming.n_outliers >= 3

    def test_rejects_non_positive_with_data_error(self):
        streaming = LsoPredictor(bare("last"))
        streaming.update(10.0)
        with pytest.raises(DataError):
            streaming.update(0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_with_data_error(self, bad):
        streaming = LsoPredictor(bare("last"))
        streaming.update(10.0)
        with pytest.raises(DataError, match="finite"):
            streaming.update(bad)
        assert streaming.clean_history == (10.0,)
        assert streaming.n_observed == 1

    def test_reset(self):
        streaming = LsoPredictor(bare("ma5"))
        for value in synthetic_trace(n=20):
            streaming.update(value)
        streaming.reset()
        assert streaming.n_observed == 0
        assert not streaming.ready
        assert streaming.clean_history == ()


class TestEvaluateParity:
    """ingest() and evaluate_predictor reproduce the oracle on campaign traces."""

    @pytest.mark.parametrize("name", sorted(SERVE_PREDICTORS))
    @pytest.mark.parametrize("lso", [True, False], ids=["lso", "bare"])
    def test_campaign_trace_parity(self, campaign_traces, name, lso):
        spec = SERVE_PREDICTORS[name] if lso else bare(name)
        for path_id, values in campaign_traces.items():
            expected_predictions = evaluate_offline(values, spec)
            shipped = evaluate_predictor(TimeSeries.from_values(values), spec)
            assert shipped.predictions.tobytes() == expected_predictions.tobytes()
            state = StreamingPredictorState(spec)
            for i, value in enumerate(values):
                prediction = state.prediction()
                expected = expected_predictions[i]
                if prediction is None:
                    assert math.isnan(expected), (path_id, i)
                else:
                    assert prediction == expected, (path_id, i)
                state.ingest(value)

    def test_ingest_returns_next_prediction(self, campaign_traces):
        spec = SERVE_PREDICTORS["ewma"]
        state = StreamingPredictorState(spec)
        values = next(iter(campaign_traces.values()))
        for value in values:
            returned = state.ingest(value)
            assert returned == state.prediction()

    @pytest.mark.parametrize("config", LSO_CONFIGS[1:], ids=["tight"])
    def test_non_default_thresholds_parity(self, campaign_traces, config):
        spec = replace(SERVE_PREDICTORS["hw"], lso=config)
        values = next(iter(campaign_traces.values()))
        expected = evaluate_offline(values, spec)
        state = StreamingPredictorState(spec)
        for i, value in enumerate(values):
            prediction = state.prediction()
            if prediction is not None:
                assert prediction == expected[i]
            state.ingest(value)


def evaluate_offline(values, spec):
    """The oracle's walk over the spec's reference predictor."""
    predictions, _ = oracle.walk(values, oracle.replay_factory(spec)())
    return predictions


class TestSnapshotRestore:
    """snapshot() -> JSON -> restore() is bit-exact and future-proof."""

    @pytest.mark.parametrize("name", sorted(SERVE_PREDICTORS))
    def test_round_trip_mid_trace(self, name):
        values = synthetic_trace()
        state = StreamingPredictorState(SERVE_PREDICTORS[name])
        for value in values[:100]:
            state.ingest(value)
        document = json.loads(json.dumps(state.snapshot()))
        restored = StreamingPredictorState.restore(document)
        assert restored.prediction() == state.prediction()
        # The restored state must keep agreeing as the trace continues.
        for value in values[100:]:
            assert restored.ingest(value) == state.ingest(value)
        assert restored.n_invalid == state.n_invalid
        assert restored.snapshot() == state.snapshot()

    def test_round_trip_without_lso(self):
        state = StreamingPredictorState(bare("hw"))
        for value in synthetic_trace(n=30):
            state.ingest(value)
        restored = StreamingPredictorState.restore(
            json.loads(json.dumps(state.snapshot()))
        )
        assert restored.prediction() == state.prediction()

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("history", [10.0, 0.0, 11.0], "sample 1"),
            ("history", [10.0, 11.0, -2.5], "sample 2"),
            ("history", [float("nan"), 10.0], "sample 0"),
            ("history", [10.0, float("inf")], "sample 1"),
            ("history", [10.0, "x"], "malformed"),
            ("count", -1, "count"),
            ("count", 1, "count 1 is below"),
            ("n_outliers", -3, "n_outliers"),
            ("n_level_shifts", None, "malformed"),
        ],
    )
    def test_restore_rejects_state_ingest_would_refuse(self, field, value, match):
        """Regression: a restored 0.0 sample used to surface later as a
        bare ValueError on ingest, and a NaN as NaN forecasts."""
        state = StreamingPredictorState(SERVE_PREDICTORS["ma5"])
        for value_in in [10.0, 10.5, 9.8]:
            state.ingest(value_in)
        document = json.loads(json.dumps(state.snapshot()))
        document["state"][field] = value
        with pytest.raises(DataError, match=match):
            StreamingPredictorState.restore(document)

    def test_malformed_snapshot_raises_data_error(self):
        with pytest.raises(DataError):
            StreamingPredictorState.restore({"spec": {"predictor": "ma10"}})
        with pytest.raises(DataError):
            StreamingPredictorState.restore({"state": {}})


class TestInvalidSamples:
    """Regression: a zero/outage epoch must be flagged, never raised."""

    @pytest.mark.parametrize("bad", [0.0, -3.5, float("nan"), float("inf")])
    def test_invalid_sample_flagged_not_raised(self, bad):
        state = StreamingPredictorState(SERVE_PREDICTORS["ma5"])
        for value in [10.0, 10.5, 9.8, 10.1, 10.3]:
            state.ingest(value)
        before = state.prediction()
        assert state.ingest(bad) == before
        assert state.n_invalid == 1
        assert state.n_observed == 5
        # The stream keeps absorbing valid samples afterwards.
        state.ingest(10.2)
        assert state.n_observed == 6

    def test_zero_epoch_mid_stream_regression(self):
        """The exact failure this PR hardens: a zero throughput sample
        arriving mid-stream used to escape as a bare ValueError from
        relative_difference; the service layer must absorb it."""
        state = StreamingPredictorState(SERVE_PREDICTORS["ma10"])
        for value in [12.0, 11.5, 12.3, 0.0, 11.8, 12.1]:
            state.ingest(value)
        assert state.n_invalid == 1
        assert state.prediction() is not None


class TestSpecFromV1:
    """A version-1 snapshot's spec is read through the name table."""

    @pytest.mark.parametrize("name", sorted(SERVE_PREDICTORS))
    def test_served_names_read_as_the_served_specs(self, name):
        doc = {
            "predictor": name,
            "lso": True,
            "harden": True,
            "level_shift_threshold": 0.3,
            "outlier_threshold": 0.4,
        }
        assert spec_from_v1(doc) == SERVE_PREDICTORS[name]

    def test_thresholds_harden_and_bare(self):
        doc = {
            "predictor": "hw",
            "lso": True,
            "harden": False,
            "level_shift_threshold": 0.2,
            "outlier_threshold": 0.3,
        }
        tight = replace(SERVE_PREDICTORS["hw"], lso=LSO_CONFIGS[1], harden=False)
        assert spec_from_v1(doc) == tight
        assert spec_from_v1({**doc, "predictor": "ewma", "lso": False}) == bare("ewma")

    @pytest.mark.parametrize(
        "doc",
        [
            {"lso": True},
            {"predictor": "nope"},
            {"predictor": "ma10", "outlier_threshold": "x"},
            {"predictor": "ma10", "outlier_threshold": 0.0},
            {"predictor": "ma10", "level_shift_threshold": 10**400},
            ["ma10"],
            "ma10",
            None,
        ],
    )
    def test_malformed_is_a_data_error(self, doc):
        with pytest.raises(DataError):
            spec_from_v1(doc)


class TestStandingForecast:
    """A state forecasts once per accepted sample and at restore."""

    @pytest.fixture
    def forecasts(self, monkeypatch):
        calls = []
        forecast = LsoPredictor.forecast

        def counting_forecast(wrapper):
            calls.append(wrapper.name)
            return forecast(wrapper)

        monkeypatch.setattr(LsoPredictor, "forecast", counting_forecast)
        return calls

    def test_prediction_reads_the_standing_forecast(self, forecasts):
        state = StreamingPredictorState(SERVE_PREDICTORS["hw"])
        ready_after = 0
        for value in synthetic_trace(n=40) + [0.0, math.nan]:
            state.ingest(value)
            ready_after += state.ready and math.isfinite(value) and value > 0
            state.prediction()
            state.prediction()
        assert len(forecasts) == ready_after
        forecasts.clear()
        restored = StreamingPredictorState.restore(
            json.loads(json.dumps(state.snapshot()))
        )
        assert len(forecasts) == 1
        assert restored.prediction() == state.prediction()
        assert len(forecasts) == 1

    def test_a_standalone_state_is_a_group_of_one(self):
        """Its wrapper follows the state's own kernel group, so only the
        state feeds it: the wrapper cannot update itself."""
        state = StreamingPredictorState(SERVE_PREDICTORS["ma10"])
        state.ingest(40.0)
        with pytest.raises(ValueError, match="kernel group"):
            state._predictor.update(41.0)
        assert state.n_observed == 1
