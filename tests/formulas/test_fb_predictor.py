"""The combined FB predictor (paper Eq. (3))."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError, PredictionError, ReproError
from repro.formulas.fb_predictor import (
    MODEL_VARIANTS,
    FormulaBasedPredictor,
    estimate_rto,
)
from repro.formulas.params import PathEstimates, TcpParameters
from repro.formulas.pftk import pftk_throughput
from tests.faults import telemetry  # noqa: F401


class TestEstimateRto:
    def test_floor_at_one_second(self):
        assert estimate_rto(0.05) == 1.0

    def test_twice_srtt_above_floor(self):
        assert estimate_rto(0.8) == pytest.approx(1.6)

    def test_rejects_bad_rtt(self):
        with pytest.raises(ValueError):
            estimate_rto(0.0)


class TestPathEstimates:
    def test_lossless_flag(self):
        assert PathEstimates(rtt_s=0.1, loss_rate=0.0, availbw_mbps=5.0).lossless
        assert not PathEstimates(rtt_s=0.1, loss_rate=0.01).lossless

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PathEstimates(rtt_s=0.0, loss_rate=0.0)
        with pytest.raises(ConfigurationError):
            PathEstimates(rtt_s=0.1, loss_rate=1.0)
        with pytest.raises(ConfigurationError):
            PathEstimates(rtt_s=0.1, loss_rate=0.0, availbw_mbps=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rtt_and_availbw_rejected(self, bad):
        """Regression: a NaN estimate passed every ``<= 0`` check, and a
        lossless epoch with NaN avail-bw silently predicted W/T."""
        with pytest.raises(ConfigurationError, match="rtt_s must be positive and finite"):
            PathEstimates(rtt_s=bad, loss_rate=0.01)
        with pytest.raises(ConfigurationError, match="availbw_mbps must be positive"):
            PathEstimates(rtt_s=0.1, loss_rate=0.0, availbw_mbps=bad)


class TestTcpParameters:
    def test_paper_presets(self):
        assert TcpParameters.congestion_limited().max_window_bytes == 1_000_000
        assert TcpParameters.window_limited().max_window_bytes == 20_000

    def test_window_segments(self):
        tcp = TcpParameters(mss_bytes=1000, max_window_bytes=20_000)
        assert tcp.max_window_segments == 20.0

    def test_window_smaller_than_mss_rejected(self):
        with pytest.raises(ConfigurationError):
            TcpParameters(mss_bytes=1460, max_window_bytes=1000)


class TestFbPredictor:
    def test_lossy_path_uses_pftk(self):
        fb = FormulaBasedPredictor()
        estimates = PathEstimates(rtt_s=0.1, loss_rate=0.01)
        expected = pftk_throughput(0.1, 0.01, estimate_rto(0.1), fb.tcp)
        assert fb.predict(estimates) == pytest.approx(expected)

    def test_lossless_path_uses_availbw(self):
        fb = FormulaBasedPredictor()
        estimates = PathEstimates(rtt_s=0.1, loss_rate=0.0, availbw_mbps=7.0)
        assert fb.predict(estimates) == 7.0

    def test_lossless_without_availbw_rejected(self):
        fb = FormulaBasedPredictor()
        with pytest.raises(PredictionError):
            fb.predict(PathEstimates(rtt_s=0.1, loss_rate=0.0))

    def test_window_cap_on_lossless(self):
        fb = FormulaBasedPredictor(tcp=TcpParameters.window_limited())
        estimates = PathEstimates(rtt_s=0.05, loss_rate=0.0, availbw_mbps=50.0)
        assert fb.predict(estimates) == pytest.approx(3.2)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            FormulaBasedPredictor(model="nonsense")

    @pytest.mark.parametrize("model", sorted(MODEL_VARIANTS))
    def test_all_variants_predict_positive(self, model):
        fb = FormulaBasedPredictor(model=model)
        assert fb.predict_from(rtt_s=0.1, loss_rate=0.01) > 0

    def test_predict_from_convenience(self):
        fb = FormulaBasedPredictor()
        direct = fb.predict(PathEstimates(rtt_s=0.1, loss_rate=0.02))
        assert fb.predict_from(0.1, 0.02) == direct

    @given(
        st.floats(min_value=5e-3, max_value=0.5),
        st.floats(min_value=1e-5, max_value=0.2),
    )
    @settings(max_examples=50)
    def test_never_exceeds_window_limit(self, rtt, loss):
        tcp = TcpParameters.congestion_limited()
        fb = FormulaBasedPredictor(tcp=tcp)
        limit = tcp.max_window_bytes * 8 / rtt / 1e6
        assert fb.predict_from(rtt, loss) <= limit * 1.0001

    def test_mathis_variant_respects_window(self):
        fb = FormulaBasedPredictor(
            tcp=TcpParameters(max_window_bytes=20_000), model="mathis"
        )
        limit = 20_000 * 8 / 0.1 / 1e6
        assert fb.predict_from(0.1, 1e-6) <= limit * 1.0001


#: One row of a priori estimates, ``(rtt_s, loss_rate, availbw_mbps)``.
ROWS = st.tuples(
    st.floats(min_value=1e-3, max_value=2.0),
    st.one_of(st.just(0.0), st.floats(min_value=1e-7, max_value=0.49)),
    st.floats(min_value=1e-2, max_value=1e4),
)

#: Rows each check of :class:`PathEstimates` rejects.
INVALID_ROWS = [
    (0.0, 0.01, 5.0),
    (-0.1, 0.01, 5.0),
    (math.nan, 0.01, 5.0),
    (math.inf, 0.0, 5.0),
    (0.1, -0.01, 5.0),
    (0.1, 1.0, 5.0),
    (0.1, math.nan, 5.0),
    (0.1, 0.0, 0.0),
    (0.1, 0.01, -1.0),
    (0.1, 0.0, math.nan),
    (0.1, 0.01, math.inf),
]

WINDOWS = {
    "1MB": TcpParameters.congestion_limited(),
    "20KB": TcpParameters.window_limited(),
}


def columns(rows):
    """``rows`` as the three float64 arrays ``predict_many`` takes."""
    return tuple(np.array([row[i] for row in rows], dtype=np.float64) for i in range(3))


class TestPredictMany:
    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("model", sorted(MODEL_VARIANTS))
    @given(rows=st.lists(ROWS, max_size=30))
    # Lossless rows below and above W/T, lossy rows whose model exceeds
    # W/T (tiny p), p^ = 0.49, and RTTs either side of T0 = max(1, 2T).
    @example(rows=[(0.01, 0.0, 5.0), (0.01, 0.0, 5000.0), (0.3, 1e-7, 1.0)])
    @example(rows=[(0.2, 0.49, 1.0), (0.4999, 0.02, 1.0), (1.5, 0.02, 1.0)])
    @settings(max_examples=60, deadline=None)
    def test_equals_scalar_bit_for_bit(self, model, window, rows):
        fb = FormulaBasedPredictor(tcp=WINDOWS[window], model=model)
        scalar = np.array(
            [fb.predict(PathEstimates(*row)) for row in rows], dtype=np.float64
        )
        assert fb.predict_many(*columns(rows)).tobytes() == scalar.tobytes()

    @given(
        rows=st.lists(ROWS, max_size=10),
        bad=st.sampled_from(INVALID_ROWS),
        at=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_invalid_row_raises_the_scalar_error_type(self, rows, bad, at):
        rows = rows[:at] + [bad] + rows[at:]
        fb = FormulaBasedPredictor()
        with pytest.raises(ReproError) as scalar:
            for row in rows:
                fb.predict(PathEstimates(*row))
        with pytest.raises(scalar.type):
            fb.predict_many(*columns(rows))

    def test_invalid_row_named_and_nothing_counted(self, telemetry):
        fb = FormulaBasedPredictor()
        with pytest.raises(ConfigurationError, match=r"availbw_mbps .* got nan at row 1"):
            fb.predict_many(*columns([(0.1, 0.0, 5.0), (0.1, 0.01, math.nan)]))
        assert telemetry.drain()["counters"] == []

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ConfigurationError, match="equal-length"):
            FormulaBasedPredictor().predict_many([0.1, 0.2], [0.0], [5.0])

    @pytest.mark.parametrize("model", sorted(MODEL_VARIANTS))
    def test_model_selected_counts_rows(self, telemetry, model):
        rows = [(0.1, 0.0, 5.0), (0.2, 0.01, 5.0), (0.3, 0.02, 5.0)]
        fb = FormulaBasedPredictor(model=model)
        for row in rows:
            fb.predict(PathEstimates(*row))
        scalar = telemetry.drain()["counters"]
        fb.predict_many(*columns(rows))
        assert telemetry.drain()["counters"] == scalar == [
            {"name": "fb.model_selected", "tags": {"model": "availbw"}, "value": 1},
            {"name": "fb.model_selected", "tags": {"model": model}, "value": 2},
        ]
