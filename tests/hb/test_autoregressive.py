"""The AR(p) extension predictor."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import PredictionError
from repro.hb.autoregressive import AutoRegressive


class TestAutoRegressive:
    def test_short_history_falls_back_to_mean(self):
        ar = AutoRegressive(order=3)
        ar.update_many([2.0, 4.0])
        assert ar.forecast() == 3.0

    def test_learns_a_constant_series(self):
        ar = AutoRegressive(order=2)
        ar.update_many([5.0] * 30)
        assert ar.forecast() == pytest.approx(5.0, rel=0.02)

    def test_learns_a_linear_trend(self):
        ar = AutoRegressive(order=2)
        series = [10.0 + 0.5 * i for i in range(40)]
        ar.update_many(series)
        assert ar.forecast() == pytest.approx(10.0 + 0.5 * 40, rel=0.05)

    def test_learns_alternation(self):
        """AR can capture oscillation, which MA/EWMA cannot."""
        ar = AutoRegressive(order=2)
        series = [10.0, 20.0] * 25
        ar.update_many(series)  # last value 20 -> next should be ~10
        assert ar.forecast() == pytest.approx(10.0, rel=0.15)

    def test_beats_moving_average_on_ar1_process(self):
        from repro.hb.moving_average import MovingAverage

        rng = np.random.default_rng(3)
        phi, values = 0.9, [10.0]
        for _ in range(200):
            values.append(10.0 + phi * (values[-1] - 10.0) + rng.normal(0, 0.5))
        ar, ma = AutoRegressive(order=2), MovingAverage(10)
        ar_errs, ma_errs = [], []
        for value in values:
            if ar.ready and ar.n_observed > 20:
                ar_errs.append(abs(ar.forecast() - value))
                ma_errs.append(abs(ma.forecast() - value))
            ar.update(value)
            ma.update(value)
        assert np.mean(ar_errs) < np.mean(ma_errs)

    def test_never_forecasts_non_positive(self):
        ar = AutoRegressive(order=2)
        ar.update_many([100.0, 50.0, 25.0, 12.0, 6.0, 3.0, 1.5, 0.7])
        assert ar.forecast() > 0

    def test_window_bounds_memory(self):
        ar = AutoRegressive(order=2, max_history=10)
        ar.update_many(range(1, 100))
        assert len(ar._history) == 10

    def test_not_ready_raises(self):
        with pytest.raises(PredictionError):
            AutoRegressive().forecast()

    def test_reset(self):
        ar = AutoRegressive()
        ar.update_many([1.0, 2.0])
        ar.reset()
        assert ar.n_observed == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AutoRegressive(order=0)
        with pytest.raises(ValueError):
            AutoRegressive(order=5, max_history=8)
        with pytest.raises(ValueError):
            AutoRegressive(ridge=-1.0)

    @given(st.lists(st.floats(min_value=0.1, max_value=100), min_size=1, max_size=60))
    def test_forecast_always_finite_positive(self, values):
        ar = AutoRegressive(order=3)
        ar.update_many(values)
        forecast = ar.forecast()
        assert np.isfinite(forecast) and forecast > 0

    @pytest.mark.parametrize("ridge", [0.0, 1e-300, 1e-20])
    def test_flat_history_without_ridge_forecasts_its_level(self, ridge):
        """Singular normal equations (the flat history makes the design's
        columns equal) fall back to the recent mean, not a LinAlgError."""
        ar = AutoRegressive(order=1, max_history=6, ridge=ridge)
        ar.update_many([5.0] * 12)
        assert ar.forecast() == 5.0

    @given(
        order=st.integers(1, 4),
        ridge=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        level=st.floats(0.01, 1e6),
        wobble=st.lists(st.integers(-3, 3), min_size=1, max_size=40),
        scale=st.sampled_from([0.0, 1e-15, 1e-9, 1e-4]),
    )
    def test_flat_or_near_flat_history_forecasts_finite_positive(
        self, order, ridge, level, wobble, scale
    ):
        """Any ridge >= 0 over a history that is flat, or flat but for
        steps of a few ulps to a few parts in 10^4."""
        ar = AutoRegressive(order=order, max_history=2 * order + 2 + 6, ridge=ridge)
        ar.update_many([level * (1.0 + scale * step) for step in wobble])
        forecast = ar.forecast()
        assert np.isfinite(forecast) and forecast > 0
