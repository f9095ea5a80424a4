"""Level-shift and outlier detection (paper Section 5.2)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DataError
from repro.hb.evaluate import lso_segmentation
from repro.hb.lso import (
    LsoConfig,
    LsoKernel,
    detect_level_shift,
    detect_outliers,
    relative_difference,
)
from tests.hb import oracle


class TestRelativeDifference:
    def test_symmetric(self):
        assert relative_difference(2.0, 4.0) == relative_difference(4.0, 2.0) == 1.0

    def test_zero_for_equal(self):
        assert relative_difference(3.0, 3.0) == 0.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            relative_difference(0.0, 1.0)


class TestOutlierDetection:
    def test_isolated_spike_flagged(self):
        history = [10.0, 10.5, 30.0, 9.8, 10.2]
        assert detect_outliers(history) == [2]

    def test_isolated_dip_flagged(self):
        history = [10.0, 10.5, 2.0, 9.8, 10.2]
        assert detect_outliers(history) == [2]

    def test_last_sample_never_flagged(self):
        """The newest sample may be the start of a level shift."""
        history = [10.0, 10.5, 9.8, 30.0]
        assert detect_outliers(history) == []

    def test_run_toward_end_protected(self):
        """Consecutive same-direction deviations are a shift candidate."""
        history = [10.0, 10.5, 9.8, 30.0, 31.0]
        assert detect_outliers(history) == []

    def test_opposite_direction_deviations_both_flagged(self):
        history = [10.0, 10.2, 30.0, 2.0, 10.1, 9.9]
        assert set(detect_outliers(history)) == {2, 3}

    def test_clean_history_no_outliers(self):
        assert detect_outliers([10.0, 10.4, 9.7, 10.2, 9.9]) == []

    def test_threshold_respected(self):
        history = [10.0, 13.0, 10.0, 10.0]  # 30% off median
        strict = LsoConfig(outlier_threshold=0.25)
        lax = LsoConfig(outlier_threshold=0.5)
        assert detect_outliers(history, strict) == [1]
        assert detect_outliers(history, lax) == []

    def test_short_history(self):
        assert detect_outliers([10.0]) == []

    def test_non_positive_rejected(self):
        with pytest.raises(DataError):
            detect_outliers([1.0, -1.0, 1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DataError, match="sample 2"):
            detect_outliers([1.0, 1.0, bad, 1.0])
        with pytest.raises(DataError, match="sample 2"):
            detect_level_shift([10.0, 10.0, bad, 20.0, 20.0, 20.0])

    def test_zero_epoch_rejected_as_data_error(self):
        # Regression: a zero-throughput (outage) epoch used to escape as a
        # bare ValueError from relative_difference deep inside detection.
        with pytest.raises(DataError):
            detect_outliers([10.0, 0.0, 10.0, 10.0])
        with pytest.raises(DataError):
            detect_level_shift([10.0, 10.0, 0.0, 20.0, 20.0, 20.0])


class TestLevelShiftDetection:
    def test_increasing_shift(self):
        history = [10.0, 10.5, 9.8, 20.0, 20.5, 19.8]
        assert detect_level_shift(history) == 3

    def test_decreasing_shift(self):
        history = [20.0, 20.5, 19.8, 10.0, 10.5, 9.8]
        assert detect_level_shift(history) == 3

    def test_small_shift_ignored(self):
        """Condition 2: medians must differ by more than chi."""
        history = [10.0, 10.2, 9.9, 11.0, 11.2, 11.1]
        assert detect_level_shift(history) is None

    def test_needs_three_post_shift_samples(self):
        """Condition 3: a fresh jump is not yet a shift."""
        history = [10.0, 10.2, 9.9, 20.0, 20.4]
        assert detect_level_shift(history) is None

    def test_needs_two_pre_shift_samples(self):
        """One odd first sample must not shred the history."""
        history = [8.0, 20.0, 20.4, 19.9, 20.2]
        assert detect_level_shift(history) is None

    def test_overlap_blocks_detection(self):
        """Condition 1: prefix and suffix must be fully separated."""
        history = [10.0, 21.0, 9.8, 20.0, 20.5, 19.8]
        assert detect_level_shift(history) is None

    def test_earliest_shift_returned(self):
        history = [10.0, 10.1, 20.0, 20.2, 20.1, 20.4, 20.3]
        assert detect_level_shift(history) == 2

    def test_short_history(self):
        assert detect_level_shift([10.0, 20.0, 20.1, 20.2]) is None

    def test_custom_threshold(self):
        history = [10.0, 10.1, 12.4, 12.6, 12.5, 12.3]
        lax = LsoConfig(level_shift_threshold=0.5)
        strict = LsoConfig(level_shift_threshold=0.1)
        assert detect_level_shift(history, lax) is None
        assert detect_level_shift(history, strict) == 2


class TestLsoConfig:
    def test_defaults_match_paper(self):
        config = LsoConfig()
        assert config.level_shift_threshold == 0.3
        assert config.outlier_threshold == 0.4

    def test_validation(self):
        with pytest.raises(ValueError):
            LsoConfig(level_shift_threshold=0.0)
        with pytest.raises(ValueError):
            LsoConfig(outlier_threshold=-0.1)


@given(
    st.lists(st.floats(min_value=9.0, max_value=11.0), min_size=5, max_size=40)
)
def test_no_shift_in_tight_band(values):
    """A series confined to +-10% of its level never triggers a shift."""
    assert detect_level_shift(values) is None


@given(
    st.lists(st.floats(min_value=9.0, max_value=11.0), min_size=2, max_size=20),
    st.lists(st.floats(min_value=29.0, max_value=31.0), min_size=3, max_size=20),
)
def test_clear_shift_always_detected(before, after):
    """A 3x jump with enough samples on both sides is always a shift."""
    assert detect_level_shift(before + after) == len(before)


# ---------------------------------------------------------------------
# The array detectors and the kernel against the oracle
# ---------------------------------------------------------------------


def _trace(seed, n=160):
    rng = np.random.default_rng(seed)
    values = 40.0 + rng.normal(0.0, 4.0, n)
    values[n // 3 :] *= 1.9
    values[2 * n // 3 :] *= 0.4
    values[::13] *= 2.7
    return (np.abs(values) + 0.5).tolist()


CONFIGS = [LsoConfig(), LsoConfig(0.2, 0.3), LsoConfig(0.5, 0.6)]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("config", CONFIGS, ids=["paper", "tight", "loose"])
def test_detectors_match_oracle_on_every_prefix(seed, config):
    values = _trace(seed)
    for n in range(1, len(values) + 1):
        history = values[:n]
        assert detect_outliers(history, config) == oracle.detect_outliers(
            history, config
        )
        assert detect_level_shift(history, config) == oracle.detect_level_shift(
            history, config
        )


@given(
    st.lists(
        st.one_of(
            st.floats(min_value=9.0, max_value=11.0),
            st.floats(min_value=0.5, max_value=40.0),
            st.sampled_from([10.0, 20.0]),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_detectors_match_oracle_on_random_histories(history):
    for config in CONFIGS:
        assert detect_outliers(history, config) == oracle.detect_outliers(
            history, config
        )
        assert detect_level_shift(history, config) == oracle.detect_level_shift(
            history, config
        )


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("config", CONFIGS, ids=["paper", "tight", "loose"])
def test_kernel_matches_oracle_rescan(seed, config):
    """Gating the detectors behind the prechecks skips no detection."""
    values = _trace(seed)
    kernel = LsoKernel(config)
    for value in values:
        kernel.add(value)
    outliers, shifts, segments = oracle.rescan_segmentation(values, config)
    assert kernel.n_outliers == len(outliers)
    assert kernel.n_level_shifts == len(shifts)
    assert tuple(kernel.history) == segments[-1]
    assert kernel.ordered == sorted(kernel.history)
    assert kernel.count == len(values)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(min_value=5.0, max_value=50.0), st.integers(1, 12)),
        min_size=1,
        max_size=6,
    ),
    st.lists(
        st.one_of(
            st.floats(min_value=0.9, max_value=1.1),
            st.floats(min_value=0.3, max_value=3.0),
        ),
        min_size=72,
        max_size=72,
    ),
    st.sampled_from(CONFIGS),
)
def test_segmentation_matches_oracle_on_random_traces(blocks, noise, config):
    """Level blocks with noise and spikes: the prechecks skip no detection."""
    levels = [level for level, length in blocks for _ in range(length)]
    values = [level * noise[i] for i, level in enumerate(levels)]
    shipped = lso_segmentation(values, config)
    outliers, shifts, segments = oracle.rescan_segmentation(values, config)
    assert shipped.outlier_indices == tuple(sorted(outliers))
    assert shipped.shift_indices == tuple(sorted(shifts))
    assert shipped.segments == tuple(segments)


def test_kernel_rejects_invalid_sample_unchanged():
    kernel = LsoKernel()
    kernel.add(10.0)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DataError):
            kernel.add(bad)
    assert kernel.history == [10.0]
    assert kernel.count == 1
