"""Transactional batch updates (``HistoryPredictor.update_many``).

Regression suite for the partial-batch bug: a batch failing mid-way
used to leave the predictor holding the prefix of the batch, silently
skewing every later forecast.  The batch API is now copy-validate-
commit: all-or-nothing, with the failing index named.
"""

import numpy as np
import pytest

from repro.core.errors import DataError
from repro.hb.ewma import Ewma
from repro.hb.holt_winters import HoltWinters
from repro.hb.lso import LsoConfig
from repro.hb.moving_average import MovingAverage
from repro.hb.streaming import PredictorSpec
from repro.hb.wrappers import LsoPredictor
from tests.hb import oracle

PREDICTOR_FACTORIES = {
    "ma": lambda: MovingAverage(3),
    "ewma": lambda: Ewma(0.5),
    "hw": lambda: HoltWinters(0.8, 0.2),
    "lso": lambda: LsoPredictor(lambda: MovingAverage(3)),
    # The LSO predictor as repro-serve builds it.
    "streaming-lso": PredictorSpec(predictor="ma5").build,
}


@pytest.mark.parametrize("kind", sorted(PREDICTOR_FACTORIES))
class TestTransactionalBatches:
    def test_good_batch_applies(self, kind):
        predictor = PREDICTOR_FACTORIES[kind]()
        predictor.update_many([10.0, 11.0, 10.5])
        assert predictor.n_observed == 3

    def test_failure_names_the_index(self, kind):
        # A non-numeric sample fails every predictor at float(); the
        # LSO wrappers additionally reject it at their domain boundary.
        predictor = PREDICTOR_FACTORIES[kind]()
        with pytest.raises(DataError, match="index 2"):
            predictor.update_many([10.0, 11.0, "bogus", 10.5])

    def test_failed_batch_leaves_state_untouched(self, kind):
        predictor = PREDICTOR_FACTORIES[kind]()
        predictor.update_many([10.0, 11.0, 10.5])
        forecast_before = predictor.forecast()
        with pytest.raises(DataError):
            predictor.update_many([9.9, 10.2, "bogus"])
        assert predictor.n_observed == 3
        assert predictor.forecast() == forecast_before
        # And the predictor still accepts a repaired batch afterwards.
        predictor.update_many([9.9, 10.2, 10.1])
        assert predictor.n_observed == 6

    def test_raising_iterable_leaves_state_untouched(self, kind):
        predictor = PREDICTOR_FACTORIES[kind]()
        predictor.update_many([10.0, 11.0, 10.5])

        def exploding():
            yield 9.7
            raise RuntimeError("source went away")

        with pytest.raises(RuntimeError):
            predictor.update_many(exploding())
        assert predictor.n_observed == 3

    def test_empty_batch_is_a_no_op(self, kind):
        predictor = PREDICTOR_FACTORIES[kind]()
        predictor.update_many([])
        assert predictor.n_observed == 0


@pytest.mark.parametrize("kind", ["lso", "streaming-lso"])
class TestLsoDomainBatches:
    """The LSO wrapper also fails batches on non-positive throughputs."""

    def test_non_positive_sample_rolls_back(self, kind):
        predictor = PREDICTOR_FACTORIES[kind]()
        predictor.update_many([10.0, 11.0, 10.5])
        with pytest.raises(DataError, match="index 1"):
            predictor.update_many([9.9, -1.0, 10.2])
        assert predictor.n_observed == 3
        assert predictor.clean_history == (10.0, 11.0, 10.5)


@pytest.mark.parametrize("harden", [True, False])
@pytest.mark.parametrize("config", [None, LsoConfig(0.2, 0.3)], ids=["paper", "tight"])
def test_batches_match_oracle_replay(config, harden):
    """Batched ingest lands on the oracle's state, sample-for-sample fed."""
    rng = np.random.default_rng(5)
    values = 40.0 + rng.normal(0.0, 3.0, 120)
    values[40:] *= 1.8
    values[::17] *= 2.5
    predictor = LsoPredictor(lambda: HoltWinters(0.8, 0.2), config, harden)
    replay = oracle.ReplayLso(lambda: HoltWinters(0.8, 0.2), config, harden)
    for start in range(0, len(values), 7):
        batch = values[start : start + 7].tolist()
        predictor.update_many(batch)
        for value in batch:
            replay.update(value)
        assert predictor.clean_history == replay.clean_history
        assert predictor.forecast() == replay.forecast()
    assert predictor.n_outliers == replay.n_outliers
    assert predictor.n_level_shifts == replay.n_level_shifts
