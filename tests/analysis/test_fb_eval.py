"""FB evaluation computations (Figs. 2-14)."""

import dataclasses

import numpy as np
import pytest

from repro.analysis import fb_eval, hb_eval
from repro.core.errors import ReproError
from repro.formulas.fb_predictor import MODEL_VARIANTS, FormulaBasedPredictor
from repro.formulas.params import TcpParameters
from tests.analysis import fb_oracle


class TestEvaluate:
    def test_one_result_per_epoch(self, dataset):
        results = fb_eval.evaluate(dataset)
        assert len(results) == len(dataset.epochs())

    def test_lossy_classification(self, dataset):
        for result in fb_eval.evaluate(dataset):
            assert result.lossy == (result.epoch.phat > 0)

    def test_predictions_positive(self, dataset):
        assert all(r.predicted_mbps > 0 for r in fb_eval.evaluate(dataset))


class TestErrorCdfs:
    def test_partition(self, dataset):
        cdfs = fb_eval.error_cdfs(dataset)
        assert len(cdfs.lossy) + len(cdfs.lossless) == len(cdfs.all)

    def test_lossy_worse_than_lossless(self, dataset):
        cdfs = fb_eval.error_cdfs(dataset)
        assert cdfs.lossy.quantile(0.9) > cdfs.lossless.quantile(0.9)

    def test_summary_renders(self, dataset):
        assert "overestimation" in fb_eval.error_cdfs(dataset).summary()


class TestIncreases:
    def test_loss_ratio_above_one(self, dataset):
        inc = fb_eval.increase_cdfs(dataset)
        assert inc.mean_loss_ratio > 1.5

    def test_rtt_ratio_moderate(self, dataset):
        inc = fb_eval.increase_cdfs(dataset)
        assert 1.0 < inc.mean_rtt_ratio < 3.0


class TestDuringFlow:
    def test_during_flow_inputs_reduce_error(self, dataset):
        comp = fb_eval.during_flow_prediction(dataset)
        prior_med = np.median(np.abs(comp.with_prior.sorted_values))
        during_med = np.median(np.abs(comp.with_during.sorted_values))
        assert during_med < prior_med

    def test_during_flow_more_symmetric(self, dataset):
        comp = fb_eval.during_flow_prediction(dataset)
        prior_over = comp.with_prior.fraction_above(0.0)
        during_over = comp.with_during.fraction_above(0.0)
        assert abs(during_over - 0.5) < abs(prior_over - 0.5)


class TestPerPath:
    def test_one_summary_per_path(self, dataset):
        summaries = fb_eval.per_path_percentiles(dataset)
        assert len(summaries) == len(dataset.path_ids)

    def test_percentiles_ordered(self, dataset):
        for s in fb_eval.per_path_percentiles(dataset):
            assert s.p10 <= s.median <= s.p90


class TestScatters:
    def test_low_throughput_concentrates_large_errors(self, dataset):
        scatter = fb_eval.throughput_vs_error(dataset)
        low = scatter.fraction_large_error(0.5, error_threshold=5.0)
        high = scatter.fraction_large_error(0.5, error_threshold=5.0, below=False)
        assert low > high

    def test_loss_error_correlation_weak(self, dataset):
        assert abs(fb_eval.loss_vs_error(dataset).correlation()) < 0.4

    def test_rtt_error_correlation_weak(self, dataset):
        assert abs(fb_eval.rtt_vs_error(dataset).correlation()) < 0.4


class TestDurationEffect:
    def test_requires_checkpoints(self, dataset):
        with pytest.raises(Exception):
            fb_eval.duration_effect(dataset)

    def test_no_strong_duration_trend(self, dataset_2006):
        effect = fb_eval.duration_effect(dataset_2006)
        medians = [cdf.median() for cdf in effect.cdfs.values()]
        # Medians of the three cuts stay in the same ballpark.
        assert max(medians) - min(medians) < 1.0


class TestWindowLimited:
    def test_window_limited_paths_more_accurate(self, dataset):
        comparisons = fb_eval.window_limited(dataset)
        limited = [c for c in comparisons if c.window_limited]
        assert limited
        better = sum(
            c.rmsre_small_window < c.rmsre_large_window for c in limited
        )
        assert better / len(limited) > 0.8

    def test_ratio_computed(self, dataset):
        for c in fb_eval.window_limited(dataset):
            assert c.window_availbw_ratio > 0


class TestModelVariants:
    def test_revised_model_close_to_original(self, dataset):
        cdfs = fb_eval.revised_model_comparison(dataset)
        original = cdfs["original PFTK"]
        revised = cdfs["revised PFTK"]
        # Fig. 13: the difference between the two CDFs is negligible.
        for q in (0.25, 0.5, 0.75):
            assert revised.quantile(q) == pytest.approx(
                original.quantile(q), abs=0.5
            )

    def test_smoothed_inputs_similar(self, dataset):
        cdfs = fb_eval.smoothed_inputs(dataset)
        # Fig. 14: MA-smoothing the inputs changes little.
        assert cdfs["smoothed"].median() == pytest.approx(
            cdfs["plain"].median(), abs=0.5
        )

    def test_custom_predictor_accepted(self, dataset):
        fb = FormulaBasedPredictor(
            tcp=TcpParameters.congestion_limited(), model="mathis"
        )
        results = fb_eval.evaluate(dataset, fb)
        assert len(results) == len(dataset.epochs())


class TestWorstPaths:
    def test_worst_paths_more_often_lossy(self, dataset):
        """Section 4.2.4: the worst paths' predictions are
        disproportionately PFTK-based (the path was congested before)."""
        analysis = fb_eval.worst_paths_analysis(dataset)
        assert analysis.lossy_fraction_worst > analysis.lossy_fraction_all

    def test_loss_not_rtt_rises_on_worst_paths(self, dataset):
        analysis = fb_eval.worst_paths_analysis(dataset)
        assert analysis.mean_loss_ratio_worst > 2.0
        assert analysis.mean_rtt_ratio_worst < 2.5

    def test_requested_count_respected(self, dataset):
        analysis = fb_eval.worst_paths_analysis(dataset, n_worst=5)
        assert len(analysis.worst_path_ids) == 5

    def test_too_few_paths_rejected(self, dataset):
        with pytest.raises(Exception):
            fb_eval.worst_paths_analysis(dataset, n_worst=1000)

    def test_summary_renders(self, dataset):
        assert "worst paths" in fb_eval.worst_paths_analysis(dataset).summary()


# ----------------------------------------------------------------------
# Bit parity with the per-epoch oracle (tests/analysis/fb_oracle.py)
# ----------------------------------------------------------------------

#: The paper's default predictor (None) and every model at W = 1 MB and
#: W = 20 KB.
PREDICTORS = {"default": None} | {
    f"{model}-{window}": FormulaBasedPredictor(tcp=tcp, model=model)
    for model in sorted(MODEL_VARIANTS)
    for window, tcp in (
        ("1MB", TcpParameters.congestion_limited()),
        ("20KB", TcpParameters.window_limited()),
    )
}

#: Public figure functions taking a ``predictor=``.
PREDICTOR_FUNCTIONS = (
    "evaluate",
    "error_cdfs",
    "during_flow_prediction",
    "per_path_percentiles",
    "rmsre_per_trace",
    "throughput_vs_error",
    "loss_vs_error",
    "rtt_vs_error",
    "worst_paths_analysis",
    "duration_effect",
)

#: Public figure functions of the dataset alone.
DATASET_FUNCTIONS = (
    "increase_cdfs",
    "window_limited",
    "revised_model_comparison",
    "smoothed_inputs",
)


def assert_identical(shipped, reference, where="result"):
    """Equal type and bytes all the way down: arrays by ``tobytes()``,
    dataclasses field by field, floats by their bits."""
    assert type(shipped) is type(reference), where
    if isinstance(shipped, np.ndarray):
        assert shipped.dtype == reference.dtype, where
        assert shipped.shape == reference.shape, where
        assert shipped.tobytes() == reference.tobytes(), where
    elif dataclasses.is_dataclass(shipped):
        for f in dataclasses.fields(shipped):
            assert_identical(
                getattr(shipped, f.name), getattr(reference, f.name), f"{where}.{f.name}"
            )
    elif isinstance(shipped, dict):
        assert list(shipped) == list(reference), where
        for key in shipped:
            assert_identical(shipped[key], reference[key], f"{where}[{key!r}]")
    elif isinstance(shipped, (list, tuple)):
        assert len(shipped) == len(reference), where
        for i, (a, b) in enumerate(zip(shipped, reference)):
            assert_identical(a, b, f"{where}[{i}]")
    elif isinstance(shipped, float):
        assert shipped.hex() == reference.hex(), where
    else:
        assert shipped == reference, where


def outcome(function, *args, **kwargs):
    """The result, or the type and message of the error it raised."""
    try:
        return function(*args, **kwargs)
    except ReproError as exc:
        return type(exc), str(exc)


@pytest.fixture(params=["dataset", "dataset_2006"])
def any_dataset(request):
    return request.getfixturevalue(request.param)


class TestOracleParity:
    @pytest.mark.parametrize("predictor", PREDICTORS.values(), ids=list(PREDICTORS))
    @pytest.mark.parametrize("name", PREDICTOR_FUNCTIONS)
    def test_predictor_functions(self, dataset_2006, name, predictor):
        assert_identical(
            outcome(getattr(fb_eval, name), dataset_2006, predictor=predictor),
            outcome(getattr(fb_oracle, name), dataset_2006, predictor=predictor),
        )

    @pytest.mark.parametrize(
        "predictor",
        [PREDICTORS["default"], PREDICTORS["pftk-20KB"]],
        ids=["default", "pftk-20KB"],
    )
    @pytest.mark.parametrize("name", PREDICTOR_FUNCTIONS)
    def test_predictor_functions_at_scale(self, dataset, name, predictor):
        assert_identical(
            outcome(getattr(fb_eval, name), dataset, predictor=predictor),
            outcome(getattr(fb_oracle, name), dataset, predictor=predictor),
        )

    @pytest.mark.parametrize("predictor", PREDICTORS.values(), ids=list(PREDICTORS))
    def test_every_model_at_scale(self, dataset, predictor):
        assert_identical(
            fb_eval.evaluate(dataset, predictor), fb_oracle.evaluate(dataset, predictor)
        )

    @pytest.mark.parametrize("name", DATASET_FUNCTIONS)
    def test_dataset_functions(self, any_dataset, name):
        assert_identical(
            outcome(getattr(fb_eval, name), any_dataset),
            outcome(getattr(fb_oracle, name), any_dataset),
        )

    def test_window_limited_small_window(self, dataset):
        tcp = TcpParameters.window_limited()
        assert_identical(
            fb_eval.window_limited(dataset, large_tcp=tcp, small_tcp=tcp),
            fb_oracle.window_limited(dataset, large_tcp=tcp, small_tcp=tcp),
        )

    def test_fb_vs_hb(self, any_dataset):
        assert_identical(hb_eval.fb_vs_hb(any_dataset), fb_oracle.fb_vs_hb(any_dataset))
