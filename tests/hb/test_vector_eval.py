"""Bit-parity of the HB analysis path against the reference oracle.

Every predictor family — plain and LSO-wrapped, at several LsoConfigs
and with ``harden`` on and off — is walked over a grid of traces (noisy,
spiky, level-shifted, tiny) by :func:`evaluate_predictor` and by the
oracle's per-epoch walk over its quadratic LSO replay
(``tests/hb/oracle.py``), and the per-epoch predictions and errors must
compare equal *as bytes*, not approximately.  The same bar applies to
``lso_segmentation`` against the oracle's re-scan, to the LSO telemetry
counters, and to evaluations served from the evaluation cache.
"""

import math

import numpy as np
import pytest

from repro.analysis.evalcache import (
    EvaluationCache,
    derive_spec,
    entry_key,
    evaluate_units,
    spec_factory,
)
from repro.analysis.hb_eval import unit
from repro.analysis.parallel import warm_eval_cache
from repro.core.errors import ConfigurationError, DataError
from repro.core.timeseries import TimeSeries
from repro.hb.autoregressive import AutoRegressive
from repro.hb.evaluate import HbEvaluation, evaluate_predictor, lso_segmentation
from repro.hb.ewma import Ewma
from repro.hb.holt_winters import HoltWinters
from repro.hb.lso import LsoConfig
from repro.hb.moving_average import MovingAverage
from repro.hb.wrappers import LsoPredictor
from repro.obs.telemetry import ENV_OBS, get_telemetry
from repro.paths.records import Dataset, Trace
from tests.hb import oracle

# ---------------------------------------------------------------------
# Trace grid
# ---------------------------------------------------------------------


def _noisy(seed: int, n: int, spikes: bool = False, shifts: bool = False):
    rng = np.random.default_rng(seed)
    values = 40.0 + rng.normal(0.0, 3.0, n)
    if shifts:
        values[n // 3 :] *= 1.8
        values[2 * n // 3 :] *= 0.45
    if spikes:
        values[::29] *= 2.6
    return np.abs(values) + 0.5


TRACES = {
    "noisy": _noisy(1, 240),
    "spiky": _noisy(2, 240, spikes=True),
    "shifted": _noisy(3, 240, shifts=True),
    "adversarial": _noisy(4, 300, spikes=True, shifts=True),
    "clean-shift": np.array([10.0] * 30 + [30.0] * 30),
    "tiny1": np.array([5.0]),
    "tiny2": np.array([5.0, 6.0]),
    "tiny4": np.array([5.0, 6.0, 4.0, 7.0]),
}

FACTORIES = {
    "1-MA": lambda: MovingAverage(1),
    "10-MA": lambda: MovingAverage(10),
    "20-MA": lambda: MovingAverage(20),
    "0.3-EWMA": lambda: Ewma(0.3),
    "0.8-EWMA": lambda: Ewma(0.8),
    "HW": lambda: HoltWinters(0.8, 0.2),
    "0.2-HW": lambda: HoltWinters(0.2, 0.5),
    "AR3": lambda: AutoRegressive(3),
    "AR2-short": lambda: AutoRegressive(2, max_history=16, ridge=1e-2),
}


VARIANTS = {
    "lso": {},
    "lso-soft": {"harden": False},
    "lso-tight": {"config": LsoConfig(0.2, 0.3)},
}


def lso_factory(variant, family, wrapper=LsoPredictor):
    """An LSO ``variant`` of ``family`` built with ``wrapper``."""
    return lambda: wrapper(FACTORIES[family], **VARIANTS[variant])


def series(values, name="parity"):
    return TimeSeries.from_values(values, period=180.0, name=name)


def assert_walks_equal(values, factory, reference_factory):
    shipped = evaluate_predictor(series(values), factory)
    predictions, errors = oracle.walk(values, reference_factory())
    assert shipped.predictions.tobytes() == predictions.tobytes()
    assert shipped.errors.tobytes() == errors.tobytes()


@pytest.fixture
def telemetry(monkeypatch):
    monkeypatch.delenv(ENV_OBS, raising=False)
    get_telemetry().reset()
    yield get_telemetry()
    get_telemetry().reset()


# ---------------------------------------------------------------------
# evaluate_predictor parity
# ---------------------------------------------------------------------


@pytest.mark.parametrize("trace_name", sorted(TRACES))
@pytest.mark.parametrize("family", sorted(FACTORIES))
def test_families_bit_identical(trace_name, family):
    factory = FACTORIES[family]
    assert_walks_equal(TRACES[trace_name], factory, factory)


@pytest.mark.parametrize("trace_name", ["spiky", "adversarial", "clean-shift"])
@pytest.mark.parametrize("family", ["1-MA", "10-MA", "0.8-EWMA", "HW", "AR3"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_lso_wrappers_bit_identical(trace_name, family, variant):
    assert_walks_equal(
        TRACES[trace_name],
        lso_factory(variant, family),
        lso_factory(variant, family, oracle.ReplayLso),
    )


@pytest.mark.parametrize("trace_name", ["spiky", "adversarial", "clean-shift"])
@pytest.mark.parametrize("family", ["1-MA", "10-MA", "0.8-EWMA", "HW", "AR3"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_lso_counters_match_oracle(telemetry, trace_name, family, variant):
    """hb.outliers_discarded / hb.level_shifts count the oracle's detections
    once per kernel pass: the LSO walk's, plus the outlier exclusion's
    unless the two have equal thresholds and so share one kernel."""
    values = TRACES[trace_name]
    factory = lso_factory(variant, family)
    evaluate_predictor(series(values), factory, lso_config=LsoConfig())
    replay = lso_factory(variant, family, oracle.ReplayLso)()
    oracle.walk(values, replay)
    outliers, shifts = [], []
    if factory().config != LsoConfig():
        outliers, shifts, _ = oracle.rescan_segmentation(values, LsoConfig())
    assert telemetry.counter("hb.outliers_discarded").value == (
        replay.n_outliers + len(outliers)
    )
    assert telemetry.counter("hb.level_shifts").value == (
        replay.n_level_shifts + len(shifts)
    )


def test_rmsre_bit_identical_including_outlier_exclusion():
    values = TRACES["adversarial"]
    shipped = evaluate_predictor(
        series(values), lso_factory("lso", "HW"), lso_config=LsoConfig()
    )
    predictions, errors = oracle.walk(
        values, lso_factory("lso", "HW", oracle.ReplayLso)()
    )
    outliers, _, _ = oracle.rescan_segmentation(values, LsoConfig())
    reference = HbEvaluation(
        "HW-LSO", "parity", predictions, errors, frozenset(outliers)
    )
    assert shipped.outlier_indices == reference.outlier_indices
    assert shipped.rmsre() == reference.rmsre()
    assert shipped.rmsre(exclude_outliers=True) == reference.rmsre(
        exclude_outliers=True
    )


def test_custom_predictor_walks_its_own_forecast():
    class TweakedMa(MovingAverage):
        def forecast(self):
            return super().forecast() * 1.5

    values = TRACES["noisy"]
    assert_walks_equal(values, lambda: TweakedMa(5), lambda: TweakedMa(5))
    plain = evaluate_predictor(series(values), lambda: MovingAverage(5))
    tweaked = evaluate_predictor(series(values), lambda: TweakedMa(5))
    assert np.array_equal(tweaked.predictions[1:], plain.predictions[1:] * 1.5)


# The input checks hold whether a trace arrives as a list of Python
# scalars or as a numpy vector.
CONTAINERS = pytest.mark.parametrize(
    "container", [list, np.array], ids=["scalar", "vector"]
)


@CONTAINERS
def test_nonpositive_sample_named_by_epoch(container):
    values = container([4.0, 5.0, 6.0, -1.0, 7.0])
    with pytest.raises(DataError, match=r"epoch 3 of series 'parity'"):
        evaluate_predictor(series(values), FACTORIES["10-MA"])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "factory", [FACTORIES["10-MA"], lso_factory("lso", "HW")], ids=["10-MA", "HW-LSO"]
)
def test_nonfinite_sample_named_by_epoch(factory, bad):
    values = np.array([4.0, 5.0, 6.0, bad, 7.0])
    with pytest.raises(DataError, match=r"finite.*epoch 3 of series 'parity'"):
        evaluate_predictor(series(values), factory)


# ---------------------------------------------------------------------
# lso_segmentation parity
# ---------------------------------------------------------------------


@pytest.mark.parametrize("trace_name", sorted(TRACES))
@pytest.mark.parametrize("config", [None, LsoConfig(0.2, 0.3)])
def test_segmentation_bit_identical(trace_name, config):
    values = TRACES[trace_name]
    shipped = lso_segmentation(values, config)
    outliers, shifts, segments = oracle.rescan_segmentation(values, config)
    assert shipped.outlier_indices == tuple(sorted(outliers))
    assert shipped.shift_indices == tuple(sorted(shifts))
    assert shipped.segments == tuple(segments)


@CONTAINERS
def test_segmentation_rejects_nonpositive(container):
    with pytest.raises(DataError, match=r"epoch 2"):
        lso_segmentation(container([4.0, 5.0, 0.0, 6.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_segmentation_rejects_nonfinite(bad):
    with pytest.raises(DataError, match=r"finite.*epoch 1"):
        lso_segmentation([4.0, bad, 5.0, 6.0])


# ---------------------------------------------------------------------
# Evaluation cache
# ---------------------------------------------------------------------


def _dataset(*names):
    """A dataset with one trace per named ``TRACES`` entry, path p01, p02, ..."""
    traces = []
    for k, name in enumerate(names, start=1):
        values = TRACES[name]
        n = len(values)
        traces.append(
            Trace(
                f"p{k:02d}",
                0,
                start_time_s=np.arange(n) * 180.0,
                ahat_mbps=np.full(n, 10.0),
                phat=np.zeros(n),
                that_s=np.full(n, 0.05),
                throughput_mbps=values,
                ptilde=np.zeros(n),
                ttilde_s=np.full(n, 0.05),
            )
        )
    return Dataset("parity", traces)


def test_cache_hit_is_bit_identical_to_cold_walk(tmp_path, telemetry):
    dataset = _dataset("adversarial", "spiky")
    trace = dataset.traces[0]
    factory = lso_factory("lso", "HW")
    cold = evaluate_predictor(trace.throughput_series(), factory, lso_config=LsoConfig())
    hw_lso = unit(factory, exclusion=LsoConfig())
    # A second trace in the pack: entries are sliced out of flat arrays.
    recorded = warm_eval_cache(dataset, [hw_lso], EvaluationCache(tmp_path))
    assert recorded.computed == 2
    # A fresh cache object forces the disk round trip rather than the memo.
    hits = telemetry.counter("evalcache.hits").value
    served = warm_eval_cache(dataset, [hw_lso], EvaluationCache(tmp_path))
    assert served.computed == 0
    assert telemetry.counter("evalcache.hits").value == hits + 2
    for result in (recorded[hw_lso][0], served[hw_lso][0]):
        assert result.predictions.tobytes() == cold.predictions.tobytes()
        assert result.errors.tobytes() == cold.errors.tobytes()
        assert result.outlier_indices == cold.outlier_indices
        assert result.shift_indices == cold.shift_indices
        assert result.predictor_name == cold.predictor_name
        assert result.series_name == cold.series_name


def test_cache_key_separates_series_spec_and_config(tmp_path):
    dataset = _dataset("noisy", "spiky")
    units = [
        unit(FACTORIES["10-MA"]),
        unit(FACTORIES["1-MA"]),
        unit(FACTORIES["10-MA"], exclusion=LsoConfig()),
    ]
    cache = EvaluationCache(tmp_path)
    results = warm_eval_cache(dataset, units, cache)
    assert results.computed == 6
    a, b = results[units[0]]
    c, _ = results[units[1]]
    _, excluded = results[units[2]]
    assert a.predictions.tobytes() != b.predictions.tobytes()
    assert a.predictions.tobytes() != c.predictions.tobytes()
    # The exclusion walks the same predictions, and keeps the spikes' epochs.
    assert b.predictions.tobytes() == excluded.predictions.tobytes()
    assert not b.outlier_indices and excluded.outlier_indices
    keys = {entry_key(k, t, u) for u in units for k, t in enumerate(dataset.traces)}
    assert all(cache.get(key) is not None for key in keys) and len(keys) == 6


def _write_pack(root):
    dataset = _dataset("noisy", "spiky")
    cache = EvaluationCache(root)
    warm_eval_cache(dataset, [unit(FACTORIES["10-MA"])], cache)
    assert [p.name for p in root.iterdir()] == [f"{cache._pack_key}.npz"]
    return dataset, cache.path_for(cache._pack_key)


def _garbage(path):
    path.write_bytes(b"not an npz")


def _short_arrays(path):
    """Rewrite the pack with its arrays shorter than its index says."""
    with np.load(path) as pack:
        arrays = {name: pack[name] for name in pack.files}
    arrays["predictions"] = arrays["predictions"][:-1]
    arrays["errors"] = arrays["errors"][:-1]
    with path.open("wb") as handle:
        np.savez(handle, **arrays)


def test_corrupt_cache_entry_reads_as_miss(tmp_path, telemetry):
    for damage in (_garbage, _short_arrays):
        root = tmp_path / damage.__name__
        dataset, path = _write_pack(root)
        damage(path)
        corrupt = telemetry.counter("evalcache.corrupt").value
        fresh = EvaluationCache(root)
        fresh.open_pack(path.stem)
        assert telemetry.counter("evalcache.corrupt").value == corrupt + 1
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        probe = fresh.get(entry_key(0, dataset.traces[0], unit(FACTORIES["10-MA"])))
        assert probe is None


def test_spec_round_trip():
    for factory in FACTORIES.values():
        spec = derive_spec(factory())
        assert spec is not None
        rebuilt = spec_factory(spec)()
        assert derive_spec(rebuilt) == spec
    wrapped = LsoPredictor(FACTORIES["HW"], LsoConfig(0.2, 0.3), harden=False)
    spec = derive_spec(wrapped)
    assert spec == ("lso", ("hw", 0.8, 0.2), 0.2, 0.3, False)
    assert derive_spec(spec_factory(spec)()) == spec


def test_unknown_predictor_type_is_not_cached(tmp_path):
    class Custom(MovingAverage):
        pass

    assert derive_spec(Custom(5)) is None
    custom = unit(lambda: Custom(5))
    assert not custom.spec_named
    dataset = _dataset("noisy")
    # Walked in memory, as evaluate_predictor walks it ...
    (walked,) = evaluate_units(dataset, [custom])[custom]
    alone = evaluate_predictor(dataset.traces[0].throughput_series(), lambda: Custom(5))
    assert walked.predictions.tobytes() == alone.predictions.tobytes()
    # ... but never planned into a pack.
    with pytest.raises(ConfigurationError, match="registered predictor families"):
        warm_eval_cache(dataset, [custom], EvaluationCache(tmp_path))
    assert not list(tmp_path.iterdir())
