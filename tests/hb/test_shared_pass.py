"""One pass, many predictors: the shared LSO kernel changes no bit.

:func:`vector_walk` walks several fresh predictors over a trace in one
pass, and LSO wrappers with equal thresholds follow one shared kernel.
Each predictor must still forecast exactly what it forecasts walked
alone by the oracle's per-epoch loop (``tests/hb/oracle.py``), and an
outlier exclusion read off the pass's kernel must equal the oracle's
re-scan.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.evalcache import EvalUnit, derive_spec
from repro.analysis.parallel import _walk_trace
from repro.core.errors import DataError
from repro.core.timeseries import TimeSeries
from repro.hb import lso as lso_module
from repro.hb.autoregressive import AutoRegressive
from repro.hb.base import HistoryPredictor
from repro.hb.evaluate import evaluate_predictor, evaluate_predictors
from repro.hb.ewma import Ewma
from repro.hb.holt_winters import HoltWinters
from repro.hb.lso import LsoConfig
from repro.hb.moving_average import MovingAverage
from repro.hb.vector_eval import vector_errors, vector_walk
from repro.hb.wrappers import LsoPredictor
from repro.obs.telemetry import ENV_OBS, get_telemetry
from repro.testbed.executor import Unit
from tests.hb import oracle

PAPER = LsoConfig()
TIGHT = LsoConfig(0.2, 0.3)

BASES = {
    "1-MA": lambda: MovingAverage(1),
    "10-MA": lambda: MovingAverage(10),
    "0.8-EWMA": lambda: Ewma(0.8),
    "HW": lambda: HoltWinters(0.8, 0.2),
    "0.2-HW": lambda: HoltWinters(0.2, 0.5),
    "AR3": lambda: AutoRegressive(3, max_history=24),
}


def _lso(base, config, harden):
    return lambda: LsoPredictor(BASES[base], config, harden)


#: Plain families, LSO wrappers under two configs with harden on and off,
#: and a second factory of an already-listed predictor.
FACTORIES = {
    **BASES,
    **{
        f"{base}-LSO{tag}{'' if harden else '-soft'}": _lso(base, config, harden)
        for base in ("1-MA", "10-MA", "HW", "AR3")
        for tag, config in (("", PAPER), ("-tight", TIGHT))
        for harden in (True, False)
    },
    "HW-LSO-again": _lso("HW", PAPER, True),
    "10-MA-again": BASES["10-MA"],
}


@st.composite
def traces(draw):
    """Positive traces with noise, level shifts and isolated outliers."""
    n = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = rng.normal(0.0, draw(st.floats(0.0, 0.2)), n)
    values = draw(st.floats(1.0, 100.0)) * (1.0 + noise)
    for _ in range(draw(st.integers(0, 3))):  # level shifts
        values[draw(st.integers(0, n - 1)) :] *= draw(st.floats(0.3, 3.0))
    spikes = st.sampled_from([0.2, 0.5, 2.5, 4.0])
    for _ in range(draw(st.integers(0, 4))):  # outliers
        values[draw(st.integers(0, n - 1))] *= draw(spikes)
    return np.abs(values) + 0.1


names = st.lists(st.sampled_from(sorted(FACTORIES)), min_size=1, max_size=8)


@settings(max_examples=120, deadline=None)
@given(values=traces(), chosen=names)
def test_one_pass_equals_each_predictor_alone(values, chosen):
    predictors = [FACTORIES[name]() for name in chosen]
    shipped = vector_walk(values, predictors)
    assert len(shipped) == len(chosen)
    for name, predictions in zip(chosen, shipped):
        alone, errors = oracle.walk(values, FACTORIES[name]())
        assert predictions.tobytes() == alone.tobytes(), name
        assert vector_errors(predictions, values).tobytes() == errors.tobytes(), name


@settings(max_examples=60, deadline=None)
@given(
    values=traces(),
    chosen=names,
    exclusions=st.lists(st.sampled_from([None, PAPER, TIGHT]), min_size=1, max_size=3),
)
def test_evaluations_and_exclusions_match_single_walks(values, chosen, exclusions):
    series = TimeSeries.from_values(values, name="shared")
    walks = [
        (FACTORIES[name], exclusions[k % len(exclusions)])
        for k, name in enumerate(chosen)
    ]
    for (factory, config), shared in zip(walks, evaluate_predictors(series, walks)):
        alone = evaluate_predictor(series, factory, lso_config=config)
        assert shared.predictions.tobytes() == alone.predictions.tobytes()
        assert shared.errors.tobytes() == alone.errors.tobytes()
        assert shared.predictor_name == alone.predictor_name
        assert shared.series_name == alone.series_name
        expected = set()
        if config is not None:
            expected = set(oracle.rescan_segmentation(values, config)[0])
        assert shared.outlier_indices == alone.outlier_indices == expected


@pytest.fixture
def telemetry(monkeypatch):
    monkeypatch.delenv(ENV_OBS, raising=False)
    get_telemetry().reset()
    yield get_telemetry()
    get_telemetry().reset()


#: Noise, a spike every 29 epochs and a level shift at epoch 60.
ADVERSARIAL = (
    np.abs(40.0 + np.random.default_rng(4).normal(0.0, 3.0, 120))
    * np.where(np.arange(120) % 29 == 0, 2.6, 1.0)
    * np.where(np.arange(120) >= 60, 1.8, 1.0)
)


def test_kernel_takes_each_sample_once_per_config(telemetry, monkeypatch):
    calls = []
    add = lso_module.LsoKernel.add

    def counting_add(kernel, value):
        calls.append(kernel.config)
        return add(kernel, value)

    monkeypatch.setattr(lso_module.LsoKernel, "add", counting_add)
    series = TimeSeries.from_values(ADVERSARIAL, name="shared")
    walks = [
        (FACTORIES["10-MA-LSO"], None),
        (FACTORIES["HW-LSO-soft"], PAPER),
        (FACTORIES["HW-LSO-tight"], None),
        (FACTORIES["AR3-LSO-tight-soft"], None),
        (FACTORIES["HW"], None),
    ]
    evaluate_predictors(series, walks)
    n = len(ADVERSARIAL)
    assert sorted(calls, key=repr) == sorted([PAPER] * n + [TIGHT] * n, key=repr)
    # The detections are counted once per kernel, not once per wrapper.
    expected = [oracle.rescan_segmentation(ADVERSARIAL, c) for c in (PAPER, TIGHT)]
    assert telemetry.counter("hb.outliers_discarded").value == sum(
        len(outliers) for outliers, _, _ in expected
    )
    assert telemetry.counter("hb.level_shifts").value == sum(
        len(shifts) for _, shifts, _ in expected
    )
    made: dict[str, int] = {}  # by predictor name, as the counter is tagged
    for factory, _ in walks:
        predictor = factory()
        forecasts = oracle.walk(ADVERSARIAL, predictor)[0]
        made[predictor.name] = made.get(predictor.name, 0) + np.count_nonzero(
            ~np.isnan(forecasts)
        )
    for name, count in made.items():
        assert telemetry.counter("predictions.made", predictor=name).value == count
    assert len(telemetry.timer("predict.wall_s", predictor="hb").samples) == 1


FALLING = np.array(
    [100.0, 100.0, 100.0, 10.0, 1.0, 0.5, 0.4, 0.3, 0.3, 40.0, 41.0, 39.0] * 2
)


@pytest.fixture
def unfloored_hw(monkeypatch):
    """Plain HW forecasts its raw ``level + trend``, which FALLING drives below 0."""
    monkeypatch.setattr(HoltWinters, "forecast", lambda self: self._level + self._trend)


def test_nonpositive_forecast_voids_only_its_own_units(unfloored_hw):
    series = TimeSeries.from_values(FALLING, name="falling")
    with pytest.raises(DataError, match="non-positive") as raised:
        evaluate_predictor(series, BASES["HW"])
    factories = [BASES["HW"], FACTORIES["HW-LSO"], BASES["10-MA"]]
    specs = [derive_spec(factory()) for factory in factories]
    main = (series, (EvalUnit(specs[0]), EvalUnit(specs[1], exclusion=PAPER)))
    small = (
        TimeSeries.from_values(FALLING[::2], name="falling/2"),
        (EvalUnit(specs[2], downsample=2),),
    )
    last = (series, (EvalUnit(specs[0], exclusion=PAPER),))
    results = _walk_trace(None, Unit("p01", 0, (main, small, last)))
    # The voided units hold the error a walk of the predictor alone raises.
    for voided in (results[0], results[3]):
        assert isinstance(voided, DataError)
        assert str(voided) == str(raised.value)
    expected = [
        evaluate_predictor(series, factories[1], lso_config=PAPER),
        evaluate_predictor(small[0], factories[2]),
    ]
    for got, want in zip(results[1:3], expected):
        assert got.predictions.tobytes() == want.predictions.tobytes()
        assert got.errors.tobytes() == want.errors.tobytes()
        assert got.outlier_indices == want.outlier_indices


def test_invalid_series_voids_its_whole_group():
    bad = TimeSeries.from_values([4.0, 5.0, 0.0, 6.0], name="bad")
    good = TimeSeries.from_values([4.0, 5.0, 6.0, 7.0], name="good")
    spec = derive_spec(BASES["1-MA"]())
    payload = (
        (bad, (EvalUnit(spec), EvalUnit(spec, exclusion=PAPER))),
        (good, (EvalUnit(spec, small_window=True),)),
    )
    results = _walk_trace(None, Unit("p01", 0, payload))
    with pytest.raises(DataError, match="epoch 2 of series 'bad'") as raised:
        evaluate_predictors(bad, [(BASES["1-MA"], None)])
    for voided in results[:2]:
        assert isinstance(voided, DataError)
        assert str(voided) == str(raised.value)
    assert results[2].predictions.tolist()[1:] == [4.0, 5.0, 6.0]


class Failing(MovingAverage):
    """A user-defined predictor that gives up mid-walk."""

    def update(self, value):
        if self.n_observed == 5:
            raise DataError("gave up")
        super().update(value)


def test_midwalk_failure_voids_only_that_predictor():
    series = TimeSeries.from_values(ADVERSARIAL, name="shared")
    failing = lambda: Failing(3)  # noqa: E731
    walks = [(FACTORIES["HW-LSO"], PAPER), (failing, None), (BASES["10-MA"], None)]
    results = evaluate_predictors(series, walks)
    assert isinstance(results[1], DataError)
    assert str(results[1]) == "gave up"
    for (factory, config), got in zip([walks[0], walks[2]], [results[0], results[2]]):
        want = evaluate_predictor(series, factory, lso_config=config)
        assert got.predictions.tobytes() == want.predictions.tobytes()
        assert got.outlier_indices == want.outlier_indices


def test_only_fresh_wrappers_share_a_kernel():
    primed = LsoPredictor(BASES["HW"])
    for value in ADVERSARIAL[:10]:
        primed.update(value)
    fresh = LsoPredictor(BASES["HW"])
    walked = vector_walk(ADVERSARIAL[10:], [primed, fresh])
    assert primed.n_observed == len(ADVERSARIAL)
    assert fresh.n_observed == len(ADVERSARIAL) - 10
    reference = LsoPredictor(BASES["HW"])
    for value in ADVERSARIAL[:10]:
        reference.update(value)
    alone, _ = oracle.walk(ADVERSARIAL[10:], reference)
    assert walked[0].tobytes() == alone.tobytes()
    with pytest.raises(ValueError, match="fresh"):
        primed.follow(lso_module.LsoKernel())
    with pytest.raises(ValueError, match="thresholds"):
        LsoPredictor(BASES["HW"]).follow(lso_module.LsoKernel(TIGHT))


class HistoryOnly(HistoryPredictor):
    """A user-defined predictor outside every registered family."""

    name = "history-only"
    min_history = 1

    def __init__(self):
        self.seen = []

    @property
    def n_observed(self):
        return len(self.seen)

    def update(self, value):
        self.seen.append(value)

    def forecast(self):
        return max(self.seen)

    def reset(self):
        self.seen = []


def test_user_defined_predictors_update_themselves():
    walked = vector_walk(ADVERSARIAL, [HistoryOnly(), LsoPredictor(BASES["HW"])])
    alone, _ = oracle.walk(ADVERSARIAL, HistoryOnly())
    assert walked[0].tobytes() == alone.tobytes()
