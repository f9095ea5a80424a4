"""One predictor vocabulary: :class:`~repro.hb.spec.PredictorSpec`.

A spec is canonical, so equal predictors have equal specs; it survives
JSON and pickle as an equal spec with an equal hash; and calling it
builds the predictor that walks a series exactly as the one built by
hand, bit for bit.  The figures, their pack and ``repro-serve`` all
name their predictors by it.
"""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import hb_eval
from repro.core.errors import ConfigurationError, DataError
from repro.core.timeseries import TimeSeries
from repro.hb.autoregressive import AutoRegressive
from repro.hb.evaluate import evaluate_predictor
from repro.hb.ewma import Ewma
from repro.hb.holt_winters import HoltWinters
from repro.hb.lso import LsoConfig
from repro.hb.moving_average import MovingAverage
from repro.hb.spec import FAMILIES, PredictorSpec
from repro.hb.streaming import SERVE_PREDICTORS
from repro.hb.wrappers import LsoPredictor

unit_interval = st.floats(0.01, 0.99)


@st.composite
def arguments(draw, family):
    """Constructor arguments of ``family``: a random subset, by name."""
    if family == "ma":
        drawn = {"order": draw(st.integers(1, 40))}
    elif family == "ewma":
        drawn = {"alpha": draw(unit_interval)}
    elif family == "hw":
        drawn = {"alpha": draw(unit_interval), "beta": draw(unit_interval)}
    else:
        order = draw(st.integers(1, 4))
        drawn = {
            "order": order,
            # Valid with the drawn order and with the default one (3).
            "max_history": draw(st.integers(2 * max(order, 3) + 2, 40)),
            "ridge": draw(st.one_of(st.just(0), st.floats(0.0, 1.0), st.just(1))),
        }
    keep = draw(st.lists(st.sampled_from(sorted(drawn)), unique=True))
    return {name: drawn[name] for name in keep}


thresholds = st.one_of(st.floats(0.01, 3.0), st.integers(1, 3))


@st.composite
def configurations(draw):
    """A family, its arguments, optional LSO thresholds and ``harden``."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    lso = draw(st.one_of(st.none(), st.builds(LsoConfig, thresholds, thresholds)))
    return family, draw(arguments(family)), lso, draw(st.booleans())


series_values = st.lists(st.floats(0.1, 1000.0), min_size=1, max_size=60)


def by_hand(family, args, lso, harden):
    """The factory a caller would write for the configuration."""
    cls = FAMILIES[family]
    if lso is None:
        return lambda: cls(**args)
    return lambda: LsoPredictor(lambda: cls(**args), lso, harden)


@settings(max_examples=150, deadline=None)
@given(configuration=configurations(), values=series_values)
def test_spec_round_trips_and_walks_as_built_by_hand(configuration, values):
    family, args, lso, harden = configuration
    spec = PredictorSpec(family, args, lso, harden)

    document = json.loads(json.dumps(spec.to_dict()))
    assert PredictorSpec.from_dict(document) == spec
    assert hash(PredictorSpec.from_dict(document)) == hash(spec)
    assert pickle.loads(pickle.dumps(spec)) == spec
    # Canonical: the same predictor given in any form is the same spec.
    assert PredictorSpec(family, tuple(reversed(args.items())), lso, harden) == spec
    assert PredictorSpec(family, dict(spec.params), spec.lso, spec.harden) == spec

    series = TimeSeries.from_values(values, name="walk")
    built = evaluate_predictor(series, spec)
    hand = evaluate_predictor(series, by_hand(family, args, lso, harden))
    assert built.predictions.tobytes() == hand.predictions.tobytes()
    assert built.errors.tobytes() == hand.errors.tobytes()
    assert built.predictor_name == hand.predictor_name


class TestCanonicalForm:
    def test_defaults_are_filled_in_constructor_order(self):
        spec = PredictorSpec("ar", {"ridge": 0})
        assert spec.params == (("order", 3), ("max_history", 64), ("ridge", 0.0))
        assert type(spec.params[2][1]) is float
        assert spec == PredictorSpec("ar", (("ridge", 0.0), ("order", 3)))

    def test_thresholds_are_floats(self):
        spec = PredictorSpec("ma", {"order": 5}, LsoConfig(1, 2))
        assert spec.lso == LsoConfig(1.0, 2.0)
        assert type(spec.lso.outlier_threshold) is float

    def test_harden_without_a_wrapper_is_its_default(self):
        assert PredictorSpec("hw", harden=False) == PredictorSpec("hw")
        assert PredictorSpec("hw", harden=False).harden
        assert not PredictorSpec("hw", lso=LsoConfig(), harden=False).harden

    def test_numpy_integers_are_ints(self):
        assert PredictorSpec("ma", {"order": np.int64(5)}) == hb_eval.ma(5)


class TestRefusals:
    @pytest.mark.parametrize(
        "family, params, match",
        [
            ("nope", {}, "unknown predictor family"),
            (3, {}, "unknown predictor family"),
            ("ma", {"window": 3}, "unexpected keyword argument 'window'"),
            ("ma", {"order": 2.0}, "integer"),
            ("ma", {"order": True}, "number"),
            ("ma", {"order": "10"}, "number"),
            ("ma", {"order": 0}, "order must be >= 1"),
            ("ma", {"order": 10**400}, "bad ma spec"),
            ("ewma", {"alpha": 1.5}, "alpha must be in"),
            ("ewma", {"alpha": float("nan")}, "finite"),
            ("ewma", {"alpha": 10**400}, "too large"),
            ("ar", {"order": 3, "max_history": 4}, "max_history"),
        ],
    )
    def test_bad_parameters(self, family, params, match):
        with pytest.raises(ConfigurationError, match=match):
            PredictorSpec(family, params)

    @pytest.mark.parametrize(
        "lso, harden, match",
        [
            (LsoConfig(10**400, 0.4), True, "too large"),
            (LsoConfig(float("inf"), 0.4), True, "finite"),
            (LsoConfig(), "yes", "harden"),
        ],
    )
    def test_bad_wrapper(self, lso, harden, match):
        with pytest.raises(ConfigurationError, match=match):
            PredictorSpec("ma", {"order": 5}, lso, harden)

    @pytest.mark.parametrize(
        "doc",
        [
            None,
            [],
            "hw",
            {"family": "hw", "params": {}, "lso": None},
            {"family": "hw", "params": [], "lso": None, "harden": True},
            {"family": "hw", "params": {"alpha": "x"}, "lso": None, "harden": True},
            {"family": "hw", "params": {}, "lso": [0.3, 0.4], "harden": True},
            {"family": "hw", "params": {}, "lso": {"chi": 0.3}, "harden": True},
            {
                "family": "hw",
                "params": {},
                "lso": {"level_shift_threshold": 0.0, "outlier_threshold": 0.4},
                "harden": True,
            },
            {"family": "hw", "params": {}, "lso": None, "harden": 1},
            {"family": "nope", "params": {}, "lso": None, "harden": True},
        ],
    )
    def test_malformed_documents_are_data_errors(self, doc):
        with pytest.raises(DataError, match="malformed predictor spec"):
            PredictorSpec.from_dict(doc)


class TestOneVocabulary:
    def test_the_served_names_are_the_evaluated_specs(self):
        """``repro-serve``'s ``hw`` is the HW-LSO that Figs. 19-23 walk."""
        assert SERVE_PREDICTORS == {
            "last": hb_eval.with_lso(hb_eval.ma(1)),
            "ma5": hb_eval.with_lso(hb_eval.ma(5)),
            "ma10": hb_eval.with_lso(hb_eval.ma(10)),
            "ewma": hb_eval.with_lso(hb_eval.ewma(0.8)),
            "hw": hb_eval.with_lso(hb_eval.hw()),
            "ar3": hb_eval.with_lso(PredictorSpec("ar", {"order": 3})),
        }

    def test_the_helpers_build_the_families(self):
        assert type(hb_eval.ma(10)()) is MovingAverage
        assert type(hb_eval.ewma(0.5)()) is Ewma
        assert type(hb_eval.hw()()) is HoltWinters
        assert type(PredictorSpec("ar")()) is AutoRegressive
        wrapped = hb_eval.with_lso(hb_eval.hw(), LsoConfig(0.2, 0.3))()
        assert type(wrapped) is LsoPredictor and wrapped.config == LsoConfig(0.2, 0.3)

    def test_with_lso_wraps_a_callers_factory_as_it_is(self):
        own = hb_eval.with_lso(lambda: AutoRegressive(order=3))
        assert not isinstance(own, PredictorSpec)
        assert own().name == "AR(3)-LSO"
        twice = hb_eval.with_lso(hb_eval.with_lso(hb_eval.hw()))
        assert not isinstance(twice, PredictorSpec)
        assert twice().name == "0.8-HW-LSO-LSO"
