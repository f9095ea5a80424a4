"""One pass per served sample: a path's bundle changes no served bit.

The store feeds each sample of a path once per distinct LSO kernel: the
path's LSO predictors with equal thresholds and equal kernel state
follow one kernel group, and every state keeps a standing forecast.
Each path must still answer exactly what standalone
:class:`StreamingPredictorState` s and a twin :class:`QualityTracker`
fed the same samples answer — predictions, ``/paths/{key}`` diagnostics,
quality summaries and snapshots, compared as JSON text, so bit for bit.
"""

import asyncio
import gc
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hb import lso as lso_module
from repro.hb import wrappers as wrappers_module
from repro.hb.lso import LsoConfig, LsoKernel
from repro.hb.streaming import SERVE_PREDICTORS, PathBundle, StreamingPredictorState
from repro.obs.metrics import MetricsRegistry
from repro.obs.quality import QualityTracker
from repro.obs.telemetry import ENV_OBS, get_telemetry
from repro.serve.app import ServeApp
from repro.serve.http import HttpRequest
from repro.serve.state import ShardedStateStore, default_specs

KEY = "path-1"
TIGHT = LsoConfig(level_shift_threshold=0.2, outlier_threshold=0.3)


def variant(name, **changes):
    """The spec of a ``--predictors`` name, with ``changes``."""
    return replace(SERVE_PREDICTORS[name], **changes)


#: The defaults, a second LsoConfig, both harden settings and a bare
#: predictor.
SPECS = {
    **default_specs(),
    "hw-tight": variant("hw", lso=TIGHT),
    "ma5-tight-soft": variant("ma5", lso=TIGHT, harden=False),
    "ewma-soft": variant("ewma", harden=False),
    "ar3": SERVE_PREDICTORS["ar3"],
    "hw-bare": variant("hw", lso=None),
}
DEFAULTS = tuple(default_specs())


def text(doc):
    """JSON text of ``doc``: floats by repr, so equal text is equal bits."""
    return json.dumps(doc, sort_keys=True)


class Twins:
    """Standalone states and a twin tracker, fed samples as the store is."""

    def __init__(self, specs, key=KEY):
        self.key = key
        self.states = {n: StreamingPredictorState(spec) for n, spec in specs.items()}
        self.tracker = QualityTracker()

    def feed(self, values):
        for value in values:
            for name, state in self.states.items():
                before = state.prediction()
                state.ingest(value)
                if math.isfinite(value) and value > 0:
                    self.tracker.score(
                        self.key, name, before, value,
                        level_shifts=state.n_level_shifts,
                    )
                else:
                    self.tracker.observe_invalid(self.key, name)
        return self

    def predictions(self):
        return text({n: s.prediction() for n, s in self.states.items()})

    def documents(self):
        """What the store should serve about the path, as JSON text."""
        return (
            text({n: s.diagnostics() for n, s in self.states.items()}),
            text(self.tracker.path_summary(self.key)),
            text({n: s.snapshot() for n, s in self.states.items()}),
        )


def path_documents(store, key=KEY):
    """What the store serves about a path, as JSON text."""
    states = store.get(key)
    return (
        text({n: s.diagnostics() for n, s in states.items()}),
        text(store.quality.path_summary(key)),
        text(store.snapshot()["paths"][key]),
    )


@st.composite
def batches(draw):
    """Level shifts, spikes, zero, negative, NaN and inf samples, in batches."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = rng.normal(0.0, draw(st.floats(0.0, 0.2)), n)
    values = draw(st.floats(1.0, 100.0)) * (1.0 + noise)
    for _ in range(draw(st.integers(0, 3))):  # level shifts
        values[draw(st.integers(0, n - 1)) :] *= draw(st.floats(0.3, 3.0))
    values = (np.abs(values) + 0.1).tolist()
    spikes = st.sampled_from([0.2, 0.5, 2.5, 4.0])
    for _ in range(draw(st.integers(0, 4))):
        values[draw(st.integers(0, n - 1))] *= draw(spikes)
    invalid = st.sampled_from([0.0, -0.0, -3.5, math.nan, math.inf, -math.inf])
    for _ in range(draw(st.integers(0, 4))):
        values[draw(st.integers(0, n - 1))] = draw(invalid)
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=8)))
    return [values[a:b] for a, b in zip([0, *cuts], [*cuts, n])]


spec_sets = st.one_of(
    st.just(DEFAULTS),
    st.lists(st.sampled_from(sorted(SPECS)), min_size=1, max_size=6, unique=True),
)


@settings(max_examples=80, deadline=None)
@given(stream=batches(), names=spec_sets)
def test_store_serves_what_standalone_states_serve(stream, names):
    specs = {name: SPECS[name] for name in names}
    store = ShardedStateStore(specs=specs)
    twin = Twins(specs)
    for batch in stream:
        summary = store.ingest(KEY, batch)
        n_invalid = sum(1 for v in batch if not (math.isfinite(v) and v > 0))
        assert summary["accepted"] == len(batch) - n_invalid
        assert summary["invalid"] == n_invalid
        assert text(summary["predictions"]) == twin.feed(batch).predictions()
    assert path_documents(store) == twin.documents()


def count_kernel_adds(monkeypatch):
    calls = []
    add = lso_module.LsoKernel.add

    def counting_add(kernel, value):
        calls.append(kernel.config)
        return add(kernel, value)

    monkeypatch.setattr(lso_module.LsoKernel, "add", counting_add)
    return calls


def test_each_sample_enters_each_distinct_kernel_once(monkeypatch):
    calls = count_kernel_adds(monkeypatch)
    samples = [40.0, 41.0, 0.0, 39.5, 120.0, 40.5, math.nan, 80.0, 81.0, 79.0, 80.5]
    accepted = sum(1 for v in samples if math.isfinite(v) and v > 0)
    store = ShardedStateStore()  # last, ma10, ewma, hw: one kernel
    store.ingest(KEY, samples[:4])
    store.ingest(KEY, samples[4:])
    assert len(calls) == accepted
    calls.clear()
    names = ("ma10", "hw", "hw-tight", "ma5-tight-soft", "hw-bare")
    store = ShardedStateStore(specs={n: SPECS[n] for n in names})
    store.ingest(KEY, samples)
    assert sorted(calls, key=repr) == sorted(
        [SPECS["hw"].lso, SPECS["hw-tight"].lso] * accepted,
        key=repr,
    )


def test_forecasts_once_per_accepted_sample(monkeypatch):
    """12 -> 4 forecasts per POST + GET epoch at the default predictors."""
    forecasts = []
    forecast = wrappers_module.LsoPredictor.forecast

    def counting_forecast(wrapper):
        forecasts.append(wrapper.name)
        return forecast(wrapper)

    monkeypatch.setattr(wrappers_module.LsoPredictor, "forecast", counting_forecast)
    app = ServeApp(ShardedStateStore())
    samples = [40.0 + (k % 3) for k in range(12)]

    async def epochs():
        for value in samples:
            body = json.dumps({"samples": [value]}).encode()
            post = HttpRequest("POST", f"/paths/{KEY}/samples", {}, {}, body)
            await app.handle(post)
            await app.handle(HttpRequest("GET", f"/paths/{KEY}/predict", {}, {}))

    asyncio.run(epochs())
    served = len(forecasts)
    # Each predictor forecasts once per sample it is ready after, and the
    # GETs read the standing forecasts.
    ready_after = 0
    for state in Twins(default_specs()).states.values():
        for value in samples:
            state.ingest(value)
            ready_after += state.ready
    assert served == ready_after
    assert served > 3 * len(samples)


class TestRestore:
    @pytest.mark.parametrize("grown", [False, True])
    def test_restore_mid_stream_equals_an_uninterrupted_run(self, grown):
        values = [
            40.0 * (1 + 0.05 * math.sin(k)) * (2.0 if k >= 30 else 1.0)
            for k in range(60)
        ]
        values[12] = 150.0
        values[20] = 0.0
        specs = {n: SPECS[n] for n in ("last", "ma10", "hw", "hw-tight", "hw-bare")}
        head, tail = values[:25], values[25:]
        first = ShardedStateStore(specs=specs)
        first.ingest(KEY, head)
        grown_specs = {**specs, "ewma": SPECS["ewma"]} if grown else specs
        restored = ShardedStateStore(specs=grown_specs)
        assert restored.restore(json.loads(json.dumps(first.snapshot()))) == 1
        summary = restored.ingest(KEY, tail)

        states = Twins(specs).feed(values).states
        if grown:
            # Added at restore: starts fresh, on a kernel of its own.
            states |= Twins({"ewma": SPECS["ewma"]}).feed(tail).states
        assert text(summary["predictions"]) == text(
            {n: states[n].prediction() for n in grown_specs}
        )
        served = restored.get(KEY)
        assert text({n: s.diagnostics() for n, s in served.items()}) == text(
            {n: states[n].diagnostics() for n in grown_specs}
        )
        assert text(restored.snapshot()["paths"][KEY]) == text(
            {n: states[n].snapshot() for n in grown_specs}
        )

    def test_grown_predictor_keeps_a_kernel_of_its_own(self, monkeypatch):
        specs = {"ma10": SPECS["ma10"], "hw": SPECS["hw"]}
        store = ShardedStateStore(specs=specs)
        store.ingest(KEY, [40.0, 41.0, 42.0])
        calls = count_kernel_adds(monkeypatch)
        for grown, kernels in ((specs, 1), ({**specs, "ewma": SPECS["ewma"]}, 2)):
            clone = ShardedStateStore(specs=grown)
            clone.restore(store.snapshot())
            calls.clear()
            clone.ingest(KEY, [43.0])
            assert len(calls) == kernels


#: How the snapshot fixtures were written, each with its release's code:
#: the store below, path "a" fed stream(1, 70) and "b" stream(2, 40), in
#: batches of three, then ``store.save``.  1.22.0 wrote version 1, which
#: named each predictor by its ``--predictors`` name; 1.24.0 wrote
#: version 2, which records each spec's ``to_dict()``.
FIXTURE_V1 = Path(__file__).parent / "data" / "store_snapshot_1.22.0.json"
FIXTURE_V2 = Path(__file__).parent / "data" / "store_snapshot_1.24.0.json"
FIXTURE_SPECS = {
    **default_specs(),
    "hw-tight": variant("hw", lso=TIGHT),
    "ma5-soft": variant("ma5", harden=False),
    "ewma-bare": variant("ewma", lso=None),
}
FIXTURE_PATHS = {"a": (1, 70), "b": (2, 40)}


def stream(seed, n):
    rng = random.Random(seed)
    level, values = 40.0, []
    for i in range(n):
        if i == 25:
            level *= 2.0
        elif i == 60:
            level *= 0.4
        value = level * rng.uniform(0.9, 1.1)
        if i % 17 == 5:
            value *= 3.0
        if i % 31 == 7:
            value = [0.0, -1.0, math.nan][i % 3]
        values.append(value)
    return values


def fixture_store():
    """The store the fixtures were written from, fed the same samples."""
    store = ShardedStateStore(specs=FIXTURE_SPECS)
    for key, (seed, n) in FIXTURE_PATHS.items():
        values = stream(seed, n)
        for start in range(0, n, 3):
            store.ingest(key, values[start : start + 3])
    return store


def assert_continues_bit_exactly(store):
    """Each fixture path, fed 40 more samples, answers what twins fed the
    whole stream answer."""
    for key, (seed, n) in FIXTURE_PATHS.items():
        values = stream(seed, n + 40)
        summary = store.ingest(key, values[n:])
        twin = Twins(FIXTURE_SPECS, key=key).feed(values)
        assert text(summary["predictions"]) == twin.predictions()
        assert text(store.snapshot()["paths"][key]) == twin.documents()[2]


class TestSnapshotOf1220:
    def test_same_samples_write_the_same_bytes(self, tmp_path):
        written = fixture_store().save(tmp_path / "state.json")
        assert written.read_bytes() == FIXTURE_V2.read_bytes()

    def test_version_2_changes_only_the_version_and_the_specs(self):
        """The v2 document is the v1 one but for ``snapshot_version``, the
        store-level ``specs`` and each state's ``spec``."""
        v1, v2 = (json.loads(f.read_text()) for f in (FIXTURE_V1, FIXTURE_V2))
        assert (v1["snapshot_version"], v2["snapshot_version"]) == (1, 2)
        assert v2["specs"] == {n: s.to_dict() for n, s in FIXTURE_SPECS.items()}
        for doc in (v1, v2):
            del doc["snapshot_version"], doc["specs"]
            for states in doc["paths"].values():
                for state in states.values():
                    del state["spec"]
        assert v1 == v2

    def test_restores_and_continues_bit_exactly(self):
        store = ShardedStateStore(specs=FIXTURE_SPECS)
        assert store.load(FIXTURE_V1) == 2
        assert_continues_bit_exactly(store)

    def test_version_2_restores_and_continues_bit_exactly(self):
        store = ShardedStateStore(specs=FIXTURE_SPECS)
        assert store.load(FIXTURE_V2) == 2
        assert_continues_bit_exactly(store)


def live_kernels():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is LsoKernel)


def test_evicting_a_path_drops_its_kernels():
    store = ShardedStateStore(n_shards=1, max_paths_per_shard=1)
    baseline = live_kernels()
    store.ingest("a", [40.0, 41.0, 39.0])
    assert live_kernels() == baseline + 1  # four predictors, one kernel
    store.ingest("b", [40.0, 41.0, 39.0])
    assert "a" not in store and store.n_evicted == 1
    assert live_kernels() == baseline + 1


class TestRouteInstruments:
    @pytest.fixture(autouse=True)
    def _telemetry(self, monkeypatch):
        monkeypatch.delenv(ENV_OBS, raising=False)
        get_telemetry().reset()
        yield
        get_telemetry().reset()

    @staticmethod
    def healthz(app):
        asyncio.run(app.handle(HttpRequest("GET", "/healthz", {}, {})))

    @staticmethod
    def counts(route="healthz"):
        tele = get_telemetry()
        return (
            tele.counter("serve.requests", route=route).value,
            len(tele.timer("serve.request_s", route=route).samples),
        )

    def test_count_into_the_live_registry_after_reset_and_drain(self):
        app = ServeApp(ShardedStateStore())
        self.healthz(app)
        self.healthz(app)
        assert self.counts() == (2, 2)
        get_telemetry().reset()
        self.healthz(app)
        assert self.counts() == (1, 1)
        drained = get_telemetry().drain()
        assert {"name": "serve.requests", "tags": {"route": "healthz"}, "value": 1} in (
            drained["counters"]
        )
        self.healthz(app)
        assert self.counts() == (1, 1)

    def test_count_nothing_when_telemetry_is_off(self, monkeypatch):
        app = ServeApp(ShardedStateStore())
        self.healthz(app)
        monkeypatch.setenv(ENV_OBS, "0")
        self.healthz(app)
        monkeypatch.delenv(ENV_OBS)
        assert self.counts() == (1, 1)

    @staticmethod
    def replay(app, n):
        """``n`` rounds of one ingest of two samples, one prediction of
        every predictor and of one, and one FB prediction; the replies'
        statuses."""
        statuses = []
        for k in range(n):
            for request in (
                HttpRequest(
                    "POST", "/paths/p1/samples", {}, {},
                    json.dumps({"samples": [40.0 + k, 41.0]}).encode(),
                ),
                HttpRequest("GET", "/paths/p1/predict", {}, {}),
                HttpRequest("GET", "/paths/p1/predict", {"predictor": "hw"}, {}),
                HttpRequest(
                    "POST", "/predict/fb", {}, {},
                    json.dumps({"rtt_ms": 80.0, "loss": 0.01}).encode(),
                ),
            ):
                statuses.append(asyncio.run(app.handle(request))[0])
        return statuses

    @staticmethod
    def outcomes():
        tele = get_telemetry()
        return (
            tele.counter("serve.ingested").value,
            tele.counter("serve.predictions").value,
        )

    def test_outcomes_are_held_with_the_route_instruments(self, monkeypatch):
        """After one round, the routes look no counter up by name but the
        one the FB formula counts its model choice in (``repro.formulas``,
        not the route), and count what they did into the live registry."""
        app = ServeApp(ShardedStateStore())
        self.replay(app, 1)
        lookups = []
        counter = MetricsRegistry.counter

        def recording(registry, name, **tags):
            lookups.append(name)
            return counter(registry, name, **tags)

        monkeypatch.setattr(MetricsRegistry, "counter", recording)
        assert self.replay(app, 5) == [200] * 20
        assert lookups == ["fb.model_selected"] * 5
        monkeypatch.undo()
        assert self.outcomes() == (12, 18)
        metrics = asyncio.run(app.handle(HttpRequest("GET", "/metrics", {}, {})))[1]
        lines = metrics.body.decode().splitlines()
        assert "repro_serve_ingested_total 12" in lines
        assert "repro_serve_predictions_total 18" in lines

    def test_outcomes_count_into_the_new_registry_after_drain(self):
        app = ServeApp(ShardedStateStore())
        self.replay(app, 2)
        drained = get_telemetry().drain()
        assert {"name": "serve.ingested", "tags": {}, "value": 4} in drained["counters"]
        assert {"name": "serve.predictions", "tags": {}, "value": 6} in (
            drained["counters"]
        )
        self.replay(app, 1)
        assert self.outcomes() == (2, 3)


def test_a_follower_cannot_be_fed_outside_its_bundle():
    hw = StreamingPredictorState(SPECS["hw"])
    bundle = PathBundle({"hw": hw, "ma10": StreamingPredictorState(SPECS["ma10"])})
    bundle.ingest(40.0)
    wrapper = hw._predictor
    with pytest.raises(ValueError, match="kernel group"):
        hw.ingest(41.0)
    with pytest.raises(ValueError, match="kernel group"):
        wrapper.update(41.0)
    assert wrapper.kernel.count == 1  # nothing entered the kernel twice
    assert bundle.states["ma10"]._predictor.kernel is wrapper.kernel
