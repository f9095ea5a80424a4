"""The sharded per-path state store: LRU, sharding, snapshot/restore."""

import json
from dataclasses import replace

import pytest

from repro.core.errors import ConfigurationError, DataError
from repro.hb.streaming import SERVE_PREDICTORS
from repro.obs.telemetry import ENV_OBS, get_telemetry
from repro.serve.state import ShardedStateStore, default_specs, validate_key


def small_store(**kwargs):
    defaults = dict(
        specs={"ma5": SERVE_PREDICTORS["ma5"]},
        n_shards=2,
        max_paths_per_shard=3,
    )
    defaults.update(kwargs)
    return ShardedStateStore(**defaults)


class TestKeys:
    def test_valid_key_passes(self):
        assert validate_key("lulea-to-anl_1") == "lulea-to-anl_1"

    @pytest.mark.parametrize("bad", ["", "a/b", "a b", "x" * 201])
    def test_invalid_keys_rejected(self, bad):
        with pytest.raises(DataError):
            validate_key(bad)

    def test_shard_index_is_stable(self):
        store = small_store()
        assert store.shard_index("p1") == store.shard_index("p1")
        assert 0 <= store.shard_index("p1") < store.n_shards


class TestLifecycle:
    def test_get_or_create_builds_all_specs(self):
        store = ShardedStateStore(specs=default_specs(["last", "ewma"]))
        states = store.get_or_create("p1")
        assert sorted(states) == ["ewma", "last"]
        assert len(store) == 1
        assert "p1" in store

    def test_get_unknown_returns_none(self):
        assert small_store().get("nope") is None

    def test_ingest_summary(self):
        store = small_store()
        summary = store.ingest("p1", [10.0, 11.0, 0.0, 10.5])
        assert summary["accepted"] == 3
        assert summary["invalid"] == 1
        # MA forecasts from a partial window: mean of the 3 valid samples.
        assert summary["predictions"]["ma5"] == pytest.approx(10.5)
        summary = store.ingest("p1", [10.2, 10.1])
        assert summary["predictions"]["ma5"] == pytest.approx(10.36)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            small_store(n_shards=0)
        with pytest.raises(ConfigurationError):
            small_store(max_paths_per_shard=0)
        with pytest.raises(ConfigurationError):
            small_store(specs={})


class TestLru:
    def test_eviction_drops_least_recently_used(self):
        store = small_store(n_shards=1, max_paths_per_shard=2)
        store.ingest("a", [10.0])
        store.ingest("b", [10.0])
        store.get("a")  # refresh a: b is now the LRU entry
        store.ingest("c", [10.0])
        assert store.n_evicted == 1
        assert "b" not in store
        assert "a" in store and "c" in store

    def test_capacity_is_per_shard(self):
        store = small_store(n_shards=2, max_paths_per_shard=1)
        keys = [f"k{i}" for i in range(20)]
        for key in keys:
            store.ingest(key, [10.0])
        # One survivor per shard, never more.
        assert len(store) <= 2
        assert all(size <= 1 for size in store.shard_sizes())


class TestSnapshotRestore:
    def test_round_trip_bit_exact(self):
        store = ShardedStateStore(specs=default_specs(["ma10", "hw"]))
        store.ingest("p1", [50.0, 51.0, 49.5, 52.0, 50.5, 150.0, 50.2])
        store.ingest("p2", [8.0, 8.2, 7.9, 8.1, 8.3])
        doc = json.loads(json.dumps(store.snapshot()))

        clone = ShardedStateStore(specs=default_specs(["ma10", "hw"]))
        assert clone.restore(doc) == 2
        for key in ("p1", "p2"):
            original = store.get(key)
            restored = clone.get(key)
            for name in original:
                assert restored[name].prediction() == original[name].prediction()
                assert restored[name].n_invalid == original[name].n_invalid

    def test_restore_is_portable_across_shard_counts(self):
        store = small_store(n_shards=1)
        store.ingest("p1", [10.0, 11.0])
        clone = small_store(n_shards=2)
        clone.restore(store.snapshot())
        assert "p1" in clone

    def test_save_and_load(self, tmp_path):
        store = small_store()
        store.ingest("p1", [10.0, 11.0, 10.5, 9.9, 10.2])
        path = store.save(tmp_path / "state.json")
        clone = small_store()
        assert clone.load(path) == 1
        assert clone.get("p1")["ma5"].prediction() == store.get("p1")[
            "ma5"
        ].prediction()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            small_store().load(tmp_path / "absent.json")

    def test_load_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(DataError):
            small_store().load(bad)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"snapshot_version": "x", "paths": {}},
            {"snapshot_version": 99, "paths": {}},
            {"snapshot_version": 1},
        ],
    )
    def test_restore_malformed_documents(self, doc):
        with pytest.raises(DataError):
            small_store().restore(doc)


class TestRestoreSkips:
    """Per-entry damage is skipped and counted, never fatal."""

    @pytest.fixture(autouse=True)
    def _telemetry(self, monkeypatch):
        monkeypatch.delenv(ENV_OBS, raising=False)
        get_telemetry().reset()
        yield
        get_telemetry().reset()

    def _skip_events(self):
        return [
            e for e in get_telemetry().drain()["events"]
            if e["kind"] == "serve.snapshot_skip"
        ]

    def _skipped(self):
        return get_telemetry().counter("serve.snapshot_skipped").value

    def test_malformed_entry_skipped_not_raised(self):
        store = small_store()
        store.ingest("good", [10.0, 11.0])
        doc = store.snapshot()
        doc["paths"]["bad"] = "nope"
        clone = small_store()
        assert clone.restore(doc) == 1
        assert "good" in clone and "bad" not in clone
        assert self._skipped() == 1
        assert self._skip_events()[0]["reason"] == "malformed-entry"

    def test_invalid_key_skipped(self):
        store = small_store()
        store.ingest("good", [10.0])
        doc = store.snapshot()
        entry = doc["paths"]["good"]
        doc["paths"]["has space"] = entry
        doc["paths"][""] = entry
        clone = small_store()
        assert clone.restore(doc) == 1
        assert clone.keys() == ["good"]
        assert self._skipped() == 2
        assert all(e["reason"] == "invalid-key" for e in self._skip_events())

    def test_unregistered_predictor_dropped_path_survives(self):
        store = ShardedStateStore(specs=default_specs(["ma5", "ewma"]))
        store.ingest("p1", [10.0, 11.0, 10.5])
        doc = store.snapshot()
        clone = small_store()  # only ma5 registered
        assert clone.restore(doc) == 1
        states = clone.get("p1")
        assert sorted(states) == ["ma5"]
        assert states["ma5"].prediction() == store.get("p1")["ma5"].prediction()
        assert self._skipped() == 1
        assert self._skip_events()[0]["reason"] == "unregistered-predictor:ewma"

    @pytest.mark.parametrize("version", [1, 2])
    def test_recorded_spec_unlike_the_configured_one_starts_fresh(self, version):
        """A state recorded under ``hw`` with another spec (a bare 5-MA)
        is never served as ``hw``: that predictor starts fresh, counted,
        and the rest of the path restores."""
        store = ShardedStateStore(
            specs={
                "hw": replace(SERVE_PREDICTORS["ma5"], lso=None),
                "ma5": SERVE_PREDICTORS["ma5"],
            }
        )
        store.ingest("p1", [10.0, 11.0, 10.5])
        doc = store.snapshot()
        if version == 1:
            doc["snapshot_version"] = 1
            state = doc["paths"]["p1"]["hw"]
            state["spec"] = {
                "predictor": "ma5",
                "lso": False,
                "harden": True,
                "level_shift_threshold": 0.3,
                "outlier_threshold": 0.4,
            }
            doc["paths"]["p1"]["ma5"]["spec"] = {**state["spec"], "lso": True}
        clone = ShardedStateStore(specs=default_specs(["hw", "ma5"]))
        assert clone.restore(doc) == 1
        states = clone.get("p1")
        assert states["hw"].spec == SERVE_PREDICTORS["hw"]
        assert states["hw"].snapshot() == ShardedStateStore(
            specs=default_specs(["hw"])
        ).get_or_create("p1")["hw"].snapshot()
        assert states["ma5"].snapshot() == store.get("p1")["ma5"].snapshot()
        assert self._skipped() == 1
        assert self._skip_events()[0]["reason"] == "spec-mismatch:hw"

    def test_missing_predictor_starts_fresh(self):
        store = small_store()  # ma5 only
        store.ingest("p1", [10.0, 11.0])
        doc = store.snapshot()
        clone = ShardedStateStore(specs=default_specs(["ma5", "ewma"]))
        assert clone.restore(doc) == 1
        states = clone.get("p1")
        assert sorted(states) == ["ewma", "ma5"]
        assert states["ewma"].n_invalid == 0
        assert self._skipped() == 0  # a grown catalog is not damage

    def test_corrupt_predictor_state_skips_path(self):
        store = small_store()
        store.ingest("p1", [10.0])
        store.ingest("p2", [11.0])
        doc = store.snapshot()
        doc["paths"]["p1"]["ma5"] = {"bogus": True}
        clone = small_store()
        assert clone.restore(doc) == 1
        assert "p2" in clone and "p1" not in clone
        assert self._skip_events()[0]["reason"] == "corrupt-state"

    @pytest.mark.parametrize("bad", [0.0, -4.0, float("nan"), float("inf")])
    def test_invalid_history_sample_skips_path(self, bad):
        """Regression: restore used to accept a sample ingest refuses,
        which later failed with a bare ValueError (0.0, negatives) or
        served NaN forecasts (NaN)."""
        store = small_store()
        store.ingest("p1", [10.0, 10.4, 9.9])
        store.ingest("p2", [11.0])
        doc = json.loads(json.dumps(store.snapshot()))
        doc["paths"]["p1"]["ma5"]["state"]["history"][1] = bad
        clone = small_store()
        assert clone.restore(doc) == 1
        assert "p2" in clone and "p1" not in clone
        assert self._skipped() == 1
        assert self._skip_events()[0]["reason"] == "corrupt-state"

    def test_negative_counter_skips_path(self):
        store = small_store()
        store.ingest("p1", [10.0, 10.4])
        doc = store.snapshot()
        doc["paths"]["p1"]["ma5"]["state"]["n_level_shifts"] = -1
        clone = small_store()
        assert clone.restore(doc) == 0
        assert self._skipped() == 1
        assert self._skip_events()[0]["reason"] == "corrupt-state"

    def test_shard_capacity_skips_overflow(self):
        store = small_store(n_shards=1, max_paths_per_shard=16)
        for i in range(5):
            store.ingest(f"k{i}", [10.0])
        doc = store.snapshot()
        clone = small_store(n_shards=1, max_paths_per_shard=2)
        assert clone.restore(doc) == 2
        assert len(clone) == 2
        assert self._skipped() == 3
        assert all(e["reason"] == "shard-full" for e in self._skip_events())
