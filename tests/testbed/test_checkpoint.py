"""The per-trace checkpoint store."""

import shutil

import pytest

from repro.paths.config import may_2004_catalog, scaled_catalog
from repro.testbed.cache import campaign_cache_key
from repro.testbed.campaign import Campaign, CampaignSettings
from repro.testbed.checkpoint import CheckpointStore, default_checkpoint_dir
from tests.faults import counter_value, telemetry  # noqa: F401
from tests.testbed.entry_damage import DAMAGE, Tripwire

SETTINGS = CampaignSettings(n_traces=2, epochs_per_trace=3)
RUN_KEY = "deadbeef" * 8


def small_campaign(seed=0, n_paths=2):
    return Campaign(scaled_catalog(may_2004_catalog(), n_paths), seed=seed)


def one_trace(seed=0, trace_index=0):
    campaign = small_campaign(seed=seed)
    return campaign.run_trace(campaign.catalog[0], trace_index, SETTINGS)


class TestCheckpointStore:
    def test_store_and_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        trace = one_trace()
        path = store.store_trace(RUN_KEY, trace)
        assert path.is_file()
        loaded = store.load_trace(RUN_KEY, trace.path_id, trace.trace_index)
        assert loaded == trace
        for a, b in zip(loaded, trace):
            assert a == b
            assert a.truth == b.truth

    def test_load_absent_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load_trace(RUN_KEY, "p01", 0) is None

    def test_each_trace_is_one_entry_under_its_run(self, tmp_path):
        store = CheckpointStore(tmp_path)
        t0 = one_trace(trace_index=0)
        t1 = one_trace(trace_index=1)
        store.store_trace(RUN_KEY, t0)
        store.store_trace(RUN_KEY, t1)
        assert sorted(p.name for p in store.run_dir(RUN_KEY).iterdir()) == [
            f"{t0.path_id}.t0.npz",
            f"{t1.path_id}.t1.npz",
        ]

    def test_run_keys_are_isolated(self, tmp_path):
        store = CheckpointStore(tmp_path)
        trace = one_trace()
        store.store_trace(RUN_KEY, trace)
        assert store.load_trace("f" * 64, trace.path_id, trace.trace_index) is None
        assert not store.run_dir("f" * 64).exists()

    def test_corrupt_entry_quarantined(self, tmp_path):
        store = CheckpointStore(tmp_path)
        trace = one_trace()
        path = store.store_trace(RUN_KEY, trace)
        path.write_text("garbage\n")
        assert store.load_trace(RUN_KEY, trace.path_id, trace.trace_index) is None
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").is_file()

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_entry_quarantined_and_resimulated(
        self, tmp_path, telemetry, damage
    ):
        """A damaged entry is quarantined and counted; a resumed run
        loads every intact checkpoint, re-simulates the damaged one and
        equals an uninterrupted run."""
        reference = small_campaign().run(SETTINGS)
        store = CheckpointStore(tmp_path)
        run_key = campaign_cache_key(small_campaign(), SETTINGS)
        for trace in reference.traces:
            store.store_trace(run_key, trace)
        damaged = store.trace_path(run_key, "p01", 1)
        DAMAGE[damage](damaged)
        telemetry.drain()
        assert store.load_trace(run_key, "p01", 1) is None
        assert damaged.with_name(damaged.name + ".corrupt").is_file()
        assert counter_value(telemetry, "checkpoint.corrupt") == 1

        store.store_trace(run_key, reference.traces[1])
        DAMAGE[damage](damaged)
        telemetry.drain()
        resumed = small_campaign().run(SETTINGS, checkpoint=store, resume=True)
        assert resumed == reference
        assert counter_value(telemetry, "checkpoint.corrupt") == 1
        assert counter_value(telemetry, "campaign.traces_resumed") == 3
        assert counter_value(telemetry, "campaign.traces_attempted") == 1
        assert not Tripwire.tripped

    def test_mislabeled_entry_quarantined(self, tmp_path):
        """An entry whose contents disagree with its filename is corrupt."""
        store = CheckpointStore(tmp_path)
        trace = one_trace(trace_index=0)
        path = store.store_trace(RUN_KEY, trace)
        wrong = store.trace_path(RUN_KEY, trace.path_id, 1)
        shutil.copy(path, wrong)
        assert store.load_trace(RUN_KEY, trace.path_id, 1) is None
        assert wrong.with_name(wrong.name + ".corrupt").is_file()

    def test_store_leaves_no_temp_files(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.store_trace(RUN_KEY, one_trace())
        assert not list(store.run_dir(RUN_KEY).glob("*.tmp"))

    def test_discard_removes_run(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.store_trace(RUN_KEY, one_trace())
        store.discard(RUN_KEY)
        assert not store.run_dir(RUN_KEY).exists()
        store.discard(RUN_KEY)  # idempotent

    def test_env_var_overrides_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "elsewhere"))
        assert default_checkpoint_dir() == tmp_path / "elsewhere"
        assert CheckpointStore().root == tmp_path / "elsewhere"

    def test_default_dir_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        assert default_checkpoint_dir().name == "checkpoints"
