"""The content-addressed dataset cache."""

import csv

import pytest

from repro.paths.config import may_2004_catalog, scaled_catalog
from repro.testbed.cache import (
    DatasetCache,
    campaign_cache_key,
    default_cache_dir,
    run_cached,
)
from repro.testbed.campaign import Campaign, CampaignSettings

SETTINGS = CampaignSettings(n_traces=1, epochs_per_trace=4)


def small_campaign(seed=0, n_paths=2):
    return Campaign(
        scaled_catalog(may_2004_catalog(), n_paths), seed=seed, label="cache-test"
    )


class TestCacheKey:
    def test_stable_across_instances(self):
        assert campaign_cache_key(small_campaign(), SETTINGS) == campaign_cache_key(
            small_campaign(), SETTINGS
        )

    def test_changes_with_seed(self):
        assert campaign_cache_key(small_campaign(seed=1), SETTINGS) != (
            campaign_cache_key(small_campaign(seed=2), SETTINGS)
        )

    def test_changes_with_settings(self):
        other = CampaignSettings(n_traces=1, epochs_per_trace=5)
        assert campaign_cache_key(small_campaign(), SETTINGS) != (
            campaign_cache_key(small_campaign(), other)
        )

    def test_changes_with_catalog(self):
        assert campaign_cache_key(small_campaign(n_paths=2), SETTINGS) != (
            campaign_cache_key(small_campaign(n_paths=3), SETTINGS)
        )


class TestDatasetCache:
    def test_miss_then_hit_equal_dataset(self, tmp_path):
        cache = DatasetCache(tmp_path)
        first, hit_first = run_cached(small_campaign(), SETTINGS, cache=cache)
        second, hit_second = run_cached(small_campaign(), SETTINGS, cache=cache)
        assert (hit_first, hit_second) == (False, True)
        assert second == first

    def test_hit_preserves_truth_records(self, tmp_path):
        cache = DatasetCache(tmp_path)
        fresh, _ = run_cached(small_campaign(), SETTINGS, cache=cache)
        cached, hit = run_cached(small_campaign(), SETTINGS, cache=cache)
        assert hit
        for a, b in zip(cached.epochs(), fresh.epochs()):
            assert a.truth == b.truth

    def test_hit_skips_simulation(self, tmp_path):
        cache = DatasetCache(tmp_path)
        run_cached(small_campaign(), SETTINGS, cache=cache)
        snapshots = []
        _, hit = run_cached(
            small_campaign(), SETTINGS, cache=cache, progress=snapshots.append
        )
        assert hit
        assert snapshots == []  # nothing was simulated

    def test_different_settings_are_different_entries(self, tmp_path):
        cache = DatasetCache(tmp_path)
        run_cached(small_campaign(), SETTINGS, cache=cache)
        other = CampaignSettings(n_traces=1, epochs_per_trace=3)
        _, hit = run_cached(small_campaign(), other, cache=cache)
        assert not hit

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DatasetCache(tmp_path)
        campaign = small_campaign()
        key = campaign_cache_key(campaign, SETTINGS)
        run_cached(campaign, SETTINGS, cache=cache)
        cache.path_for(key).write_text("garbage\n")
        dataset, hit = run_cached(small_campaign(), SETTINGS, cache=cache)
        assert not hit
        assert len(dataset.epochs()) == 8
        # The bad entry was overwritten with a good one.
        assert cache.load(key) is not None

    def test_binary_garbage_entry_is_a_miss(self, tmp_path, monkeypatch):
        """Non-UTF-8 bytes raise UnicodeDecodeError, not DataError — the
        load must still degrade to a miss instead of crashing the run."""
        monkeypatch.delenv("REPRO_OBS", raising=False)
        from repro.obs import get_telemetry

        telemetry = get_telemetry()
        telemetry.drain()
        cache = DatasetCache(tmp_path)
        campaign = small_campaign()
        key = campaign_cache_key(campaign, SETTINGS)
        cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_bytes(b"\xff\xfe\x00garbage\x00")
        assert cache.load(key) is None
        assert telemetry.metrics.counter("cache.corrupt").value == 1
        telemetry.drain()

    def test_corrupt_entry_is_quarantined(self, tmp_path):
        cache = DatasetCache(tmp_path)
        campaign = small_campaign()
        key = campaign_cache_key(campaign, SETTINGS)
        run_cached(campaign, SETTINGS, cache=cache)
        entry = cache.path_for(key)
        entry.write_text("garbage\n")
        assert cache.load(key) is None
        assert not entry.exists()
        quarantined = entry.with_name(entry.name + ".corrupt")
        assert quarantined.is_file()
        assert quarantined.read_text() == "garbage\n"

    def test_unparsable_number_is_quarantined_and_resimulated(self, tmp_path):
        cache = DatasetCache(tmp_path)
        key = campaign_cache_key(small_campaign(), SETTINGS)
        simulated, _ = run_cached(small_campaign(), SETTINGS, cache=cache)
        entry = cache.path_for(key)
        rows = list(csv.reader(entry.open(newline="")))
        rows[2][rows[1].index("ahat_mbps")] = "abc"
        with entry.open("w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        rerun, hit = run_cached(small_campaign(), SETTINGS, cache=cache)
        assert not hit
        assert rerun == simulated
        assert entry.with_name(entry.name + ".corrupt").is_file()
        assert cache.load(key) == simulated

    def test_store_and_load_roundtrip(self, tmp_path):
        cache = DatasetCache(tmp_path)
        dataset = small_campaign().run(SETTINGS)
        path = cache.store("somekey", dataset)
        assert path.is_file()
        assert cache.contains("somekey")
        assert cache.load("somekey") == dataset

    def test_load_missing_key(self, tmp_path):
        assert DatasetCache(tmp_path).load("absent") is None

    def test_env_var_overrides_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        assert DatasetCache().root == tmp_path / "elsewhere"

    def test_default_dir_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().name == "datasets"

    def test_parallel_miss_matches_serial_miss(self, tmp_path):
        serial, _ = run_cached(
            small_campaign(), SETTINGS, cache=DatasetCache(tmp_path / "a")
        )
        parallel, _ = run_cached(
            small_campaign(),
            SETTINGS,
            n_workers=2,
            cache=DatasetCache(tmp_path / "b"),
        )
        assert parallel == serial
