"""The content-addressed dataset cache."""

import importlib
import json
import os
import shutil
import subprocess
import sys
import zipfile
from importlib.util import spec_from_file_location
from pathlib import Path

import pytest

from repro.paths.config import may_2004_catalog, scaled_catalog
from repro.testbed import cache as cache_module
from repro.core.errors import DataError
from repro.testbed.io import dataset_csv
from repro.testbed.cache import (
    COUNTS_MEMBER,
    CSV_MEMBER,
    DatasetCache,
    campaign_cache_key,
    default_cache_dir,
    read_served,
    run_cached,
)
from repro.testbed.campaign import Campaign, CampaignSettings
from tests.faults import counter_value, telemetry  # noqa: F401
from tests.testbed.entry_damage import (
    CACHE_DAMAGE,
    Tripwire,
    replace_member,
    shorten_column,
    text_member,
)

SETTINGS = CampaignSettings(n_traces=1, epochs_per_trace=4)

#: Damage to the stored CSV alone, which only a reader of it can see.
CSV_DAMAGE = ["flipped-csv-byte", "missing-csv"]


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

    def test_changes_with_code_fingerprint(self, monkeypatch):
        key = campaign_cache_key(small_campaign(), SETTINGS)
        monkeypatch.setattr(cache_module, "code_fingerprint", lambda: "edited")
        assert campaign_cache_key(small_campaign(), SETTINGS) != key

    @pytest.mark.parametrize(
        "module_name, edited",
        [
            ("repro.fastpath", "vector.py"),
            ("repro.formulas", "pftk.py"),
            ("repro.paths", "config.py"),
            ("repro.core.rng", None),
            ("repro.testbed.campaign", None),
            ("repro.testbed.io", None),
            ("repro.core.store", None),
        ],
    )
    def test_code_fingerprint_covers_engine_sources(
        self, tmp_path, monkeypatch, module_name, edited
    ):
        """Editing a copy of any module that decides a campaign's output
        changes the fingerprint (``edited=None``: a plain module).  The
        fingerprint finds a module's source through its spec, so the
        module's spec is pointed at the copy."""
        module = importlib.import_module(module_name)
        source = Path(module.__spec__.origin)
        if edited is None:
            copy = target = tmp_path / source.name
            shutil.copy(source, copy)
            spec = spec_from_file_location(module_name, copy)
        else:
            shutil.copytree(source.parent, tmp_path / source.parent.name)
            copy = tmp_path / source.parent.name / "__init__.py"
            target = copy.parent / edited
            spec = spec_from_file_location(
                module_name, copy, submodule_search_locations=[str(copy.parent)]
            )
        monkeypatch.setattr(module, "__spec__", spec)
        fingerprint = cache_module.code_fingerprint.__wrapped__
        assert fingerprint() == cache_module.code_fingerprint()
        target.write_text(target.read_text() + "\n# edited\n")
        assert fingerprint() != cache_module.code_fingerprint()

    def test_code_fingerprint_imports_no_module_it_covers(self):
        """Keying a campaign reads the covered sources by name, so a
        cache hit never imports them (the engine, numpy, the writer)."""
        probe = (
            "import json, sys\n"
            "from repro.testbed.cache import code_fingerprint\n"
            "code_fingerprint()\n"
            "json.dump(sorted(sys.modules), sys.stdout)\n"
        )
        src = Path(cache_module.__file__).resolve().parents[2]
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={**env, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        loaded = set(json.loads(done.stdout))
        covered = {
            "repro.fastpath",
            "repro.formulas",
            "repro.paths",
            "repro.core.rng",
            "repro.testbed.campaign",
            "repro.testbed.io",
        }
        assert not loaded & (covered | {"numpy"})


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

    def test_code_change_misses_and_resimulates(self, tmp_path, monkeypatch):
        cache = DatasetCache(tmp_path)
        first, _ = run_cached(small_campaign(), SETTINGS, cache=cache)
        monkeypatch.setattr(cache_module, "code_fingerprint", lambda: "edited")
        snapshots = []
        again, hit = run_cached(
            small_campaign(), SETTINGS, cache=cache, progress=snapshots.append
        )
        assert not hit
        assert snapshots  # simulated, not loaded
        assert again == first
        assert len(list(tmp_path.glob("*.npz"))) == 2

    def test_miss_defaults_to_one_job_per_path(self, tmp_path, monkeypatch):
        """A miss runs the campaign as one engine job per path."""
        from repro.testbed import executor

        job_sizes = []
        real_run_jobs = executor.run_jobs

        def spy(name, work, shared, jobs, **kwargs):
            job_sizes.append([len(job) for job in jobs])
            return real_run_jobs(name, work, shared, jobs, **kwargs)

        monkeypatch.setattr(executor, "run_jobs", spy)
        settings = CampaignSettings(n_traces=2, epochs_per_trace=4)
        run_cached(small_campaign(), settings, cache=DatasetCache(tmp_path))
        assert job_sizes == [[2, 2]]

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
        """An entry whose ``ahat_mbps`` member holds text ("abc" first)."""
        cache = DatasetCache(tmp_path)
        key = campaign_cache_key(small_campaign(), SETTINGS)
        simulated, _ = run_cached(small_campaign(), SETTINGS, cache=cache)
        entry = cache.path_for(key)
        text_member(entry)
        rerun, hit = run_cached(small_campaign(), SETTINGS, cache=cache)
        assert not hit
        assert rerun == simulated
        assert entry.with_name(entry.name + ".corrupt").is_file()
        assert cache.load(key).dataset() == simulated

    @pytest.mark.parametrize("damage", sorted(set(CACHE_DAMAGE) - set(CSV_DAMAGE)))
    def test_damaged_entry_is_quarantined_and_resimulated(
        self, tmp_path, telemetry, damage
    ):
        cache = DatasetCache(tmp_path)
        key = campaign_cache_key(small_campaign(), SETTINGS)
        simulated, _ = run_cached(small_campaign(), SETTINGS, cache=cache)
        entry = cache.path_for(key)
        CACHE_DAMAGE[damage](entry)
        telemetry.drain()
        snapshots = []
        rerun, hit = run_cached(
            small_campaign(), SETTINGS, cache=cache, progress=snapshots.append
        )
        assert not hit
        assert snapshots  # simulated, not loaded
        assert rerun == simulated
        assert entry.with_name(entry.name + ".corrupt").is_file()
        assert counter_value(telemetry, "cache.corrupt") == 1
        assert cache.load(key).dataset() == simulated
        assert not Tripwire.tripped

    @pytest.mark.parametrize("damage", CSV_DAMAGE)
    def test_damaged_csv_is_quarantined_by_its_reader_only(
        self, tmp_path, telemetry, damage
    ):
        """:func:`run_cached` reads the columns, never the stored CSV, so
        damage to the CSV alone leaves its hit whole; the CLI's read of
        the CSV (``columns=False``) quarantines the entry."""
        cache = DatasetCache(tmp_path)
        key = campaign_cache_key(small_campaign(), SETTINGS)
        simulated, _ = run_cached(small_campaign(), SETTINGS, cache=cache)
        entry = cache.path_for(key)
        CACHE_DAMAGE[damage](entry)
        telemetry.drain()
        served, hit = run_cached(small_campaign(), SETTINGS, cache=cache)
        assert hit and served == simulated
        assert counter_value(telemetry, "cache.corrupt") == 0
        assert cache.load(key) is None
        assert entry.with_name(entry.name + ".corrupt").is_file()
        assert counter_value(telemetry, "cache.corrupt") == 1

    def test_columns_hit_reads_counts_and_columns_in_one_open(
        self, tmp_path, monkeypatch
    ):
        cache = DatasetCache(tmp_path)
        simulated, _ = run_cached(small_campaign(), SETTINGS, cache=cache)
        opened, members = [], []
        init, open_member = zipfile.ZipFile.__init__, zipfile.ZipFile.open

        def recording_init(self, file, *args, **kwargs):
            opened.append(file)
            init(self, file, *args, **kwargs)

        def recording_open(self, name, *args, **kwargs):
            members.append(getattr(name, "filename", name))
            return open_member(self, name, *args, **kwargs)

        monkeypatch.setattr(zipfile.ZipFile, "__init__", recording_init)
        monkeypatch.setattr(zipfile.ZipFile, "open", recording_open)
        served, hit = run_cached(small_campaign(), SETTINGS, cache=cache)
        assert hit and served == simulated
        assert len(opened) == 1
        assert COUNTS_MEMBER in members and "index.npy" in members
        assert CSV_MEMBER not in members

    def test_store_and_load_roundtrip(self, tmp_path):
        cache = DatasetCache(tmp_path)
        dataset = small_campaign().run(SETTINGS)
        path = cache.store("somekey", dataset)
        assert path.is_file()
        assert cache.contains("somekey")
        assert cache.load("somekey").dataset() == dataset

    @pytest.mark.parametrize(
        "counts",
        [
            {"label": 7, "paths": 2, "traces": 2, "epochs": 8},
            {"label": "x", "paths": -1, "traces": 2, "epochs": 8},
            {"label": "x", "paths": 2, "traces": True, "epochs": 8},
            {"label": "x", "paths": 2, "traces": 2, "epochs": 8.0},
            {"label": "x", "paths": 2, "traces": 2},
            ["x", 2, 2, 8],
        ],
    )
    def test_malformed_counts_are_not_served(self, tmp_path, telemetry, counts):
        cache = DatasetCache(tmp_path)
        cache.store("key", small_campaign().run(SETTINGS))
        entry = cache.path_for("key")
        replace_member(entry, COUNTS_MEMBER, json.dumps(counts).encode())
        with pytest.raises(DataError):
            read_served(entry)
        telemetry.drain()
        assert cache.load("key") is None
        assert counter_value(telemetry, "cache.corrupt") == 1
        assert entry.with_name(entry.name + ".corrupt").is_file()

    def test_damaged_columns_matter_only_to_readers_of_columns(self, tmp_path):
        """A hit serving the CSV reads no column; ``columns=True`` (what
        :func:`run_cached` asks for) quarantines the same entry."""
        cache = DatasetCache(tmp_path)
        dataset = small_campaign().run(SETTINGS)
        cache.store("key", dataset)
        shorten_column(cache.path_for("key"))
        entry = cache.load("key")
        assert entry.csv == dataset_csv(dataset)
        with pytest.raises(DataError):
            entry.dataset()
        assert cache.load("key", columns=True) is None
        assert not cache.contains("key")

    def test_counts_must_agree_with_the_columns(self, tmp_path):
        cache = DatasetCache(tmp_path)
        cache.store("key", small_campaign().run(SETTINGS))
        counts = {"label": "cache-test", "paths": 2, "traces": 2, "epochs": 9}
        entry = cache.path_for("key")
        replace_member(entry, COUNTS_MEMBER, json.dumps(counts).encode())
        with pytest.raises(DataError, match="columns hold"):
            cache.load("key").dataset()
        assert cache.load("key", columns=True) is None

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
