"""End-to-end telemetry: a campaign's manifest matches its dataset.

The acceptance contract of the obs subsystem: running ``repro-campaign``
produces ``manifest.json`` + ``events.jsonl`` whose trace and epoch
counts, phase timings, and cache hit/miss flags agree with the dataset
that was written — serial or parallel, miss or hit — and ``REPRO_OBS=0``
turns all of it off.
"""

import time

import pytest

from repro.cli import campaign as campaign_cli
from repro.obs import load_manifest, read_events, sidecar_paths
from repro.testbed.io import load_dataset


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)


ARGS = ["--paths", "2", "--traces", "2", "--epochs", "3", "--quiet"]


def run_cli(tmp_path, name, extra=()):
    out = tmp_path / name
    assert campaign_cli.main(ARGS + list(extra) + ["-o", str(out)]) == 0
    return out


def counters_of(manifest):
    return {c["name"]: c["value"] for c in manifest["counters"]}


class TestManifestMatchesDataset:
    def test_epoch_counts_and_phase_timers(self, tmp_path):
        dataset_path = run_cli(tmp_path, "ds.csv")
        dataset = load_dataset(dataset_path)
        manifest_path, events_path = sidecar_paths(dataset_path)
        manifest = load_manifest(manifest_path)

        n_epochs = len(dataset.epochs())
        n_traces = len(dataset.traces)
        assert manifest["counts"]["epochs"] == n_epochs == 12
        assert manifest["counts"]["traces"] == n_traces == 4
        assert counters_of(manifest)["epochs.simulated"] == n_epochs

        # Every fluid trace contributes one sample to each phase timer.
        timers = {
            (t["name"], t["tags"].get("phase")): t for t in manifest["timers"]
        }
        for phase in ("load", "pathload", "ping", "iperf"):
            assert timers[("epoch.phase_s", phase)]["count"] == n_traces
        assert timers[("epoch.wall_s", None)]["count"] == n_traces

        # One trace event per dataset trace, whose epoch and regime
        # counts match that trace's CSV rows; no per-epoch events.
        events = read_events(manifest_path)
        assert not [e for e in events if e["kind"] == "epoch"]
        trace_events = {
            (e["path"], e["trace"]): e for e in events if e["kind"] == "trace"
        }
        assert len(trace_events) == len([e for e in events if e["kind"] == "trace"])
        assert set(trace_events) == {
            (t.path_id, t.trace_index) for t in dataset.traces
        }
        assert sum(e["epochs"] for e in trace_events.values()) == n_epochs
        for trace in dataset.traces:
            event = trace_events[(trace.path_id, trace.trace_index)]
            assert event["epochs"] == len(trace)
            assert event["regimes"] == {
                regime: sum(m.truth.regime == regime for m in trace)
                for regime in ("window", "loss", "congestion")
            }
        assert events_path.is_file()

    def test_wall_time_covers_output_write(self, tmp_path, monkeypatch):
        # The CLI imports the writer on the miss path, from its module.
        from repro.testbed import io

        real_save = io.save_dataset

        def slow_save(dataset, path):
            time.sleep(0.2)
            return real_save(dataset, path)

        monkeypatch.setattr(io, "save_dataset", slow_save)
        dataset_path = run_cli(tmp_path, "ds.csv", ["--no-cache"])
        manifest = load_manifest(sidecar_paths(dataset_path)[0])
        assert manifest["wall_time_s"] >= 0.2

    def test_cache_flags_miss_then_hit(self, tmp_path):
        first = run_cli(tmp_path, "first.csv")
        second = run_cli(tmp_path, "second.csv")

        miss = load_manifest(sidecar_paths(first)[0])
        hit = load_manifest(sidecar_paths(second)[0])
        assert miss["cache"] == {"hit": False}
        assert counters_of(miss)["cache.misses"] == 1
        assert counters_of(miss)["cache.hits"] == 0
        assert hit["cache"] == {"hit": True}
        assert counters_of(hit)["cache.hits"] == 1
        assert counters_of(hit)["epochs.simulated"] == 0

    def test_manifest_written_next_to_cache_entry(self, tmp_path):
        run_cli(tmp_path, "ds.csv")
        cache_dir = tmp_path / "dataset-cache"
        entries = list(cache_dir.glob("*.npz"))
        assert len(entries) == 1
        manifest_path, events_path = sidecar_paths(entries[0])
        assert manifest_path.is_file() and events_path.is_file()
        assert load_manifest(manifest_path)["cache"] == {"hit": False}

    def test_parallel_telemetry_matches_serial(self, tmp_path):
        serial = run_cli(tmp_path, "serial.csv", ["--no-cache"])
        parallel = run_cli(
            tmp_path, "parallel.csv", ["--no-cache", "--workers", "3"]
        )
        manifest_s = load_manifest(sidecar_paths(serial)[0])
        manifest_p = load_manifest(sidecar_paths(parallel)[0])
        assert counters_of(manifest_s) == counters_of(manifest_p)
        # Worker events merge in job order: identical trace records.
        records = lambda path: [
            (e["path"], e["trace"], e["epochs"], e["regimes"])
            for e in read_events(sidecar_paths(path)[0])
            if e["kind"] == "trace"
        ]
        assert len(records(serial)) == 4
        assert records(serial) == records(parallel)

    def test_progress_gauges_published(self, tmp_path):
        dataset_path = run_cli(tmp_path, "ds.csv", ["--no-cache"])
        manifest = load_manifest(sidecar_paths(dataset_path)[0])
        gauges = {g["name"]: g["value"] for g in manifest["gauges"]}
        assert gauges["campaign.traces_done"] == gauges["campaign.traces_total"] == 4
        assert gauges["campaign.epochs_done"] == gauges["campaign.epochs_total"] == 12


class TestKillSwitch:
    def test_no_sidecars_when_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "0")
        dataset_path = run_cli(tmp_path, "off.csv")
        manifest_path, events_path = sidecar_paths(dataset_path)
        assert dataset_path.is_file()
        assert not manifest_path.exists()
        assert not events_path.exists()

    def test_dataset_identical_with_and_without_telemetry(self, tmp_path, monkeypatch):
        with_obs = run_cli(tmp_path, "on.csv", ["--no-cache"])
        monkeypatch.setenv("REPRO_OBS", "0")
        without_obs = run_cli(tmp_path, "off.csv", ["--no-cache"])
        assert with_obs.read_text() == without_obs.read_text()
