"""Run manifests: write -> load round-trip, resolution, rendering."""

import json

import pytest

from repro.core.errors import DataError
from repro.obs.recorder import (
    ANALYSIS_CORE_COUNTERS,
    MANIFEST_VERSION,
    RunRecorder,
    analysis_sidecar_paths,
    load_manifest,
    read_events,
    resolve_manifest,
    sidecar_paths,
    write_manifest,
)
from repro.obs.render import compare_report, slowest_report, summary_report
from repro.obs.telemetry import ENV_OBS, Telemetry


@pytest.fixture
def tele(monkeypatch):
    monkeypatch.delenv(ENV_OBS, raising=False)
    return Telemetry()


def make_recorder(tele, **kwargs):
    defaults = dict(
        label="may2004",
        seed=7,
        catalog_hash="cafe" * 16,
        cache_key="feed" * 16,
        settings={"n_traces": 2, "epochs_per_trace": 5},
        workers=3,
        run_id="testrun000001",
        telemetry=tele,
    )
    defaults.update(kwargs)
    return RunRecorder(**defaults)


def record_small_run(tele):
    recorder = make_recorder(tele).start()
    tele.record_phases("packet_epoch", {"ping": 0.01, "iperf": 0.03},
                       path="p01", trace=0, epoch=0, regime="congestion")
    tele.record_phases("packet_epoch", {"ping": 0.02, "iperf": 0.30},
                       path="p01", trace=0, epoch=1, regime="window")
    tele.counter("cache.misses").inc()
    recorder.finish(cache_hit=False, n_paths=1, n_traces=1, n_epochs=2)
    return recorder


class TestSidecarPaths:
    def test_csv_dataset(self, tmp_path):
        manifest, events = sidecar_paths(tmp_path / "may.csv")
        assert manifest.name == "may.manifest.json"
        assert events.name == "may.events.jsonl"

    def test_suffixless_dataset(self, tmp_path):
        manifest, events = sidecar_paths(tmp_path / "run1")
        assert manifest.name == "run1.manifest.json"
        assert events.name == "run1.events.jsonl"


class TestRoundTrip:
    def test_write_then_load(self, tele, tmp_path):
        recorder = record_small_run(tele)
        dataset = tmp_path / "ds.csv"
        manifest_path, events_path = recorder.write(dataset)
        assert manifest_path.is_file() and events_path.is_file()

        manifest = load_manifest(manifest_path)
        assert manifest["manifest_version"] == MANIFEST_VERSION
        assert manifest["run_id"] == "testrun000001"
        assert manifest["label"] == "may2004"
        assert manifest["seed"] == 7
        assert manifest["catalog_hash"] == "cafe" * 16
        assert manifest["counts"] == {"paths": 1, "traces": 1, "epochs": 2}
        assert manifest["cache"] == {"hit": False}
        assert manifest["events"]["count"] == 2
        assert manifest["events"]["by_kind"] == {"packet_epoch": 2}

        counters = {c["name"]: c["value"] for c in manifest["counters"]}
        assert counters["epochs.simulated"] == 2
        assert counters["cache.misses"] == 1
        # Core counters are always present, even at zero.
        assert counters["cache.hits"] == 0
        assert counters["simnet.events_processed"] == 0

        timers = {
            (t["name"], tuple(sorted(t["tags"].items()))): t
            for t in manifest["timers"]
        }
        ping = timers[("epoch.phase_s", (("phase", "ping"),))]
        assert ping["count"] == 2
        assert ping["p50"] == pytest.approx(0.01)
        assert ping["max"] == pytest.approx(0.02)

    def test_events_jsonl_round_trip(self, tele, tmp_path):
        recorder = record_small_run(tele)
        manifest_path, _ = recorder.write(tmp_path / "ds.csv")
        events = read_events(manifest_path)
        assert len(events) == 2
        assert events[0]["kind"] == "packet_epoch"
        assert events[0]["run"] == "testrun000001"
        assert events[1]["regime"] == "window"

    def test_write_before_finish_raises(self, tele, tmp_path):
        with pytest.raises(DataError):
            make_recorder(tele).start().write(tmp_path / "ds.csv")

    def test_finish_records_wall_time(self, tele):
        recorder = record_small_run(tele)
        assert recorder.manifest["wall_time_s"] >= 0.0

    def test_start_clears_previous_run(self, tele):
        tele.counter("stale").inc(99)
        recorder = make_recorder(tele).start()
        manifest = recorder.finish()
        names = {c["name"] for c in manifest["counters"]}
        assert "stale" not in names

    def test_write_is_atomic_no_temp_leftovers(self, tele, tmp_path):
        recorder = record_small_run(tele)
        recorder.write(tmp_path / "ds.csv")
        assert not list(tmp_path.glob("*.tmp")) and not list(
            tmp_path.glob(".*.tmp")
        )

    def test_rewrite_replaces_sidecars_whole(self, tele, tmp_path):
        """A second write atomically replaces both sidecars: the reader
        sees either the old pair or the new pair, never a torn file."""
        recorder = record_small_run(tele)
        manifest_path, events_path = recorder.write(tmp_path / "ds.csv")
        first = manifest_path.read_text()
        recorder.write(tmp_path / "ds.csv")
        assert load_manifest(manifest_path)["run_id"] == "testrun000001"
        assert manifest_path.read_text() == first
        assert len(read_events(manifest_path)) == 2
        assert events_path.read_text().count("\n") == 2


class TestLoadValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no manifest"):
            load_manifest(tmp_path / "nope.manifest.json")

    def test_not_json(self, tmp_path):
        bad = tmp_path / "x.manifest.json"
        bad.write_text("{not json")
        with pytest.raises(DataError, match="not valid JSON"):
            load_manifest(bad)

    def test_json_but_not_a_manifest(self, tmp_path):
        bad = tmp_path / "x.manifest.json"
        bad.write_text(json.dumps({"hello": 1}))
        with pytest.raises(DataError, match="manifest_version"):
            load_manifest(bad)

    def test_future_version_rejected(self, tmp_path):
        bad = tmp_path / "x.manifest.json"
        bad.write_text(json.dumps({"manifest_version": MANIFEST_VERSION + 1}))
        with pytest.raises(DataError, match="newer"):
            load_manifest(bad)

    def test_pre_v1_version_rejected_with_one_liner(self, tmp_path):
        bad = tmp_path / "x.manifest.json"
        bad.write_text(json.dumps({"manifest_version": 0}))
        with pytest.raises(DataError, match="integer >= 1"):
            load_manifest(bad)

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000 + "]" * 100_000, '{"manifest_version": ' + "9" * 5000 + "}"],
        ids=["deep-nesting", "overlong-integer"],
    )
    def test_undecodable_json_is_a_data_error(self, tmp_path, text):
        """What the JSON decoder refuses past a syntax error (recursion,
        an integer longer than Python converts) is one ``DataError``."""
        bad = tmp_path / "x.manifest.json"
        bad.write_text(text)
        with pytest.raises(DataError, match="is not valid JSON"):
            load_manifest(bad)

    def test_non_integer_version_rejected_not_traceback(self, tmp_path):
        # Historically a string version crashed with a raw TypeError on
        # the `version > MANIFEST_VERSION` comparison.
        for bogus in ("2", 1.5, None, True):
            bad = tmp_path / "x.manifest.json"
            bad.write_text(json.dumps({"manifest_version": bogus}))
            with pytest.raises(DataError, match="invalid manifest_version"):
                load_manifest(bad)

    def test_v1_manifest_defaults_to_campaign_kind(self, tmp_path):
        old = tmp_path / "x.manifest.json"
        old.write_text(json.dumps({"manifest_version": 1, "run_id": "r1"}))
        assert load_manifest(old)["kind"] == "campaign"


class TestResolve:
    def test_from_dataset_path(self, tele, tmp_path):
        recorder = record_small_run(tele)
        dataset = tmp_path / "ds.csv"
        manifest_path, _ = recorder.write(dataset)
        assert resolve_manifest(dataset) == manifest_path
        assert resolve_manifest(manifest_path) == manifest_path

    def test_from_directory_with_one_manifest(self, tele, tmp_path):
        recorder = record_small_run(tele)
        manifest_path, _ = recorder.write(tmp_path / "ds.csv")
        assert resolve_manifest(tmp_path) == manifest_path

    def test_ambiguous_directory(self, tele, tmp_path):
        record_small_run(tele).write(tmp_path / "a.csv")
        record_small_run(tele).write(tmp_path / "b.csv")
        with pytest.raises(DataError, match="multiple"):
            resolve_manifest(tmp_path)

    def test_nothing_found(self, tmp_path):
        with pytest.raises(DataError, match="no manifest"):
            resolve_manifest(tmp_path / "ghost.csv")

    def test_corrupt_named_file_is_refused_in_one_line(self, tmp_path):
        """A ``*.manifest.json.corrupt`` file is not a manifest: every
        way of naming it, or its dataset, or its directory, is refused
        with a one-line error from the checks any bad argument meets."""
        (tmp_path / "ds.csv").write_text("data")
        corrupt = tmp_path / "ds.manifest.json.corrupt"
        corrupt.write_text("{torn")
        for read, argument, message in (
            (load_manifest, corrupt, "is not valid JSON"),
            (resolve_manifest, corrupt, "no manifest found"),
            (resolve_manifest, tmp_path / "ds.csv", "no manifest found"),
            (resolve_manifest, tmp_path, r"no \*\.manifest\.json in directory"),
        ):
            with pytest.raises(DataError, match=message) as excinfo:
                read(argument)
            assert "\n" not in str(excinfo.value)


class TestAnalysisKind:
    def test_unknown_kind_rejected(self, tele):
        with pytest.raises(DataError, match="unknown run kind"):
            make_recorder(tele, kind="mystery")

    def test_analysis_core_counters_present_even_at_zero(self, tele):
        recorder = make_recorder(tele, kind="analysis").start()
        manifest = recorder.finish()
        assert manifest["kind"] == "analysis"
        names = {entry["name"] for entry in manifest["counters"]}
        assert set(ANALYSIS_CORE_COUNTERS) <= names
        assert "epochs.simulated" not in names  # campaign contract only

    def test_campaign_kind_keeps_campaign_contract(self, tele):
        manifest = record_small_run(tele).manifest
        names = {entry["name"] for entry in manifest["counters"]}
        assert "epochs.simulated" in names
        assert "hb.level_shifts" not in names

    def test_extras_merge_but_core_fields_win(self, tele):
        recorder = make_recorder(tele, kind="analysis").start()
        manifest = recorder.finish(
            extras={"analysis": {"figures": [2, 19]}, "run_id": "spoofed"}
        )
        assert manifest["analysis"] == {"figures": [2, 19]}
        assert manifest["run_id"] == "testrun000001"

    def test_analysis_sidecar_paths_do_not_clobber_campaign(self, tmp_path):
        dataset = tmp_path / "may.csv"
        manifest_path, events_path = analysis_sidecar_paths(dataset)
        assert manifest_path.name == "may.analysis.manifest.json"
        assert events_path.name == "may.analysis.events.jsonl"
        assert manifest_path != sidecar_paths(dataset)[0]
        # Still `*.manifest.json`, so resolve/summary find it.
        assert manifest_path.name.endswith(".manifest.json")

    def test_analysis_manifest_round_trip(self, tele, tmp_path):
        recorder = make_recorder(tele, kind="analysis").start()
        tele.emit("figure", figure=2, status="ok", wall_s=0.1)
        recorder.finish(extras={"analysis": {"dataset": "may.csv"}})
        manifest_path, events_path = analysis_sidecar_paths(tmp_path / "may.csv")
        write_manifest(recorder.manifest, recorder.events,
                       manifest_path, events_path)
        loaded = load_manifest(resolve_manifest(manifest_path))
        assert loaded["kind"] == "analysis"
        assert loaded["analysis"]["dataset"] == "may.csv"
        events = read_events(manifest_path)
        assert [e["kind"] for e in events] == ["figure"]


class TestRendering:
    def test_summary_report_mentions_the_essentials(self, tele, tmp_path):
        recorder = record_small_run(tele)
        manifest_path, _ = recorder.write(tmp_path / "ds.csv")
        report = summary_report(load_manifest(manifest_path))
        assert "testrun000001" in report
        assert "may2004" in report
        assert "2 epochs" in report
        assert "epoch.phase_s{phase=ping}" in report
        assert "cache.misses" in report
        assert "packet_epoch=2" in report  # event tally

    def test_slowest_ranks_by_elapsed(self, tele, tmp_path):
        recorder = record_small_run(tele)
        manifest_path, _ = recorder.write(tmp_path / "ds.csv")
        report = slowest_report(read_events(manifest_path), n=1)
        lines = report.splitlines()
        assert len(lines) == 2  # header + 1 row
        assert lines[0].split()[:5] == ["kind", "path", "trace", "epoch", "elapsed"]
        # Epoch 1 (0.32 s) is slower than epoch 0 (0.04 s).
        assert lines[1].split()[:4] == ["packet_epoch", "p01", "0", "1"]

    def test_slowest_ranks_traces_and_epochs_alike(self, tele, tmp_path):
        # Every event carrying elapsed_s is ranked; a whole-trace record
        # has no epoch index.
        recorder = make_recorder(tele).start()
        tele.record_phases("packet_epoch", {"iperf": 0.5}, path="p01",
                           trace=0, epoch=3)
        tele.record_phases("trace", {"iperf": 0.9, "load": 0.1}, 150,
                           path="p02", trace=1, epochs=150)
        tele.emit("cache", outcome="miss")
        recorder.finish(n_epochs=151)
        manifest_path, _ = recorder.write(tmp_path / "ds.csv")
        lines = slowest_report(read_events(manifest_path), n=5).splitlines()
        assert len(lines) == 3  # header + 2 timed events
        assert lines[1].split()[:4] == ["trace", "p02", "1", "-"]
        assert lines[2].split()[:4] == ["packet_epoch", "p01", "0", "3"]
        assert lines[2].split()[-1] == "-"  # no load phase in the epoch

    def test_slowest_with_no_epochs(self):
        assert "no trace or epoch events" in slowest_report([], n=5)
        untimed = [{"kind": "cache", "outcome": "hit"}]
        assert "no trace or epoch events" in slowest_report(untimed, n=5)

    def test_compare_reports_deltas(self, tele):
        manifest_a = record_small_run(tele).manifest
        recorder_b = make_recorder(tele, run_id="testrun000002").start()
        tele.record_phases("packet_epoch", {"ping": 0.01, "iperf": 0.03},
                           path="p01", trace=0, epoch=0)
        recorder_b.finish(n_epochs=1)
        report = compare_report(manifest_a, recorder_b.manifest)
        assert "testrun000001" in report and "testrun000002" in report
        assert "same catalog" in report
        assert "epochs.simulated" in report
        assert "-50.0%" in report  # 2 epochs -> 1 epoch

    def test_compare_zero_baseline_counter_renders_new(self, tele):
        # A counter at 0 in A and >0 in B must render "new", not divide
        # by zero; 0 -> 0 renders "=".
        manifest_a = make_recorder(tele).start().finish()  # all cores at 0
        recorder_b = make_recorder(tele, run_id="testrun000002").start()
        tele.counter("cache.hits").inc(3)
        recorder_b.finish()
        report = compare_report(manifest_a, recorder_b.manifest)
        line = next(l for l in report.splitlines() if "cache.hits" in l)
        assert line.rstrip().endswith("new")
        line = next(l for l in report.splitlines() if "cache.misses" in l)
        assert line.rstrip().endswith("=")

    def test_compare_counter_dropping_to_zero_renders_minus_100(self, tele):
        # The other direction: >0 in A, 0 in B is a real -100% change.
        recorder_a = make_recorder(tele).start()
        tele.counter("cache.hits").inc(4)
        manifest_a = recorder_a.finish()
        manifest_b = make_recorder(tele, run_id="testrun000002").start().finish()
        report = compare_report(manifest_a, manifest_b)
        line = next(l for l in report.splitlines() if "cache.hits" in l)
        assert "-100.0%" in line

    def test_compare_timer_missing_from_one_side_is_na(self, tele):
        recorder_a = make_recorder(tele).start()
        tele.timer("predict.wall_s", predictor="fb").observe(0.2)
        manifest_a = recorder_a.finish()
        manifest_b = make_recorder(tele, run_id="testrun000002").start().finish()
        report = compare_report(manifest_a, manifest_b)
        line = next(l for l in report.splitlines() if "predict.wall_s" in l)
        assert "n/a" in line and "-" in line.split()
        # ...and symmetrically when only B has the series.
        report = compare_report(manifest_b, manifest_a)
        line = next(l for l in report.splitlines() if "predict.wall_s" in l)
        assert "n/a" in line


class TestEventsSizeCap:
    """The ``*.events.jsonl`` sidecar is byte-capped like the access log."""

    def write_run(self, tele, tmp_path, name="may.csv"):
        recorder = record_small_run(tele)
        dataset = tmp_path / name
        dataset.write_text("csv\n")
        recorder.write(dataset)
        return dataset

    def test_uncapped_run_records_zero_dropped(self, tele, tmp_path):
        dataset = self.write_run(tele, tmp_path)
        manifest = load_manifest(dataset.with_name("may.manifest.json"))
        assert manifest["events"]["dropped"] == 0
        assert manifest["events"]["written"] == manifest["events"]["count"]
        names = [c["name"] for c in manifest["counters"]]
        assert "events.dropped" not in names

    def test_cap_keeps_head_and_counts_tail(self, tele, tmp_path, monkeypatch):
        # The floor is 4096 bytes, so record enough epochs to overflow it.
        monkeypatch.setenv("REPRO_EVENTS_MAX_BYTES", "4096")
        tele2 = Telemetry()
        recorder = make_recorder(tele2).start()
        for epoch in range(60):
            tele2.record_phases("packet_epoch", {"iperf": 0.03},
                                path="p01", trace=0, epoch=epoch)
        recorder.finish(cache_hit=False, n_paths=1, n_traces=1, n_epochs=60)
        capped = tmp_path / "capped.csv"
        capped.write_text("csv\n")
        recorder.write(capped)
        manifest = load_manifest(capped.with_name("capped.manifest.json"))
        written = manifest["events"]["written"]
        dropped = manifest["events"]["dropped"]
        assert dropped > 0
        assert written + dropped == manifest["events"]["count"]
        kept = capped.with_name("capped.events.jsonl").read_text()
        assert len(kept.splitlines()) == written
        dropped_counters = [
            c for c in manifest["counters"] if c["name"] == "events.dropped"
        ]
        assert [c["value"] for c in dropped_counters] == [dropped]

    def test_floor_and_garbage_tolerance(self, monkeypatch):
        from repro.obs.recorder import _events_max_bytes

        monkeypatch.setenv("REPRO_EVENTS_MAX_BYTES", "10")
        assert _events_max_bytes() == 4096  # floored
        monkeypatch.setenv("REPRO_EVENTS_MAX_BYTES", "banana")
        assert _events_max_bytes() == 64 * 1024 * 1024
        monkeypatch.delenv("REPRO_EVENTS_MAX_BYTES")
        assert _events_max_bytes() == 64 * 1024 * 1024


class TestReadEventsSkips:
    """Malformed / torn trailing lines load partially, like
    ``ShardedStateStore.restore``: skip, count, keep going."""

    def write_run(self, tele, tmp_path):
        recorder = record_small_run(tele)
        dataset = tmp_path / "may.csv"
        dataset.write_text("csv\n")
        recorder.write(dataset)
        return dataset.with_name("may.manifest.json")

    def damage(self, manifest_path, *lines):
        events_file = manifest_path.with_suffix(".json").with_name(
            "may.events.jsonl"
        )
        with open(events_file, "a") as handle:
            for line in lines:
                handle.write(line)
        return events_file

    def test_torn_trailing_line_skipped_and_counted(self, tele, tmp_path):
        from repro.obs.telemetry import get_telemetry

        manifest_path = self.write_run(tele, tmp_path)
        intact = read_events(manifest_path)
        self.damage(manifest_path, '{"kind": "epo')  # crash mid-append
        singleton = get_telemetry()
        singleton.drain()
        events = read_events(manifest_path)
        assert events == intact
        assert singleton.metrics.counter("events.skipped_lines").value == 1
        skip_notes = [
            e for e in singleton.events if e.get("kind") == "events.skipped"
        ]
        assert len(skip_notes) == 1
        assert skip_notes[0]["lines"] == 1
        assert skip_notes[0]["first_line"] == len(intact) + 1
        singleton.drain()

    def test_interior_garbage_and_non_objects_skipped(self, tele, tmp_path):
        from repro.obs.telemetry import get_telemetry

        manifest_path = self.write_run(tele, tmp_path)
        intact = read_events(manifest_path)
        self.damage(
            manifest_path,
            "not json at all\n",
            '["a", "list"]\n',
            '{"kind": "tail", "ok": true}\n',
        )
        singleton = get_telemetry()
        singleton.drain()
        events = read_events(manifest_path)
        assert events[: len(intact)] == intact
        assert events[-1] == {"kind": "tail", "ok": True}
        assert singleton.metrics.counter("events.skipped_lines").value == 2
        singleton.drain()

    def test_blank_lines_ignored_silently(self, tele, tmp_path):
        from repro.obs.telemetry import get_telemetry

        manifest_path = self.write_run(tele, tmp_path)
        intact = read_events(manifest_path)
        self.damage(manifest_path, "\n", "   \n")
        singleton = get_telemetry()
        singleton.drain()
        assert read_events(manifest_path) == intact
        assert singleton.metrics.counter("events.skipped_lines").value == 0
        singleton.drain()
