"""The ``repro-obs`` console command, driven end to end via ``repro-campaign``."""

import pytest

from repro.cli import campaign, obs
from repro.testbed.io import load_dataset


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "dataset-cache"))
    monkeypatch.delenv("REPRO_OBS", raising=False)


def run_campaign(tmp_path, name, seed="0"):
    out = tmp_path / name
    code = campaign.main(
        [
            "--paths", "2", "--traces", "1", "--epochs", "4",
            "--seed", seed, "--quiet", "-o", str(out),
        ]
    )
    assert code == 0
    return out


class TestSummary:
    def test_summary_from_dataset_path(self, tmp_path, capsys):
        dataset = run_campaign(tmp_path, "ds.csv")
        assert obs.main(["summary", str(dataset)]) == 0
        out = capsys.readouterr().out
        assert "2 paths x 2 traces, 8 epochs" in out
        assert "epoch.phase_s{phase=iperf}" in out
        assert "cache.misses" in out

    def test_summary_from_manifest_path(self, tmp_path, capsys):
        dataset = run_campaign(tmp_path, "ds.csv")
        manifest = dataset.with_name("ds.manifest.json")
        assert obs.main(["summary", str(manifest)]) == 0
        assert "wall time" in capsys.readouterr().out

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        assert obs.main(["summary", str(tmp_path / "ghost.csv")]) == 2
        assert "error:" in capsys.readouterr().err


class TestSlowest:
    def test_lists_requested_count(self, tmp_path, capsys):
        dataset = run_campaign(tmp_path, "ds.csv")
        assert obs.main(["slowest", str(dataset), "-n", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2  # header + 1 trace
        assert "elapsed" in lines[0]
        # Unbounded by -n, it lists each simulated trace once: 2 paths x 1.
        assert obs.main(["slowest", str(dataset), "-n", "10"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        path_ids = {trace.path_id for trace in load_dataset(dataset).traces}
        assert sorted((row[0], row[1], row[2], row[3]) for row in rows) == sorted(
            ("trace", path_id, "0", "-") for path_id in path_ids
        )

    def test_rejects_bad_n(self, tmp_path, capsys):
        dataset = run_campaign(tmp_path, "ds.csv")
        assert obs.main(["slowest", str(dataset), "-n", "0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCompare:
    def test_compare_two_runs(self, tmp_path, capsys):
        a = run_campaign(tmp_path, "a.csv", seed="1")
        b = run_campaign(tmp_path, "b.csv", seed="2")
        assert obs.main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "same catalog" in out
        assert "epochs.simulated" in out
        assert "wall time" in out

    def test_compare_miss_vs_hit(self, tmp_path, capsys):
        first = run_campaign(tmp_path, "first.csv")
        second = run_campaign(tmp_path, "second.csv")  # served from cache
        assert obs.main(["compare", str(first), str(second)]) == 0
        out = capsys.readouterr().out
        assert "cache.hits" in out and "cache.misses" in out


def write_serve_manifest(tmp_path, name, build_tracker):
    """A kind=serve manifest whose quality section comes from build_tracker."""
    from repro.obs import RunRecorder
    from repro.obs.recorder import write_manifest

    tracker = build_tracker()
    recorder = RunRecorder(label="qtest", kind="serve").start()
    manifest = recorder.finish(
        n_paths=1, extras={"quality": tracker.summary(include_paths=True)}
    )
    path = tmp_path / name
    write_manifest(
        manifest, recorder.events, path, path.with_suffix(".events.jsonl")
    )
    return path


def small_tracker(errors=((10.0, 10.5),), predictor="ma10", slo=0.5):
    from repro.obs.quality import QualityConfig, QualityTracker

    tracker = QualityTracker(QualityConfig(slo_abs_error=slo))
    for forecast, actual in errors:
        tracker.score("p1", predictor, forecast, actual)
    return tracker


class TestQuality:
    def test_quality_from_manifest(self, tmp_path, capsys):
        manifest = write_serve_manifest(
            tmp_path, "serve.manifest.json", small_tracker
        )
        assert obs.main(["quality", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "quality: 1 path(s), 1 scored" in out
        assert "ma10" in out
        assert "path x predictor" not in out  # per-path table needs --paths

    def test_quality_paths_table(self, tmp_path, capsys):
        manifest = write_serve_manifest(
            tmp_path, "serve.manifest.json", small_tracker
        )
        assert obs.main(["quality", str(manifest), "--paths"]) == 0
        out = capsys.readouterr().out
        assert "path x predictor" in out
        assert "p1 ma10" in out

    def test_manifest_without_quality_exits_2(self, tmp_path, capsys):
        dataset = run_campaign(tmp_path, "ds.csv")
        assert obs.main(["quality", str(dataset)]) == 2
        assert "no quality section" in capsys.readouterr().err

    def test_watch_requires_url(self, tmp_path, capsys):
        manifest = write_serve_manifest(
            tmp_path, "serve.manifest.json", small_tracker
        )
        assert obs.main(["quality", str(manifest), "--watch"]) == 2
        assert "live server URL" in capsys.readouterr().err

    def test_unreachable_server_exits_2(self, capsys):
        assert obs.main(["quality", "http://127.0.0.1:1"]) == 2
        assert "cannot fetch" in capsys.readouterr().err


class TestQualityWatch:
    """``--watch`` against a server that dies and (maybe) comes back."""

    URL = "http://127.0.0.1:8710"

    def _patch(self, monkeypatch, outcomes, max_sleeps=100):
        """Script the poll sequence: each outcome is a quality doc or None
        (a failed fetch).  ``time.sleep`` is a no-op that interrupts the
        watch once the script runs out."""
        calls = {"fetch": 0, "sleep": 0}

        def fake_fetch(url, include_paths):
            index = calls["fetch"]
            calls["fetch"] += 1
            if index >= len(outcomes) or outcomes[index] is None:
                raise obs._FetchError(f"cannot fetch {url}/quality: down")
            return outcomes[index]

        def fake_sleep(seconds):
            calls["sleep"] += 1
            if calls["fetch"] >= len(outcomes) or calls["sleep"] >= max_sleeps:
                raise KeyboardInterrupt

        monkeypatch.setattr(obs, "_fetch_quality", fake_fetch)
        monkeypatch.setattr(obs.time, "sleep", fake_sleep)
        return calls

    def test_restart_prints_notice_and_keeps_polling(
        self, monkeypatch, capsys
    ):
        doc = small_tracker().summary(include_paths=True)
        calls = self._patch(monkeypatch, [doc, None, None, doc])
        assert obs.main(["quality", self.URL, "--watch"]) == 0
        captured = capsys.readouterr()
        notices = [
            line for line in captured.err.splitlines()
            if line.startswith("connection lost")
        ]
        assert len(notices) == 2
        assert "[1/5]" in notices[0] and "[2/5]" in notices[1]
        assert captured.out.count("quality: 1 path(s), 1 scored") == 2
        assert calls["fetch"] == 4

    def test_exits_2_after_consecutive_failures(self, monkeypatch, capsys):
        calls = self._patch(
            monkeypatch, [None] * 10, max_sleeps=100
        )
        code = obs.main(
            ["quality", self.URL, "--watch", "--watch-retries", "3"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert calls["fetch"] == 3  # stops exactly at the retry budget
        assert "3 consecutive failures" in captured.err
        assert (
            len([l for l in captured.err.splitlines()
                 if l.startswith("connection lost")]) == 2
        )

    def test_success_resets_failure_counter(self, monkeypatch, capsys):
        doc = small_tracker().summary(include_paths=True)
        # 2 failures, recovery, 2 more failures, recovery: never reaches
        # 3 *consecutive* failures, so the watch survives.
        calls = self._patch(
            monkeypatch, [None, None, doc, None, None, doc]
        )
        code = obs.main(
            ["quality", self.URL, "--watch", "--watch-retries", "3"]
        )
        assert code == 0
        assert calls["fetch"] == 6
        assert capsys.readouterr().out.count("1 scored") == 2

    def test_rejects_bad_watch_retries(self, capsys):
        code = obs.main(
            ["quality", self.URL, "--watch", "--watch-retries", "0"]
        )
        assert code == 2
        assert "--watch-retries must be >= 1" in capsys.readouterr().err


class TestCompareQuality:
    def test_quality_deltas_with_new_and_na(self, tmp_path, capsys):
        a = write_serve_manifest(
            tmp_path, "a.manifest.json",
            lambda: small_tracker(errors=[(10.0, 10.5)] * 2),
        )

        def build_b():
            tracker = small_tracker(errors=[(10.0, 30.0)] * 3)  # slo breaches
            tracker.score("p1", "ewma", 10.0, 12.0)  # only in B
            return tracker

        b = write_serve_manifest(tmp_path, "b.manifest.json", build_b)
        assert obs.main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "quality (mean|E|)" in out
        # ewma exists only in B: its error delta is undefined.
        ewma_rows = [l for l in out.splitlines() if l.startswith("ewma")]
        assert any("n/a" in row for row in ewma_rows)
        # slo breaches went 0 -> 3: a zero baseline gaining value is "new".
        slo_section = out[out.index("quality (slo breaches)"):]
        ma10_row = [l for l in slo_section.splitlines() if l.startswith("ma10")][0]
        assert "new" in ma10_row

    def test_campaign_compare_has_no_quality_section(self, tmp_path, capsys):
        a = run_campaign(tmp_path, "a.csv", seed="1")
        b = run_campaign(tmp_path, "b.csv", seed="2")
        assert obs.main(["compare", str(a), str(b)]) == 0
        assert "quality (" not in capsys.readouterr().out


class TestExport:
    def test_openmetrics_to_stdout(self, tmp_path, capsys):
        dataset = run_campaign(tmp_path, "ds.csv")
        assert obs.main(["export", str(dataset)]) == 0
        out = capsys.readouterr().out
        assert out.endswith("# EOF\n")
        assert "# TYPE repro_run info" in out
        assert "repro_epochs_simulated_total 8" in out
        assert '{phase="iperf"' in out

    def test_flat_json(self, tmp_path, capsys):
        import json

        dataset = run_campaign(tmp_path, "ds.csv")
        assert obs.main(["export", str(dataset), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["counters"]["epochs.simulated"] == 8
        assert "epoch.wall_s" in document["timers"]

    def test_output_file(self, tmp_path, capsys):
        dataset = run_campaign(tmp_path, "ds.csv")
        target = tmp_path / "metrics.om"
        assert obs.main(["export", str(dataset), "-o", str(target)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""  # the exposition goes to the file
        assert target.read_text().endswith("# EOF\n")

    def test_missing_run_exits_2(self, tmp_path, capsys):
        assert obs.main(["export", str(tmp_path / "nope.csv")]) == 2
        assert "error:" in capsys.readouterr().err


class TestBench:
    def test_record_then_check_passes(self, tmp_path, capsys):
        dataset = run_campaign(tmp_path, "ds.csv")
        bl = tmp_path / "baselines"
        assert obs.main(
            ["bench", "record", str(dataset), "--baselines-dir", str(bl)]
        ) == 0
        assert (bl / "obs_baseline.json").is_file()
        assert obs.main(
            ["bench", "check", str(dataset), "--baselines-dir", str(bl)]
        ) == 0
        out = capsys.readouterr().out
        assert "bench check OK" in out

    def test_check_fails_on_inflated_timer(self, tmp_path, capsys):
        import json

        dataset = run_campaign(tmp_path, "ds.csv")
        bl = tmp_path / "baselines"
        assert obs.main(
            ["bench", "record", str(dataset), "--baselines-dir", str(bl)]
        ) == 0
        manifest_path = tmp_path / "ds.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for timer in manifest["timers"]:
            timer["p50"] *= 10
            timer["p95"] *= 10
        slow = tmp_path / "slow.manifest.json"
        slow.write_text(json.dumps(manifest))
        assert obs.main(
            ["bench", "check", str(slow), "--baselines-dir", str(bl)]
        ) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "FAILED" in out

    def test_check_fails_on_counter_drift(self, tmp_path, capsys):
        import json

        dataset = run_campaign(tmp_path, "ds.csv")
        bl = tmp_path / "baselines"
        obs.main(["bench", "record", str(dataset), "--baselines-dir", str(bl)])
        manifest_path = tmp_path / "ds.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for counter in manifest["counters"]:
            if counter["name"] == "epochs.simulated":
                counter["value"] += 1
        drifted = tmp_path / "drift.manifest.json"
        drifted.write_text(json.dumps(manifest))
        assert obs.main(
            ["bench", "check", str(drifted), "--baselines-dir", str(bl)]
        ) == 1
        assert "expected exactly" in capsys.readouterr().out

    def test_check_accepts_bench_report_source(self, tmp_path, capsys):
        import json

        report = {
            "bench": "obs_baseline",
            "fixtures": {
                "mini": {
                    "wall_time_s": 1.0,
                    "epochs": 42,
                    "epoch_wall_s": {"p50": 0.01, "p95": 0.02},
                    "phase_s": {},
                }
            },
        }
        source = tmp_path / "BENCH_obs.json"
        source.write_text(json.dumps(report))
        bl = tmp_path / "baselines"
        assert obs.main(
            ["bench", "record", str(source), "--baselines-dir", str(bl)]
        ) == 0
        assert obs.main(
            ["bench", "check", str(source), "--baselines-dir", str(bl)]
        ) == 0
        assert "bench check OK" in capsys.readouterr().out

    def test_check_without_baseline_exits_2(self, tmp_path, capsys):
        dataset = run_campaign(tmp_path, "ds.csv")
        assert obs.main(
            ["bench", "check", str(dataset),
             "--baselines-dir", str(tmp_path / "empty")]
        ) == 2
        assert "bench record" in capsys.readouterr().err

    def test_verbose_lists_passing_metrics(self, tmp_path, capsys):
        dataset = run_campaign(tmp_path, "ds.csv")
        bl = tmp_path / "baselines"
        obs.main(["bench", "record", str(dataset), "--baselines-dir", str(bl)])
        capsys.readouterr()
        assert obs.main(
            ["bench", "check", str(dataset), "--baselines-dir", str(bl), "-v"]
        ) == 0
        assert "ok counter:epochs.simulated" in capsys.readouterr().out


class TestTrace:
    def test_text_timeline_from_dataset(self, tmp_path, capsys):
        dataset = run_campaign(tmp_path, "ds.csv")
        assert obs.main(["trace", str(dataset)]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out
        assert "critical path across" in out

    def test_chrome_export_validates(self, tmp_path, capsys):
        import json as _json

        from repro.obs.traceview import validate_chrome_trace

        dataset = run_campaign(tmp_path, "ds.csv")
        out_file = tmp_path / "chrome.json"
        assert obs.main(
            ["trace", str(dataset), "--format", "chrome", "-o", str(out_file)]
        ) == 0
        doc = _json.loads(out_file.read_text())
        assert validate_chrome_trace(doc) == []
        assert any(
            e.get("name") == "campaign" for e in doc["traceEvents"]
        )

    def test_trace_filter_to_one_trace(self, tmp_path, capsys):
        from repro.obs import read_events, resolve_manifest

        dataset = run_campaign(tmp_path, "ds.csv")
        events = read_events(resolve_manifest(dataset))
        trace_id = next(
            e["trace_id"] for e in events if e.get("kind") == "span"
        )
        assert obs.main(["trace", str(dataset), "--trace", trace_id]) == 0
        out = capsys.readouterr().out
        assert f"trace {trace_id}" in out
        assert obs.main(["trace", str(dataset), "--trace", "nope"]) == 0
        assert "no spans for trace" in capsys.readouterr().out

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        assert obs.main(["trace", str(tmp_path / "ghost.csv")]) == 2
        assert "error:" in capsys.readouterr().err
