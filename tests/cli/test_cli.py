"""The console commands."""

import csv
import dataclasses
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.evalcache import EvaluationCache
from repro.analysis.parallel import warm_eval_cache
from repro.cli import analyze, campaign, predict, serve
from repro.core.errors import ReproError
from repro.paths.records import Dataset, Trace
from repro.testbed.io import _COLUMNS, load_dataset


class TestCampaignCommand:
    def test_runs_and_saves(self, tmp_path, capsys):
        out = tmp_path / "ds.csv"
        code = campaign.main(
            [
                "--catalog", "may2004", "--paths", "3",
                "--traces", "1", "--epochs", "5",
                "-o", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert "3 paths" in capsys.readouterr().out

    def test_march2006_defaults(self, tmp_path):
        out = tmp_path / "m.csv"
        code = campaign.main(
            [
                "--catalog", "march2006", "--paths", "2",
                "--traces", "1", "--epochs", "3",
                "--quiet", "-o", str(out),
            ]
        )
        assert code == 0
        from repro.testbed.io import load_dataset

        dataset = load_dataset(out)
        epoch = dataset.epochs()[0]
        assert len(epoch.duration_throughputs_mbps) == 3
        assert epoch.smallw_throughput_mbps is None

    def test_seed_changes_output(self, tmp_path):
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}.csv"
            campaign.main(
                [
                    "--paths", "2", "--traces", "1", "--epochs", "3",
                    "--seed", str(seed), "--quiet", "-o", str(out),
                ]
            )
            outs.append(out.read_text())
        assert outs[0] != outs[1]

    def test_parallel_workers_match_serial(self, tmp_path):
        outs = []
        for name, workers in (("serial.csv", "1"), ("parallel.csv", "3")):
            out = tmp_path / name
            code = campaign.main(
                [
                    "--paths", "2", "--traces", "2", "--epochs", "3",
                    "--workers", workers, "--no-cache", "--quiet",
                    "-o", str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_second_invocation_served_from_cache(self, tmp_path, capsys):
        args = [
            "--paths", "2", "--traces", "1", "--epochs", "3",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        campaign.main(args + ["-o", str(tmp_path / "first.csv")])
        first_output = capsys.readouterr().out
        assert "simulated in" in first_output

        campaign.main(args + ["-o", str(tmp_path / "second.csv")])
        second_output = capsys.readouterr().out
        assert "cache hit" in second_output
        assert (tmp_path / "first.csv").read_text() == (
            tmp_path / "second.csv"
        ).read_text()

    def test_no_cache_forces_resimulation(self, tmp_path, capsys):
        args = [
            "--paths", "2", "--traces", "1", "--epochs", "3",
            "--cache-dir", str(tmp_path / "cache"), "--no-cache",
        ]
        for name in ("a.csv", "b.csv"):
            campaign.main(args + ["-o", str(tmp_path / name)])
            assert "simulated in" in capsys.readouterr().out
        assert not (tmp_path / "cache").exists()

    def test_quiet_suppresses_progress(self, tmp_path, capsys):
        campaign.main(
            [
                "--paths", "2", "--traces", "1", "--epochs", "3",
                "--no-cache", "--quiet", "-o", str(tmp_path / "q.csv"),
            ]
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_progress_line_rendered(self, tmp_path, capsys):
        campaign.main(
            [
                "--paths", "2", "--traces", "1", "--epochs", "3",
                "--no-cache", "-o", str(tmp_path / "p.csv"),
            ]
        )
        err = capsys.readouterr().err
        assert "traces]" in err and "epochs/s" in err and "ETA" in err

    def test_quiet_suppresses_summary_even_on_cache_hit(self, tmp_path, capsys):
        args = [
            "--paths", "2", "--traces", "1", "--epochs", "3", "--quiet",
        ]
        campaign.main(args + ["-o", str(tmp_path / "first.csv")])
        campaign.main(args + ["-o", str(tmp_path / "second.csv")])  # hit
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_progress_render_guards_zero_elapsed(self):
        """The first trace can finish inside the clock resolution; the
        rate/ETA math must not divide by zero."""
        from repro.obs.render import progress_line
        from repro.testbed.executor import CampaignProgress

        instant = CampaignProgress(
            traces_done=1,
            traces_total=4,
            epochs_done=5,
            epochs_total=20,
            elapsed_s=0.0,
        )
        line = progress_line(instant)
        assert "?s" in line  # unknown ETA, not a ZeroDivisionError
        assert "0.0 epochs/s" in line

    def test_aborted_run_exits_nonzero_then_resumes(
        self, tmp_path, capsys, monkeypatch
    ):
        """Crash-inject a job, expect exit 1 + hint, then --resume to a
        dataset identical to an uninterrupted run's CSV."""
        args = [
            "--paths", "2", "--traces", "2", "--epochs", "3",
            "--no-cache", "--quiet", "--max-retries", "0",
            "--retry-backoff", "0",
        ]
        ref = tmp_path / "ref.csv"
        assert campaign.main(args + ["-o", str(ref)]) == 0

        monkeypatch.setenv("REPRO_FAULT_SPEC", "p18/1:raise")
        out = tmp_path / "out.csv"
        code = campaign.main(args + ["-o", str(out)])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "campaign aborted" in err and "p18" in err
        assert "--resume" in err

        monkeypatch.delenv("REPRO_FAULT_SPEC")
        assert campaign.main(args + ["--resume", "-o", str(out)]) == 0
        assert out.read_bytes() == ref.read_bytes()

    def test_resume_flag_on_clean_run_is_harmless(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = campaign.main(
            [
                "--paths", "2", "--traces", "1", "--epochs", "3",
                "--no-cache", "--quiet", "--resume", "-o", str(out),
            ]
        )
        assert code == 0
        assert out.exists()


def _duplicated_epoch_csv() -> bytes:
    """A dataset CSV whose one trace lists epoch 0 twice."""
    row = "p01,0,0,180.0,5.0,0.0,0.05,4.5,0.0,0.06" + "," * 8
    return "\r\n".join(["# dataset,dup", ",".join(_COLUMNS), row, row, ""]).encode()


def _nan_at_epoch_3(dataset: Dataset, column: str) -> Dataset:
    """``dataset`` with ``column`` NaN at its first trace's epoch 3, built
    in code: the CSV loader rejects the value."""
    first, *rest = dataset.traces
    epochs = first.epochs
    epochs[3] = dataclasses.replace(epochs[3], **{column: math.nan})
    broken = Trace.from_epochs(first.path_id, first.trace_index, epochs)
    return Dataset(dataset.label, [broken, *rest])


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ds.csv"
    campaign.main(
        [
            "--paths", "5", "--traces", "2", "--epochs", "30",
            "--no-cache", "--no-checkpoint", "--quiet", "-o", str(out),
        ]
    )
    return out


class TestAnalyzeCommand:
    def test_selected_figures(self, saved_dataset, capsys):
        code = analyze.main([str(saved_dataset), "--figures", "2", "19"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out and "Fig. 19" in out

    def test_all_figures_run(self, saved_dataset, capsys):
        code = analyze.main([str(saved_dataset)])
        assert code == 0
        out = capsys.readouterr().out
        # Fig. 11 needs the 2006 set; it must degrade gracefully.
        assert "not derivable" in out

    def test_unknown_figure_number(self, saved_dataset, capsys):
        code = analyze.main([str(saved_dataset), "--figures", "99"])
        assert code == 2
        assert "no renderer" in capsys.readouterr().out

    def test_nan_throughput_makes_hb_figures_not_derivable(self, saved_dataset):
        """Regression: a NaN throughput used to pass every HB input check,
        so Figs. 16 and 21 printed RMSREs computed through it.  A CSV can
        no longer carry one (the FB test below), but a dataset built in
        code still can, and the HB figures still refuse it."""
        dataset = _nan_at_epoch_3(load_dataset(saved_dataset), "throughput_mbps")
        for number in (16, 21):
            with pytest.raises(ReproError, match="positive and finite, got nan at epoch 3"):
                analyze.FIGURES[number](dataset)

    def test_voided_walks_raise_each_figures_own_error(self, saved_dataset):
        """A walk voided in the warm phase makes its figure raise, from
        the warm results as from the dataset alone, the error the figure
        raised when it walked for itself; Fig. 20 reports the invalid
        sample as its segmentation always did, and Fig. 22 skips the
        path."""
        dataset = _nan_at_epoch_3(load_dataset(saved_dataset), "throughput_mbps")
        first = dataset.traces[0]
        walk = (
            "throughput must be positive and finite, got nan at epoch 3 "
            f"of series '{first.path_id}/t0'"
        )
        expected = {
            16: walk,
            17: walk,
            19: f"throughput_mbps must be finite, got nan at epoch 3 of trace "
            f"('{first.path_id}', 0)",
            20: "throughput must be positive and finite, got nan at epoch 3",
            21: walk,
            23: walk,
        }
        warm = warm_eval_cache(
            dataset, analyze.plan(sorted(analyze.UNITS)), EvaluationCache(memory_only=True)
        )
        for number, message in expected.items():
            for args in ((dataset,), (dataset, warm)):
                with pytest.raises(ReproError) as raised:
                    analyze.FIGURES[number](*args)
                assert str(raised.value) == message, number
        assert analyze.FIGURES[22](dataset, warm) == analyze.FIGURES[22](dataset)
        assert first.path_id not in analyze.FIGURES[22](dataset, warm)

    @pytest.mark.parametrize(
        "column, broken",
        [
            ("that_s", (2, 3, 7, 8)),
            ("ttilde_s", (3,)),
            ("throughput_mbps", (2, 7, 8)),
        ],
    )
    def test_nan_input_makes_fb_figures_not_derivable(
        self, saved_dataset, tmp_path, capsys, column, broken
    ):
        """Regression: a NaN FB input passed every check, so Figs. 2, 3,
        7 and 8 printed nan statistics (and a lossless epoch with NaN
        avail-bw silently predicted W/T).  A CSV carrying one is now
        refused at load, exit 2 with one line naming the file, line and
        column.  A dataset built in code still reaches the figures: those
        that read the column say which value broke them, the others
        still render."""
        rows = list(csv.reader(saved_dataset.open(newline="")))
        header = rows[1]
        rows[2 + 3][header.index(column)] = "nan"  # first trace, epoch 3, line 6
        path_id = rows[2 + 3][header.index("path_id")]
        corrupted = tmp_path / "nan.csv"
        with corrupted.open("w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        figures = (2, 3, 7, 8)
        code = analyze.main(
            [str(corrupted), "--figures", *map(str, figures), "--no-eval-cache"]
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: cannot load dataset {corrupted}: "
            f"{corrupted}, line 6: {column} must be finite, got nan\n"
        )

        dataset = _nan_at_epoch_3(load_dataset(saved_dataset), column)
        for number in figures:
            if number in broken:
                with pytest.raises(ReproError) as excinfo:
                    analyze.FIGURES[number](dataset)
                assert str(excinfo.value) == (
                    f"{column} must be finite, got nan at epoch 3 of trace ({path_id!r}, 0)"
                )
            else:
                assert "nan" not in analyze.FIGURES[number](dataset)

    @pytest.mark.parametrize(
        "content, reason",
        [
            (None, "No such file or directory"),
            (b"not,a,dataset\n1,2,3\n", "missing dataset header row"),
            (b"\xff\xfe\x00garbage", "can't decode"),
            (
                _duplicated_epoch_csv(),
                "line 4: epoch_index 0 of trace ('p01', 0), expected 1",
            ),
        ],
        ids=["missing", "garbage-header", "binary", "duplicated-epoch"],
    )
    def test_unloadable_dataset_exits_2_without_sidecars(
        self, tmp_path, capsys, monkeypatch, content, reason
    ):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        dataset = data_dir / "nonexistent.csv"
        if content is not None:
            dataset.write_bytes(content)
        assert analyze.main([str(dataset), "--figures", "2", "16"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: cannot load dataset {dataset}: ")
        assert reason in line
        assert sorted(p.name for p in data_dir.iterdir()) == (
            [] if content is None else ["nonexistent.csv"]
        )
        # No columns entry (nor pack) was written for it.
        assert not list((tmp_path / "evals").glob("*"))

    @pytest.mark.parametrize("source", ["--eval-cache-dir", "REPRO_EVAL_CACHE_DIR"])
    def test_eval_cache_dir_that_cannot_be_made_exits_2(
        self, saved_dataset, tmp_path, capsys, monkeypatch, source
    ):
        """Regression: the directory's failure surfaced at the pack write,
        after every walk: a traceback, no stdout, the walks lost.  It is
        now made first: one line naming where it came from, exit 2,
        nothing read, computed or written."""
        monkeypatch.delenv("REPRO_OBS", raising=False)
        dataset = tmp_path / "ds.csv"
        dataset.write_bytes(saved_dataset.read_bytes())
        store = dataset / "evals"  # under a file
        args = [str(dataset), "--figures", "2", "19"]
        if source == "--eval-cache-dir":
            args += ["--eval-cache-dir", str(store)]
        else:
            monkeypatch.setenv(source, str(store))
        assert analyze.main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = [line for line in captured.err.splitlines() if "error" in line]
        prefix = "argument --eval-cache-dir" if source.startswith("-") else source
        assert line.startswith(
            f"repro-analyze: error: {prefix}: cannot make directory {store}: "
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.csv"]

    def test_failing_warm_phase_aborts_with_sidecars(
        self, saved_dataset, tmp_path, capsys, monkeypatch
    ):
        """Regression: a warm-phase job failing past its retries escaped
        as a traceback, and no sidecars were written."""
        import json
        import shutil

        from repro.testbed.io import load_dataset

        monkeypatch.delenv("REPRO_OBS", raising=False)
        dataset = tmp_path / "ds.csv"
        shutil.copy(saved_dataset, dataset)
        path_id = load_dataset(dataset).traces[0].path_id
        monkeypatch.setenv("REPRO_FAULT_SPEC", f"{path_id}/0:raise")  # every attempt
        code = analyze.main([str(dataset), "--figures", "2", "19", "--no-eval-cache"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("analysis aborted: ")
        assert f"{path_id!r}, trace 0" in line

        events = [
            json.loads(row)
            for row in dataset.with_name("ds.analysis.events.jsonl").read_text().splitlines()
        ]
        aborted = [e for e in events if e["kind"] == "analysis.aborted"]
        assert [(e["path"], e["trace"]) for e in aborted] == [(path_id, 0)]
        manifest = json.loads(dataset.with_name("ds.analysis.manifest.json").read_text())
        counters = {e["name"]: e["value"] for e in manifest["counters"]}
        assert counters["analysis.job_failures"] == 3  # the default two retries
        assert counters["analysis.retries"] == 2


class TestColumnarPipeline:
    def test_cli_pipeline_builds_no_epoch_record(self, tmp_path, capsys, monkeypatch):
        """From the engine to the figures, both CLIs work on trace
        columns: with the builder of epoch records made to raise, a
        campaign (cache and checkpoints on), its cache-hit rerun, and
        repro-analyze on every figure, cold and then warm, all run."""
        expected = {}

        def run_pipeline(name):
            out = tmp_path / name / "ds.csv"
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / name / "cache"))
            monkeypatch.setenv("REPRO_EVAL_CACHE_DIR", str(tmp_path / name / "evals"))
            argv = ["--paths", "4", "--traces", "1", "--epochs", "24", "-o", str(out)]
            assert campaign.main(argv) == 0
            assert "cache hit" not in capsys.readouterr().out
            assert campaign.main(argv) == 0
            assert "cache hit" in capsys.readouterr().out
            assert len(list((tmp_path / name / "cache").glob("*.npz"))) == 1
            outputs = []
            for _ in ("cold", "warm"):
                assert analyze.main([str(out)]) == 0
                outputs.append(capsys.readouterr().out)
            return out.read_bytes(), outputs

        expected = run_pipeline("records-allowed")

        def refuse(self):
            raise AssertionError("an EpochMeasurement was built")

        monkeypatch.setattr(Trace, "_epoch_rows", refuse)
        dataset_bytes, (cold, warm) = run_pipeline("records-refused")
        assert (dataset_bytes, [cold, warm]) == expected
        assert cold == warm


class TestAnalyzeTelemetry:
    def test_writes_analysis_sidecars(self, saved_dataset, capsys, monkeypatch):
        import json

        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert analyze.main([str(saved_dataset), "--figures", "2", "16"]) == 0
        captured = capsys.readouterr()
        assert "telemetry ->" in captured.err
        assert "telemetry" not in captured.out  # stdout stays figure-only

        manifest_path = saved_dataset.with_name("ds.analysis.manifest.json")
        events_path = saved_dataset.with_name("ds.analysis.events.jsonl")
        assert manifest_path.is_file() and events_path.is_file()
        # The campaign's own sidecars must not be clobbered.
        assert saved_dataset.with_name("ds.csv") == saved_dataset

        manifest = json.loads(manifest_path.read_text())
        assert manifest["kind"] == "analysis"
        assert manifest["label"] == "ds.csv"
        assert manifest["analysis"]["figures"] == [2, 16]
        assert len(manifest["cache_key"]) == 64  # sha256 of the CSV bytes
        assert manifest["counts"]["epochs"] == 300  # 5 paths x 2 x 30

        counters = {
            entry["name"] for entry in manifest["counters"]
        }
        # The analysis core counters are present even when zero.
        for name in ("predictions.made", "fb.model_selected",
                     "hb.level_shifts", "hb.outliers_discarded"):
            assert name in counters
        timers = {
            (entry["name"], entry["tags"].get("figure"))
            for entry in manifest["timers"]
        }
        assert ("analysis.figure_s", "2") in timers
        assert ("analysis.figure_s", "16") in timers
        assert ("analysis.load_s", None) in timers

    def test_fb_counters_match_the_per_epoch_path(
        self, saved_dataset, capsys, monkeypatch
    ):
        """The FB tables count what one prediction per epoch counted:
        every figure's totals equal the per-epoch path's (recorded on
        this fixture before the figures predicted over arrays), while
        ``predict.wall_s{predictor=fb}`` takes one sample per table:
        Figs. 2, 7, 8 and 19."""
        import json

        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert analyze.main([str(saved_dataset)]) == 0
        capsys.readouterr()
        manifest = json.loads(
            saved_dataset.with_name("ds.analysis.manifest.json").read_text()
        )
        counters = {
            (e["name"], tuple(sorted(e["tags"].items()))): e["value"]
            for e in manifest["counters"]
            if e["name"] == "fb.model_selected"
            or e["tags"].get("predictor") == "fb"
        }
        assert counters == {
            ("fb.model_selected", ()): 0,
            ("fb.model_selected", (("model", "availbw"),)): 1104,
            ("fb.model_selected", (("model", "pftk"),)): 862,
            ("predictions.made", (("predictor", "fb"), ("regime", "lossless"))): 736,
            ("predictions.made", (("predictor", "fb"), ("regime", "lossy"))): 464,
        }
        (timer,) = [
            e for e in manifest["timers"]
            if e["name"] == "predict.wall_s" and e["tags"] == {"predictor": "fb"}
        ]
        assert timer["count"] == 4

    def test_figure_events_record_status(self, saved_dataset, monkeypatch,
                                         capsys):
        import json

        monkeypatch.delenv("REPRO_OBS", raising=False)
        # Fig. 11 is not derivable from the may-2004 set; fig 99 unknown.
        assert analyze.main([str(saved_dataset), "--figures", "2", "11",
                             "99"]) == 2
        capsys.readouterr()
        events_path = saved_dataset.with_name("ds.analysis.events.jsonl")
        events = [json.loads(line)
                  for line in events_path.read_text().splitlines()]
        by_figure = {e["figure"]: e["status"] for e in events
                     if e["kind"] == "figure"}
        assert by_figure == {2: "ok", 11: "skipped", 99: "unknown"}
        manifest = json.loads(
            saved_dataset.with_name("ds.analysis.manifest.json").read_text()
        )
        assert manifest["analysis"]["skipped"] == [11]

    def test_summary_renders_analysis_manifest(self, saved_dataset, capsys,
                                               monkeypatch):
        from repro.cli import obs

        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert analyze.main([str(saved_dataset), "--figures", "2"]) == 0
        capsys.readouterr()
        manifest_path = saved_dataset.with_name("ds.analysis.manifest.json")
        assert obs.main(["summary", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "kind=analysis" in out
        assert "analysis.figure_s{figure=2}" in out
        assert "predictions.made{predictor=fb" in out

    def test_obs_off_writes_no_sidecars(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "quiet.csv"
        assert campaign.main(
            ["--paths", "2", "--traces", "1", "--epochs", "4",
             "--no-cache", "--quiet", "-o", str(out)]
        ) == 0
        monkeypatch.setenv("REPRO_OBS", "0")
        assert analyze.main([str(out), "--figures", "2"]) == 0
        captured = capsys.readouterr()
        assert "telemetry" not in captured.err
        assert not out.with_name("quiet.analysis.manifest.json").exists()
        assert not out.with_name("quiet.analysis.events.jsonl").exists()


class TestPredictCommand:
    def test_lossy_prediction(self, capsys):
        code = predict.main(["--rtt-ms", "45", "--loss", "0.002"])
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted throughput" in out and "pftk model" in out

    def test_lossless_needs_availbw(self, capsys):
        code = predict.main(["--rtt-ms", "45", "--loss", "0"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_lossless_with_availbw(self, capsys):
        code = predict.main(
            ["--rtt-ms", "45", "--loss", "0", "--availbw", "6.5"]
        )
        assert code == 0
        assert "avail-bw" in capsys.readouterr().out

    def test_window_caps_prediction(self, capsys):
        predict.main(
            ["--rtt-ms", "100", "--loss", "0", "--availbw", "50",
             "--window-kb", "20"]
        )
        out = capsys.readouterr().out
        assert "1.600" in out  # 20 KB * 8 / 0.1 s = 1.6 Mbps

    def test_model_choice(self, capsys):
        code = predict.main(
            ["--rtt-ms", "45", "--loss", "0.002", "--model", "mathis"]
        )
        assert code == 0
        assert "mathis" in capsys.readouterr().out

    def test_invalid_loss_rejected(self, capsys):
        code = predict.main(["--rtt-ms", "45", "--loss", "1.5"])
        assert code == 2


class TestPredictValidation:
    """Argument validation is a parser.error: one line, exit code 2."""

    @pytest.mark.parametrize(
        ("argv", "needle"),
        [
            (["--rtt-ms", "-5", "--loss", "0.01"], "--rtt-ms"),
            (["--rtt-ms", "0", "--loss", "0.01"], "--rtt-ms"),
            (["--rtt-ms", "45", "--loss", "1.5"], "--loss"),
            (["--rtt-ms", "45", "--loss", "-0.1"], "--loss"),
            (["--rtt-ms", "45", "--loss", "nan"], "--loss"),
            (["--rtt-ms", "45", "--loss", "0.01", "--window-kb", "0"], "--window-kb"),
            (["--rtt-ms", "45", "--loss", "0.01", "--window-kb", "-8"], "--window-kb"),
            (["--rtt-ms", "45", "--loss", "0.01", "--mss", "0"], "--mss"),
            (["--rtt-ms", "45", "--loss", "0.01", "--availbw", "-2"], "--availbw"),
            (["--rtt-ms", "45", "--loss", "0"], "--availbw"),
        ],
    )
    def test_bad_arguments_exit_2_with_flag_named(self, capsys, argv, needle):
        code = predict.main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err
        assert needle in err

    def test_multiple_problems_reported_together(self, capsys):
        code = predict.main(["--rtt-ms", "-1", "--loss", "2", "--mss", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--rtt-ms" in err and "--loss" in err and "--mss" in err

    def test_valid_arguments_still_pass(self, capsys):
        code = predict.main(
            ["--rtt-ms", "45", "--loss", "0.002", "--window-kb", "64", "--mss", "1460"]
        )
        assert code == 0
        assert "predicted throughput" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--rtt-ms", "1e-320", "--loss", "0.01"],
            ["--rtt-ms", "3.8e-205", "--loss", "1e-310"],
            ["--rtt-ms", "1e308", "--loss", "0", "--window-kb", "8e304", "--availbw", "1"],
        ],
        ids=["ceiling-overflows", "model-divides-by-zero", "window-overflows"],
    )
    def test_inputs_without_a_finite_answer_exit_2(self, capsys, argv):
        """Inputs each check accepts, whose answer is not a finite
        number, are one error line naming them, not a traceback."""
        assert predict.main(argv) == 2
        err = capsys.readouterr().err
        assert "error: no finite prediction for --rtt-ms" in err

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rtt=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        loss=st.floats(0.0, 1.0, exclude_max=True),
        window=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        availbw=st.none() | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_every_answer_is_finite_or_exit_2(self, capsys, rtt, loss, window, availbw):
        argv = ["--rtt-ms", repr(rtt), "--loss", repr(loss), "--window-kb", repr(window)]
        if availbw is not None:
            argv += ["--availbw", repr(availbw)]
        code = predict.main(argv)
        out, err = capsys.readouterr()
        if code == 2:
            assert "error: " in err and "--" in err.rsplit("error: ", 1)[1]
            return
        assert code == 0
        numbers = [float(n) for n in re.findall(r"(\S+) Mbps", out)]
        assert len(numbers) == 2 and all(math.isfinite(n) for n in numbers)


class TestCampaignValidation:
    """A bad option value or a missing output directory is a
    parser.error naming it (exit code 2), found before the cache is
    consulted or anything is simulated or written."""

    ARGS = ["--paths", "2", "--traces", "1", "--epochs", "5", "--quiet"]

    @pytest.fixture
    def untouched(self, monkeypatch):
        """Fail the test if the run looks the campaign up or simulates it."""
        from repro.fastpath import vector
        from repro.testbed.cache import DatasetCache

        calls = []

        def refuse(name):
            def stand_in(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called")

            return stand_in

        monkeypatch.setattr(DatasetCache, "lookup", refuse("lookup"))
        monkeypatch.setattr(vector, "run_fluid_trace", refuse("engine"))
        return calls

    @pytest.mark.parametrize(
        ("option", "value"),
        [
            ("--paths", "0"),
            ("--traces", "0"),
            ("--epochs", "0"),
            ("--duration", "0"),
            ("--max-retries", "-1"),
            ("--retry-backoff", "-1"),
            ("--job-timeout", "0"),
        ],
    )
    def test_bad_value_exits_2_naming_the_option(
        self, tmp_path, capsys, untouched, option, value
    ):
        out = tmp_path / "ds.csv"
        code = campaign.main([*self.ARGS, option, value, "-o", str(out)])
        assert code == 2
        (line,) = [
            line for line in capsys.readouterr().err.splitlines() if "error" in line
        ]
        assert f"argument {option}:" in line
        assert untouched == []
        assert not out.exists()
        assert not (tmp_path / "dataset-cache").exists()

    def test_missing_output_directory_exits_2_before_simulating(
        self, tmp_path, capsys, untouched
    ):
        missing = tmp_path / "missing"
        code = campaign.main(
            [*self.ARGS, "--no-cache", "-o", str(missing / "ds.csv")]
        )
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert f"argument -o/--output: directory {missing} does not exist" in line
        assert untouched == []
        assert not missing.exists()

    @pytest.mark.parametrize("given", ["option", "environment"])
    @pytest.mark.parametrize(
        "option, env",
        [
            ("--cache-dir", "REPRO_CACHE_DIR"),
            ("--checkpoint-dir", "REPRO_CHECKPOINT_DIR"),
        ],
    )
    def test_store_directory_that_cannot_be_made_exits_2(
        self, tmp_path, capsys, monkeypatch, untouched, option, env, given
    ):
        """Regression: a store directory under a file ended in a
        traceback.  It is one line naming the option, or the variable it
        came from, exit 2, before anything is looked up or simulated."""
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        store = blocker / "store"
        out = tmp_path / "ds.csv"
        args = [*self.ARGS, "-o", str(out)]
        if option == "--checkpoint-dir":
            args.append("--no-cache")
        if given == "option":
            args += [option, str(store)]
        else:
            monkeypatch.setenv(env, str(store))
        assert campaign.main(args) == 2
        (line,) = [
            line for line in capsys.readouterr().err.splitlines() if "error" in line
        ]
        prefix = f"argument {option}" if given == "option" else env
        assert line.startswith(
            f"repro-campaign: error: {prefix}: cannot make directory {store}: "
        )
        assert untouched == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]

    @pytest.mark.parametrize("store", ["--cache-dir", "--checkpoint-dir"])
    def test_output_in_a_new_store_directory_still_runs(self, tmp_path, store):
        """The stores' directories are made first, so either may be the
        output's."""
        out_dir = tmp_path / "out" / "store"
        code = campaign.main(
            [*self.ARGS, store, str(out_dir), "-o", str(out_dir / "ds.csv")]
        )
        assert code == 0
        assert (out_dir / "ds.csv").is_file()


class TestServeCli:
    """repro-serve argument handling (the service itself is exercised
    by tests/serve and tools/serve_smoke.py)."""

    def test_unknown_predictor_rejected(self, capsys):
        code = serve.main(["--predictors", "ma10,bogus", "--port", "0"])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_empty_predictors_rejected(self, capsys):
        code = serve.main(["--predictors", ",", "--port", "0"])
        assert code == 2

    def test_max_paths_must_cover_shards(self, capsys):
        code = serve.main(["--shards", "8", "--max-paths", "4", "--port", "0"])
        assert code == 2
        assert "--max-paths" in capsys.readouterr().err

    def test_build_store_divides_capacity(self):
        args = serve.build_parser().parse_args(
            ["--shards", "4", "--max-paths", "100", "--predictors", "last"]
        )
        store = serve.build_store(args)
        assert store.n_shards == 4
        assert store.max_paths_per_shard == 25
        assert sorted(store.specs) == ["last"]
