"""``repro-analyze`` keeps its report: a rerun prints it and renders nothing.

A run that exits 0 having written its whole stdout stores it
(:mod:`repro.analysis.reportcache`) under a key covering the dataset's
bytes, the ``--figures`` list as given, the package's source and the
Python and numpy versions.  A rerun with that key writes the stored text
byte for byte; anything else renders again.
"""

import hashlib
import io
import json
import shutil
import sys
from importlib.util import spec_from_file_location
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.analysis import evalcache, parallel, reportcache
from repro.analysis.figures import FIGURES
from repro.analysis.reportcache import read_report, report_key
from repro.cli import analyze
from repro.obs.recorder import analysis_sidecar_paths
from repro.paths.config import may_2004_catalog, scaled_catalog
from repro.testbed.campaign import Campaign, CampaignSettings
from repro.testbed.io import load_dataset, save_dataset

#: Figures that read the FB columns and the HB walks, quick to render.
FIGURES_ARGS = ["--figures", "2", "12", "19", "22"]


@pytest.fixture(autouse=True)
def _observed(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    """A 4-path x 2-trace x 30-epoch May-2004 dataset, saved."""
    path = tmp_path_factory.mktemp("report") / "small.csv"
    campaign = Campaign(scaled_catalog(may_2004_catalog(), 4), seed=3, label="small")
    save_dataset(campaign.run(CampaignSettings(n_traces=2, epochs_per_trace=30)), path)
    return path


def _copy(source: Path, tmp_path: Path) -> Path:
    path = tmp_path / "ds.csv"
    path.write_bytes(source.read_bytes())
    return path


def _reports(root: Path) -> list[Path]:
    return sorted(root.glob("*.report.json"))


def _run(path: Path, capsys, *args: str, code: int = 0) -> tuple[str, str, dict]:
    """One ``repro-analyze`` run: its stdout, stderr and manifest."""
    assert analyze.main([str(path), *args]) == code
    captured = capsys.readouterr()
    manifest_path, _ = analysis_sidecar_paths(path)
    return captured.out, captured.err, json.loads(manifest_path.read_text())


def _events(path: Path) -> list[dict]:
    _, events_path = analysis_sidecar_paths(path)
    return [json.loads(line) for line in events_path.read_text().splitlines()]


def _counters(manifest: dict, prefix: str) -> dict[str, int]:
    return {
        c["name"]: c["value"] for c in manifest["counters"] if c["name"].startswith(prefix)
    }


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone (``repro-analyze ds.csv | head``)."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestHit:
    def test_rerun_prints_the_report_and_renders_nothing(
        self, small_csv, tmp_path, capsys, monkeypatch
    ):
        path = _copy(small_csv, tmp_path)
        evals = tmp_path / "evals"
        cold_out, cold_err, cold = _run(path, capsys, *FIGURES_ARGS)
        (report,) = _reports(evals)
        stored = {p.name: p.read_bytes() for p in evals.iterdir()}

        def refuse(*args, **kwargs):
            raise AssertionError("a report hit loaded, walked or rendered")

        monkeypatch.setattr(evalcache.EvaluationCache, "read_dataset", refuse)
        monkeypatch.setattr(parallel, "warm_eval_cache", refuse)
        for number in (2, 12, 19, 22):
            monkeypatch.setitem(FIGURES, number, refuse)
        out, err, warm = _run(path, capsys, *FIGURES_ARGS)
        assert out == cold_out
        assert {p.name: p.read_bytes() for p in evals.iterdir()} == stored

        computed, cached = (warm["analysis"][k] for k in ("warm_computed", "warm_cached"))
        walks = cold["analysis"]["warm_cached"] + cold["analysis"]["warm_computed"]
        assert (computed, cached) == (0, walks) and walks > 0
        assert f"warm phase: 0 evaluations computed, {walks} cached, workers=1" in err
        assert "telemetry -> " in err and "telemetry -> " in cold_err
        assert warm["analysis"]["loaded_from"] == "report"
        for key in ("dataset", "figures", "skipped", "warm_planned", "workers"):
            assert warm["analysis"][key] == cold["analysis"][key], key
        assert sorted(warm["analysis"]) == sorted(cold["analysis"])
        assert warm["settings"] == cold["settings"]
        assert warm["cache_key"] == cold["cache_key"]
        assert warm["counts"] == cold["counts"]

        assert not any(_counters(warm, "evalcache.").values())
        assert set(_counters(warm, "hb.").values()) == {0}  # core: always listed
        assert _counters(cold, "evalcache.")["evalcache.misses"] > 0
        kinds = {event["kind"] for event in _events(path)}
        assert not kinds & {"figure", "analysis.warm", "evalcache"}
        assert report.name == f"{report_key(cold['cache_key'], [2, 12, 19, 22])}.report.json"

    def test_every_figure_when_none_is_given(self, small_csv, tmp_path, capsys):
        path = _copy(small_csv, tmp_path)
        cold_out, _, cold = _run(path, capsys)
        out, _, warm = _run(path, capsys)
        assert out == cold_out
        assert warm["analysis"]["loaded_from"] == "report"
        assert warm["settings"]["figures"] == cold["settings"]["figures"] == sorted(FIGURES)
        assert warm["analysis"]["skipped"] == cold["analysis"]["skipped"] == [11, 23]

    def test_any_worker_count_is_served(self, small_csv, tmp_path, capsys):
        path = _copy(small_csv, tmp_path)
        cold_out, _, _ = _run(path, capsys, *FIGURES_ARGS, "--workers", "1")
        out, err, warm = _run(path, capsys, *FIGURES_ARGS, "--workers", "2")
        assert out == cold_out
        assert warm["analysis"]["loaded_from"] == "report"
        assert warm["analysis"]["workers"] == 2
        assert "workers=2" in err

    def test_a_closed_pipe_on_a_hit_still_exits_0(
        self, small_csv, tmp_path, capsys, monkeypatch
    ):
        path = _copy(small_csv, tmp_path)
        _run(path, capsys, *FIGURES_ARGS)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert analyze.main([str(path), *FIGURES_ARGS]) == 0


class TestKey:
    """The key moves with every input of the output, and only with those."""

    DIGEST = hashlib.sha256(b"dataset bytes").hexdigest()

    def test_dataset_bytes(self):
        other = hashlib.sha256(b"dataset bytez").hexdigest()
        assert report_key(self.DIGEST, None) != report_key(other, None)

    @pytest.mark.parametrize(
        "first, second",
        [(None, [2]), ([2], [2, 19]), ([2, 19], [19, 2]), ([2], [2, 2])],
    )
    def test_figures_list_and_order(self, first, second):
        assert report_key(self.DIGEST, first) != report_key(self.DIGEST, second)

    def test_python_version(self, monkeypatch):
        before = report_key(self.DIGEST, None)
        monkeypatch.setattr(sys, "version", sys.version + " (another build)")
        assert report_key(self.DIGEST, None) != before

    def test_numpy_version(self, monkeypatch):
        import numpy

        assert reportcache._numpy_version() == numpy.__version__
        before = report_key(self.DIGEST, None)
        monkeypatch.setattr(reportcache, "_numpy_version", lambda: "0.0.1")
        assert report_key(self.DIGEST, None) != before

    @pytest.mark.parametrize(
        "change",
        [
            lambda root: (root / "hb" / "ewma.py").write_text(
                (root / "hb" / "ewma.py").read_text() + "\n# edited\n"
            ),
            lambda root: (root / "analysis" / "figures.py").write_text(
                (root / "analysis" / "figures.py").read_text() + "\n# edited\n"
            ),
            lambda root: (root / "serve" / "extra.py").write_text(""),
            lambda root: (root / "core" / "units.py").rename(root / "core" / "unit.py"),
        ],
        ids=["edited-hb", "edited-figures", "added", "renamed"],
    )
    def test_package_source(self, tmp_path, monkeypatch, capsys, small_csv, change):
        """Any ``*.py`` of the package: its spec is pointed at a copy."""
        copy = tmp_path / "repro"
        shutil.copytree(
            Path(repro.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__")
        )
        spec = spec_from_file_location(
            "repro", copy / "__init__.py", submodule_search_locations=[str(copy)]
        )
        monkeypatch.setattr(repro, "__spec__", spec)
        path = _copy(small_csv, tmp_path)
        before = report_key(self.DIGEST, None)
        reference, _, _ = _run(path, capsys, *FIGURES_ARGS)
        change(copy)
        assert report_key(self.DIGEST, None) != before
        out, _, manifest = _run(path, capsys, *FIGURES_ARGS)
        assert manifest["analysis"]["loaded_from"] == "columns"
        assert out == reference
        assert len(_reports(tmp_path / "evals")) == 2

    def test_one_byte_of_the_dataset_renders_again(self, small_csv, tmp_path, capsys):
        path = _copy(small_csv, tmp_path)
        reference, _, _ = _run(path, capsys, *FIGURES_ARGS)
        data = bytearray(path.read_bytes())
        at = data.index(b"small") + 4
        data[at : at + 1] = b"L"  # the label: "smalL"
        path.write_bytes(bytes(data))
        out, _, manifest = _run(path, capsys, *FIGURES_ARGS)
        assert manifest["analysis"]["loaded_from"] == "csv"
        assert out == reference.replace("'small'", "'smalL'", 1) != reference

    def test_another_figure_order_renders_again(self, small_csv, tmp_path, capsys):
        path = _copy(small_csv, tmp_path)
        first, _, _ = _run(path, capsys, "--figures", "2", "19")
        out, _, manifest = _run(path, capsys, "--figures", "19", "2")
        assert manifest["analysis"]["loaded_from"] == "columns"
        assert out != first
        assert sorted(out.splitlines()) == sorted(first.splitlines())
        assert len(_reports(tmp_path / "evals")) == 2


def _without(field):
    def damage(data):
        doc = json.loads(data)
        del doc[field]
        return json.dumps(doc).encode()

    return damage


def _with(field, value):
    def damage(data):
        return json.dumps({**json.loads(data), field: value}).encode()

    return damage


#: Ways a stored report can fail to read back as one: its bytes to the
#: damaged bytes.
DAMAGE = {
    "garbage": lambda data: b"garbage, not a report",
    "truncated": lambda data: data[: len(data) // 2],
    "not-utf8": lambda data: b"\xff\xfe" + data,
    "not-an-object": lambda data: b'["stdout", 1, 2]',
    "missing-stdout": _without("stdout"),
    "missing-walks": _without("walks"),
    "stdout-not-text": _with("stdout", 12),
    "planned-negative": _with("planned", -1),
    "epochs-a-bool": _with("epochs", True),
    "figures-not-a-list": _with("figures", 2),
    "figure-not-a-number": _with("skipped", ["11"]),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_report_is_quarantined_and_rewritten(small_csv, tmp_path, capsys, damage):
    path = _copy(small_csv, tmp_path)
    reference, _, _ = _run(path, capsys, *FIGURES_ARGS)
    (report,) = _reports(tmp_path / "evals")
    data = report.read_bytes()
    damaged = DAMAGE[damage](data)
    report.write_bytes(damaged)
    out, _, manifest = _run(path, capsys, *FIGURES_ARGS)
    assert out == reference
    assert manifest["analysis"]["loaded_from"] == "columns"
    assert _counters(manifest, "evalcache.corrupt") == {"evalcache.corrupt": 1}
    corrupt = report.with_name(report.name + ".corrupt")
    assert corrupt.read_bytes() == damaged
    assert report.read_bytes() == data
    out, _, manifest = _run(path, capsys, *FIGURES_ARGS)
    assert out == reference
    assert manifest["analysis"]["loaded_from"] == "report"


class TestNothingStored:
    def test_after_an_unknown_figure(self, small_csv, tmp_path, capsys):
        path = _copy(small_csv, tmp_path)
        for _ in range(2):
            out, _, manifest = _run(path, capsys, "--figures", "2", "99", code=2)
            assert "[fig 99] no renderer" in out
            assert manifest["analysis"]["loaded_from"] != "report"
        assert _reports(tmp_path / "evals") == []

    def test_after_an_aborted_warm_phase(self, small_csv, tmp_path, capsys, monkeypatch):
        path = _copy(small_csv, tmp_path)
        path_id = load_dataset(path).traces[0].path_id
        monkeypatch.setenv("REPRO_FAULT_SPEC", f"{path_id}/0:raise")  # every attempt
        for _ in range(2):
            assert analyze.main([str(path), *FIGURES_ARGS]) == 1
            assert "analysis aborted: " in capsys.readouterr().err
        assert _reports(tmp_path / "evals") == []

    def test_after_a_closed_pipe(self, small_csv, tmp_path, capsys, monkeypatch):
        path = _copy(small_csv, tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", ClosedPipe())
            assert analyze.main([str(path), *FIGURES_ARGS]) == 0
        assert _reports(tmp_path / "evals") == []
        _, _, manifest = _run(path, capsys, *FIGURES_ARGS)
        assert manifest["analysis"]["loaded_from"] == "columns"
        assert len(_reports(tmp_path / "evals")) == 1

    def test_without_the_eval_cache(self, small_csv, tmp_path, capsys):
        path = _copy(small_csv, tmp_path)
        reference, _, _ = _run(path, capsys, *FIGURES_ARGS, "--no-eval-cache")
        assert not (tmp_path / "evals").exists()
        _run(path, capsys, *FIGURES_ARGS)
        stored = {p.name: p.read_bytes() for p in (tmp_path / "evals").iterdir()}
        out, _, manifest = _run(path, capsys, *FIGURES_ARGS, "--no-eval-cache")
        assert out == reference
        assert manifest["analysis"]["loaded_from"] == "csv"
        assert {p.name: p.read_bytes() for p in (tmp_path / "evals").iterdir()} == stored

    def test_for_a_profiled_run(self, small_csv, tmp_path, capsys):
        """A profiled run is the analysis it profiles: it reads no report
        and writes none."""
        path = _copy(small_csv, tmp_path)
        reference, _, _ = _run(path, capsys, *FIGURES_ARGS, "--profile")
        assert _reports(tmp_path / "evals") == []
        _run(path, capsys, *FIGURES_ARGS)
        (report,) = _reports(tmp_path / "evals")
        out, _, manifest = _run(path, capsys, *FIGURES_ARGS, "--profile")
        assert out == reference
        assert manifest["analysis"]["loaded_from"] == "columns"
        assert Path(f"{path}.analysis.pstats").is_file()
        assert _reports(tmp_path / "evals") == [report]


def test_unwritable_report_is_an_event_not_an_error(
    small_csv, tmp_path, capsys, monkeypatch
):
    path = _copy(small_csv, tmp_path)
    reference, _, _ = _run(path, capsys, *FIGURES_ARGS, "--no-eval-cache")

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(reportcache, "atomic_write", refuse)
    out, _, manifest = _run(path, capsys, *FIGURES_ARGS)
    assert out == reference
    (event,) = [e for e in _events(path) if e["kind"] == "evalcache"]
    assert event["outcome"] == "unwritable" and "Permission denied" in event["reason"]
    assert _reports(tmp_path / "evals") == []


def test_the_dispatch_table_is_the_renderers_own(small_csv, tmp_path, capsys, monkeypatch):
    """``FIGURES`` read from the CLI is the dict its runs dispatch through,
    so a wrapper put in it renders (what the benchmark's shim does)."""
    assert analyze.FIGURES is FIGURES
    assert (analyze.UNITS, analyze.plan) == (
        sys.modules["repro.analysis.figures"].UNITS,
        sys.modules["repro.analysis.figures"].plan,
    )
    renderer = FIGURES[2]
    monkeypatch.setitem(FIGURES, 2, lambda ds: "wrapped " + renderer(ds))
    out, _, _ = _run(_copy(small_csv, tmp_path), capsys, "--figures", "2")
    assert "\nwrapped Fig. 2: FB error CDFs\n" in out


@pytest.fixture(scope="module")
def primed(small_csv, tmp_path_factory):
    """An evaluation cache holding the pack and columns entry of
    ``small_csv``, and no report."""
    root = tmp_path_factory.mktemp("primed")
    path = root / "ds.csv"
    path.write_bytes(small_csv.read_bytes())
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_EVAL_CACHE_DIR", str(root / "evals"))
        assert analyze.main([str(path)]) == 0
    for report in _reports(root / "evals"):
        report.unlink()
    return path


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    figures=st.lists(st.sampled_from(sorted(FIGURES)), min_size=1, max_size=5)
)
def test_hit_prints_what_the_miss_printed(primed, capsys, monkeypatch, figures):
    """Over figure subsets and orders, repeats included, the hit's stdout
    is the miss's, byte for byte."""
    monkeypatch.setenv("REPRO_EVAL_CACHE_DIR", str(primed.parent / "evals"))
    args = ["--figures", *map(str, figures)]
    for report in _reports(primed.parent / "evals"):
        report.unlink()
    capsys.readouterr()
    miss, _, first = _run(primed, capsys, *args)
    hit, _, second = _run(primed, capsys, *args)
    assert (first["analysis"]["loaded_from"], second["analysis"]["loaded_from"]) == (
        "columns",
        "report",
    )
    assert hit.encode() == miss.encode()
    key = report_key(first["cache_key"], figures)
    assert read_report(primed.parent / "evals", key).stdout == miss
