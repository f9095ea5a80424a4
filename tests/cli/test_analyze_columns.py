"""``repro-analyze`` reads a saved dataset's columns, not its CSV text.

The evaluation cache keeps one columns entry per distinct CSV
(:meth:`~repro.analysis.evalcache.EvaluationCache.read_dataset`), keyed
on the sha256 of the file's bytes and the source of the parser and the
records.  A rerun on the same bytes reads the entry and parses nothing;
any other bytes, or an edited parser, parse again.
"""

import hashlib
import importlib
import json
from importlib.util import spec_from_file_location
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import evalcache
from repro.analysis.evalcache import EvaluationCache, columns_key
from repro.cli import analyze
from repro.obs.recorder import analysis_sidecar_paths
from repro.paths.config import may_2004_catalog, scaled_catalog
from repro.testbed import io as dataset_io
from repro.testbed.campaign import Campaign, CampaignSettings, run_march_2006
from repro.testbed.io import _LEGACY_COLUMNS, load_dataset, save_dataset
from tests.testbed import entry_damage
from tests.testbed.test_io import datasets, quoted_datasets

#: Figures that read the FB columns and the HB walks, quick to render.
FIGURES = ["--figures", "2", "12", "19", "22"]


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep every store inside the test's tmp dir, not ~/.cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "dataset-cache"))
    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "checkpoints"))
    monkeypatch.setenv("REPRO_EVAL_CACHE_DIR", str(tmp_path / "evals"))
    monkeypatch.delenv("REPRO_OBS", raising=False)


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    """A 4-path x 2-trace x 30-epoch May-2004 dataset, saved."""
    path = tmp_path_factory.mktemp("columns") / "small.csv"
    campaign = Campaign(scaled_catalog(may_2004_catalog(), 4), seed=3, label="small")
    save_dataset(campaign.run(CampaignSettings(n_traces=2, epochs_per_trace=30)), path)
    return path


def _copy(source: Path, tmp_path: Path) -> Path:
    path = tmp_path / "ds.csv"
    path.write_bytes(source.read_bytes())
    return path


def _entries(root: Path) -> list[str]:
    return sorted(p.name for p in root.glob("*.columns.npz*"))


def _run(path: Path, capsys, *args: str) -> tuple[str, dict]:
    """One ``repro-analyze`` run: its stdout and its manifest."""
    assert analyze.main([str(path), *FIGURES, *args]) == 0
    out = capsys.readouterr().out
    manifest_path, _ = analysis_sidecar_paths(path)
    return out, json.loads(manifest_path.read_text())


def _counter(manifest: dict, name: str) -> int:
    return sum(c["value"] for c in manifest["counters"] if c["name"] == name)


def _read_twice(root: Path, path: Path):
    """The dataset as a miss parses it, then as a hit reads it."""
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    cold = EvaluationCache(root).read_dataset(path)
    warm = EvaluationCache(root).read_dataset(path)
    assert (cold.loaded_from, warm.loaded_from) == ("csv", "columns")
    assert cold.digest == warm.digest == digest
    assert _entries(root) == [f"{columns_key(digest)}.columns.npz"]
    return cold.dataset, warm.dataset


class TestHitEqualsParse:
    """A hit gives the dataset the CSV parses to: ids, label, column bytes."""

    def test_benchmark_catalog(self, tmp_path):
        """The benchmark's seed-0 catalog: 35 paths x 1 trace x 150 epochs."""
        path = tmp_path / "may.csv"
        campaign = Campaign(may_2004_catalog(), seed=0, label="may2004")
        save_dataset(campaign.run(CampaignSettings(n_traces=1)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest().startswith("3b0a0443")
        cold, warm = _read_twice(tmp_path / "evals", path)
        parsed = load_dataset(path)
        assert cold == warm == parsed
        assert warm.label == parsed.label == "may2004"

    def test_march_2006(self, tmp_path):
        """Duration cuts and no W = 20 KB samples."""
        path = tmp_path / "march.csv"
        save_dataset(run_march_2006(seed=5, n_traces=1, epochs_per_trace=12), path)
        cold, warm = _read_twice(tmp_path / "evals", path)
        parsed = load_dataset(path)
        assert cold == warm == parsed and warm.label == parsed.label
        assert warm.traces[0].duration_throughputs_mbps.shape == (12, 3)
        assert not warm.traces[0].smallw_present.any()

    def test_legacy_v1_file(self, small_csv, tmp_path):
        """A file without the ``truth_present`` column."""
        header, columns, *rows = small_csv.read_text().splitlines()
        at = columns.split(",").index("truth_present")
        legacy = [
            ",".join(f for i, f in enumerate(row.split(",")) if i != at) for row in rows
        ]
        path = tmp_path / "v1.csv"
        path.write_text("\n".join([header, ",".join(_LEGACY_COLUMNS), *legacy]) + "\n")
        cold, warm = _read_twice(tmp_path / "evals", path)
        assert cold == warm == load_dataset(path) == load_dataset(small_csv)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(datasets(finite=True) | quoted_datasets())
    def test_drawn_datasets(self, tmp_path_factory, dataset):
        root = tmp_path_factory.mktemp("drawn")
        path = root / "ds.csv"
        save_dataset(dataset, path)
        cold, warm = _read_twice(root / "evals", path)
        assert cold == warm == load_dataset(path) == dataset
        assert warm.label == dataset.label


class TestAnalyzeReadsColumns:
    def test_rerun_reads_columns_and_prints_the_same(self, small_csv, tmp_path, capsys):
        path = _copy(small_csv, tmp_path)
        cold_out, cold = _run(path, capsys)
        warm_out, warm = _run(path, capsys)
        assert warm_out == cold_out
        assert cold["analysis"]["loaded_from"] == "csv"
        assert warm["analysis"]["loaded_from"] == "columns"
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert cold["cache_key"] == warm["cache_key"] == digest
        assert _entries(tmp_path / "evals") == [f"{columns_key(digest)}.columns.npz"]

    def test_a_hit_parses_nothing(self, small_csv, tmp_path, capsys, monkeypatch):
        path = _copy(small_csv, tmp_path)
        cold_out, _ = _run(path, capsys)

        def refuse(*args, **kwargs):
            raise AssertionError("the CSV was parsed")

        monkeypatch.setattr(dataset_io, "load_dataset", refuse)
        warm_out, warm = _run(path, capsys)
        assert warm_out == cold_out
        assert warm["analysis"]["loaded_from"] == "columns"

    def test_edited_cell_parses_again(self, small_csv, tmp_path, capsys):
        """One digit of a throughput cell: the next run parses the new
        bytes and prints what a cold run of them prints."""
        path = _copy(small_csv, tmp_path)
        reference, _ = _run(path, capsys)
        _run(path, capsys)
        lines = path.read_text().splitlines(keepends=True)
        at = lines[1].split(",").index("throughput_mbps")
        fields = lines[5].split(",")
        digit = next(i for i, c in enumerate(fields[at]) if c in "123456789")
        fields[at] = (
            fields[at][:digit]
            + str(int(fields[at][digit]) % 9 + 1)
            + fields[at][digit + 1 :]
        )
        lines[5] = ",".join(fields)
        path.write_text("".join(lines))

        edited_out, edited = _run(path, capsys)
        assert edited["analysis"]["loaded_from"] == "csv"
        assert len(_entries(tmp_path / "evals")) == 2
        cold_out, _ = _run(path, capsys, "--eval-cache-dir", str(tmp_path / "fresh"))
        assert edited_out == cold_out != reference

    @pytest.mark.parametrize(
        "damage",
        [
            lambda path: path.write_bytes(b"garbage, not an entry"),
            entry_damage.truncate,
            entry_damage.drop_member,
            entry_damage.shorten_column,
        ],
        ids=["garbage", "truncated", "missing-member", "lengths-disagree"],
    )
    def test_damaged_entry_is_quarantined_and_rewritten(
        self, small_csv, tmp_path, capsys, damage
    ):
        path = _copy(small_csv, tmp_path)
        reference, _ = _run(path, capsys)
        (entry,) = (tmp_path / "evals").glob("*.columns.npz")
        damage(entry)
        out, manifest = _run(path, capsys)
        assert out == reference
        assert manifest["analysis"]["loaded_from"] == "csv"
        assert _counter(manifest, "evalcache.corrupt") == 1
        assert _entries(tmp_path / "evals") == [entry.name, entry.name + ".corrupt"]
        out, manifest = _run(path, capsys)
        assert out == reference
        assert manifest["analysis"]["loaded_from"] == "columns"

    def test_failed_load_writes_no_entry(self, small_csv, tmp_path, capsys):
        """A CSV that fails to parse, past its first traces, is refused
        on every run: nothing of it was stored to be served later."""
        path = _copy(small_csv, tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        at = lines[1].split(",").index("ahat_mbps")
        fields = lines[-1].split(",")
        fields[at] = "nan"
        lines[-1] = ",".join(fields)
        path.write_text("".join(lines))
        for _ in range(2):
            assert analyze.main([str(path), *FIGURES]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert f"line {len(lines)}: ahat_mbps must be finite, got nan" in err
            assert list((tmp_path / "evals").iterdir()) == []

    def test_unwritable_entry_is_an_event_not_an_error(
        self, small_csv, tmp_path, capsys, monkeypatch
    ):
        """A cache the run cannot write to (say, a read-only shared one)
        still analyses: the entry is only a saving for a later run."""
        path = _copy(small_csv, tmp_path)
        reference, _ = _run(path, capsys, "--no-eval-cache")

        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(dataset_io, "write_entry", refuse)
        out, manifest = _run(path, capsys)
        assert out == reference
        assert manifest["analysis"]["loaded_from"] == "csv"
        _, events_path = analysis_sidecar_paths(path)
        events = [json.loads(line) for line in events_path.read_text().splitlines()]
        (event,) = [e for e in events if e["kind"] == "evalcache"]
        assert event["outcome"] == "unwritable"
        assert "Permission denied" in event["reason"]
        assert _entries(tmp_path / "evals") == []

    def test_no_eval_cache_reads_and_writes_no_entry(
        self, small_csv, tmp_path, capsys, monkeypatch
    ):
        path = _copy(small_csv, tmp_path)
        reference, _ = _run(path, capsys)
        evals = tmp_path / "evals"
        before = {p.name: p.read_bytes() for p in evals.iterdir()}
        parses = []
        parse = dataset_io.load_dataset

        def counted(*args, **kwargs):
            parses.append(args[0])
            return parse(*args, **kwargs)

        monkeypatch.setattr(dataset_io, "load_dataset", counted)
        out, manifest = _run(path, capsys, "--no-eval-cache")
        assert out == reference
        assert manifest["analysis"]["loaded_from"] == "csv"
        assert len(parses) == 1
        assert {p.name: p.read_bytes() for p in evals.iterdir()} == before
        fresh = tmp_path / "fresh"
        _run(path, capsys, "--no-eval-cache", "--eval-cache-dir", str(fresh))
        assert not fresh.exists()


@pytest.mark.parametrize("name", ["repro.testbed.io", "repro.paths.records"])
def test_columns_key_covers_parser_sources(small_csv, tmp_path, monkeypatch, name):
    """Editing the parser or the records moves the key, so an entry the
    old code wrote is never read: the module's spec is pointed at an
    edited copy."""
    path = _copy(small_csv, tmp_path)
    cache = EvaluationCache(tmp_path / "evals")
    cache.read_dataset(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    module = importlib.import_module(name)
    copy = tmp_path / Path(module.__file__).name
    copy.write_text(Path(module.__file__).read_text())
    monkeypatch.setattr(module, "__spec__", spec_from_file_location(name, copy))
    # The uncached fingerprint, so the key reads the sources again.
    monkeypatch.setattr(
        evalcache, "columns_fingerprint", evalcache.columns_fingerprint.__wrapped__
    )
    before = columns_key(digest)
    assert cache.read_dataset(path).loaded_from == "columns"
    copy.write_text(copy.read_text() + "\n# edited\n")
    assert columns_key(digest) != before
    assert cache.read_dataset(path).loaded_from == "csv"
