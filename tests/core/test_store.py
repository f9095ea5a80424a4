"""The store mechanics (:mod:`repro.core.store`) and the stores built on them.

Every store writes through one atomic write, reads its archives through
one checked open and sets damaged files aside through one quarantine.
The helpers are tested here one by one; then every store that writes a
zip archive — the dataset cache, the checkpoints, the evaluation packs
and the columns entries — is read back after one flipped bit anywhere
in its file: the read gives the data that was written, or a counted,
quarantined miss, and nothing else.
"""

import json
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.evalcache import EvalUnit, EvaluationCache, entry_key
from repro.analysis.parallel import warm_eval_cache
from repro.core import store
from repro.core.errors import DataError
from repro.core.store import (
    FlatArray,
    atomic_write,
    open_archive,
    quarantine,
    read_flat,
    read_json,
    store_root,
    write_container,
)
from repro.hb.lso import LsoConfig
from repro.hb.spec import PredictorSpec
from repro.obs.recorder import write_manifest
from repro.paths.config import may_2004_catalog, scaled_catalog
from repro.serve.state import ShardedStateStore
from repro.testbed.cache import DatasetCache
from repro.testbed.campaign import Campaign, CampaignSettings
from repro.testbed.checkpoint import CheckpointStore
from repro.testbed.io import save_dataset, write_entry
from tests.faults import counter_value, telemetry  # noqa: F401
from tests.testbed.entry_damage import ARCHIVE_DAMAGE, Tripwire

RUN_KEY = "deadbeef" * 8


def small_dataset():
    campaign = Campaign(scaled_catalog(may_2004_catalog(), 2), seed=3, label="store")
    return campaign.run(CampaignSettings(n_traces=1, epochs_per_trace=12))


def temp_files(root: Path) -> list[str]:
    return sorted(p.name for p in root.rglob("*.tmp"))


class TestStoreRoot:
    def test_variable_then_home_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_ROOT", str(tmp_path / "here"))
        assert store_root("REPRO_TEST_ROOT", "leaf") == tmp_path / "here"
        monkeypatch.setenv("REPRO_TEST_ROOT", "  ")
        assert store_root("REPRO_TEST_ROOT", "leaf") == (
            Path.home() / ".cache" / "repro" / "leaf"
        )
        monkeypatch.setenv("REPRO_TEST_ROOT", "~/elsewhere")
        assert store_root("REPRO_TEST_ROOT", "leaf") == Path.home() / "elsewhere"


class TestAtomicWrite:
    def test_writes_makes_the_directory_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "a" / "b" / "file.bin"
        assert atomic_write(path, lambda handle: handle.write(b"one")) == path
        atomic_write(path, lambda handle: handle.write(b"two"))
        assert path.read_bytes() == b"two"
        assert temp_files(tmp_path) == []

    @pytest.mark.parametrize("error", [ValueError("bad"), KeyboardInterrupt()])
    def test_a_writer_that_raises_leaves_the_previous_file(self, tmp_path, error):
        path = tmp_path / "file.bin"
        path.write_bytes(b"previous")

        def fail(handle):
            handle.write(b"half of the new")
            raise error

        with pytest.raises(type(error)):
            atomic_write(path, fail)
        assert path.read_bytes() == b"previous"
        assert os.listdir(tmp_path) == ["file.bin"]


def _write_entry(path: Path) -> None:
    write_entry(small_dataset(), path)


def _save_pack(path: Path) -> None:
    cache = EvaluationCache(path.parent)
    cache.open_pack(path.stem)
    cache.put((0, "p", 0, EvalUnit(PredictorSpec("ma", {"order": 2}))), _walk())
    cache.save_pack()


def _write_manifest(path: Path) -> None:
    events = path.with_suffix(".jsonl")
    write_manifest({"manifest_version": 2}, [{"kind": "x"}], path, events)


def _save_snapshot(path: Path) -> None:
    serve_store = ShardedStateStore()
    serve_store.ingest("k", [10.0, 11.0])
    serve_store.save(path)


def _walk():
    from repro.hb.evaluate import HbEvaluation

    return HbEvaluation("2-MA", "p", np.array([np.nan, 1.0]), np.array([np.nan, 0.1]))


@pytest.mark.parametrize(
    "write, name",
    [
        (_write_entry, "entry.npz"),
        (_save_pack, "pack.npz"),
        (_write_manifest, "run.manifest.json"),
        (_save_snapshot, "state.json"),
    ],
    ids=["dataset-entry", "pack", "manifest", "snapshot"],
)
def test_every_store_keeps_its_previous_file_when_a_write_fails(
    tmp_path, monkeypatch, write, name
):
    """Each store writes through :func:`atomic_write`: a write that fails
    at the rename leaves the file it would have replaced, and no temp
    file."""
    path = tmp_path / name
    write(path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def refuse(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(store.os, "replace", refuse)
    with pytest.raises(OSError, match="No space left"):
        write(path)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert temp_files(tmp_path) == []


class TestOpenArchive:
    def test_reads_a_good_archive(self, tmp_path):
        path = tmp_path / "a.zip"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("x", b"payload")
        with open_archive(path, "an archive") as archive:
            assert archive.read("x") == b"payload"

    def test_a_missing_file_is_a_plain_miss(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            with open_archive(tmp_path / "absent.zip", "an archive"):
                pass

    @pytest.mark.parametrize(
        "damage",
        [lambda path: path.write_bytes(b"garbage"), *ARCHIVE_DAMAGE.values()],
        ids=["garbage", *ARCHIVE_DAMAGE],
    )
    def test_damage_is_one_data_error_naming_the_file(self, tmp_path, damage):
        path = tmp_path / "a.npz"
        write_entry(small_dataset(), path)
        damage(path)
        with pytest.raises(DataError, match=f"{path} is not a dataset entry"):
            with open_archive(path, "a dataset entry") as archive:
                read_flat(archive, "index", np.uint8)

    def test_errors_raised_in_the_body_are_damage_too(self, tmp_path):
        path = tmp_path / "a.zip"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("x", b"{")
        with pytest.raises(DataError, match="is not a thing"):
            with open_archive(path, "a thing") as archive:
                json.loads(archive.read("x"))


@pytest.mark.parametrize(
    "data",
    [b"{torn", b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000, b"9" * 5000],
    ids=["syntax", "not-utf8", "deep-nesting", "overlong-integer"],
)
def test_read_json_refuses_what_is_not_json(tmp_path, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(DataError, match=f"{path} is not valid JSON"):
        read_json(path)


class TestQuarantine:
    def test_renames_counts_and_records(self, tmp_path, telemetry):
        path = tmp_path / "k.npz"
        path.write_bytes(b"bad")
        quarantine(path, "cache", key="k")
        assert not path.exists()
        assert (tmp_path / "k.npz.corrupt").read_bytes() == b"bad"
        assert counter_value(telemetry, "cache.corrupt") == 1
        (event,) = [e for e in telemetry.drain()["events"] if e["kind"] == "cache"]
        assert (event["outcome"], event["key"]) == ("corrupt", "k")

    def test_a_vanished_file_is_still_counted(self, tmp_path, telemetry):
        quarantine(tmp_path / "gone.npz", "checkpoint", path="gone")
        assert counter_value(telemetry, "checkpoint.corrupt") == 1
        assert list(tmp_path.iterdir()) == []


class TestContainer:
    def test_round_trip_and_np_load(self, tmp_path):
        path = tmp_path / "c.npz"
        parts = [np.arange(3.0), np.arange(5.0) * 2]
        with path.open("wb") as handle:
            write_container(
                handle,
                {"x": (np.float64, parts), "empty": (np.int64, [])},
                {"plain": b"bytes"},
            )
        with open_archive(path, "a container") as archive:
            assert read_flat(archive, "x", np.float64).tobytes() == (
                np.concatenate(parts).tobytes()
            )
            assert read_flat(archive, "empty", np.int64).size == 0
            assert archive.read("plain") == b"bytes"
            with archive.open("x.npy") as member:
                runs = FlatArray(member, np.float64)
                assert runs.take(2).tolist() == [0.0, 1.0]
                assert runs.take(6).tolist() == [2.0, 0.0, 2.0, 4.0, 6.0, 8.0]
                assert runs.remaining == 0
                with pytest.raises(ValueError, match="disagree in length"):
                    runs.take(1)
        with np.load(path) as loaded:
            assert loaded["x"].tolist() == np.concatenate(parts).tolist()

    def test_equal_entries_are_equal_bytes(self, tmp_path, monkeypatch):
        """An entry's plain members carry no clock time: the same dataset
        written an hour apart gives the same file."""
        dataset, written = small_dataset(), []
        for clock in (1e9, 1e9 + 3600):
            monkeypatch.setattr("time.time", lambda clock=clock: clock)
            path = tmp_path / f"{clock}.npz"
            write_entry(dataset, path, {"dataset.csv": b"csv", "dataset.json": b"{}"})
            written.append(path.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "array",
        [
            np.arange(4, dtype=np.int64),
            np.zeros((2, 2)),
            np.array([Tripwire(), Tripwire()], dtype=object),
        ],
        ids=["other-dtype", "two-dimensional", "object"],
    )
    def test_reads_only_flat_arrays_of_the_dtype(self, tmp_path, array):
        path = tmp_path / "c.npz"
        with zipfile.ZipFile(path, "w") as archive:
            with archive.open("x.npy", "w") as member:
                np.lib.format.write_array(member, array, allow_pickle=True)
        with pytest.raises(DataError, match="not a flat float64 array"):
            with open_archive(path, "a container") as archive:
                read_flat(archive, "x", np.float64)
        assert not Tripwire.tripped


# -- one flipped bit in any store's archive ---------------------------


def _walk_bytes(walk):
    return (
        walk.predictor_name,
        walk.series_name,
        walk.predictions.tobytes(),
        walk.errors.tobytes(),
        sorted(walk.outlier_indices),
        walk.shift_indices,
    )


class ArchiveKind:
    """One store's archive: how to write it once, where it lives under a
    root, and how that store reads it back (the data, or ``None`` for a
    miss)."""

    def __init__(self, dataset, csv: Path) -> None:
        self.dataset, self.csv = dataset, csv


class CacheEntry(ArchiveKind):
    counter = "cache.corrupt"

    def write(self, root):
        return DatasetCache(root).store("key", self.dataset)

    def read(self, root):
        """What both readers of an entry get: the CLI its CSV bytes, then
        :func:`~repro.testbed.cache.run_cached` its columns; ``None`` when
        either read missed."""
        cache = DatasetCache(root)
        served = cache.load("key")
        columns = served and cache.load("key", columns=True)
        if columns is None:
            return None
        return served.csv, columns.dataset()

    def expected(self):
        return self.csv.read_bytes(), self.dataset


class Checkpoint(ArchiveKind):
    counter = "checkpoint.corrupt"

    def write(self, root):
        return CheckpointStore(root).store_trace(RUN_KEY, self.dataset.traces[0])

    def read(self, root):
        trace = self.dataset.traces[0]
        store = CheckpointStore(root)
        return store.load_trace(RUN_KEY, trace.path_id, trace.trace_index)

    def expected(self):
        return self.dataset.traces[0]


class ColumnsEntry(ArchiveKind):
    counter = "evalcache.corrupt"

    def write(self, root):
        EvaluationCache(root).read_dataset(self.csv)
        (path,) = root.glob("*.columns.npz")
        return path

    def read(self, root):
        loaded = EvaluationCache(root).read_dataset(self.csv)
        return loaded.dataset if loaded.loaded_from == "columns" else None

    def expected(self):
        return self.dataset


class Pack(ArchiveKind):
    counter = "evalcache.corrupt"
    units = [
        EvalUnit(PredictorSpec("ma", {"order": 3})),
        EvalUnit(PredictorSpec("ewma", {"alpha": 0.5}), exclusion=LsoConfig()),
    ]

    def keys(self):
        return [
            entry_key(ordinal, trace, unit)
            for ordinal, trace in enumerate(self.dataset.traces)
            for unit in self.units
        ]

    def write(self, root):
        self.walked = warm_eval_cache(self.dataset, self.units, EvaluationCache(root))
        (path,) = root.glob("*.npz")
        return path

    def read(self, root):
        cache = EvaluationCache(root)
        (path,) = root.glob("*.npz")
        cache.open_pack(path.stem)
        walks = [cache.get(key) for key in self.keys()]
        if all(walk is None for walk in walks):
            return None
        return [_walk_bytes(walk) for walk in walks]

    def expected(self):
        return [
            _walk_bytes(self.walked[unit][ordinal])
            for ordinal in range(len(self.dataset.traces))
            for unit in self.units
        ]


KINDS = {
    "cache": CacheEntry,
    "checkpoint": Checkpoint,
    "columns": ColumnsEntry,
    "pack": Pack,
}


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """Each kind with its archive's bytes and its path relative to the
    store's root."""
    root = tmp_path_factory.mktemp("archives")
    dataset = small_dataset()
    csv = root / "store.csv"
    save_dataset(dataset, csv)
    written = {}
    for name, cls in KINDS.items():
        kind = cls(dataset, csv)
        path = kind.write(root / name)
        written[name] = (kind, path.read_bytes(), path.relative_to(root / name))
    return written


@pytest.mark.parametrize("name", sorted(KINDS))
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_a_flipped_bit_reads_as_the_data_or_a_quarantined_miss(
    archives, telemetry, name, data
):
    kind, original, relative = archives[name]
    bit = data.draw(st.integers(0, 8 * len(original) - 1), label="bit")
    flipped = bytearray(original)
    flipped[bit // 8] ^= 1 << (bit % 8)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(bytes(flipped))
        telemetry.drain()
        result = kind.read(root)
        corrupt = counter_value(telemetry, kind.counter)
        if result is None:
            assert corrupt == 1
            assert path.with_name(path.name + ".corrupt").read_bytes() == flipped
        else:
            assert result == kind.expected()
            assert corrupt == 0
    assert not Tripwire.tripped
