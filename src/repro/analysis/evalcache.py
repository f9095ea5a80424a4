"""HB evaluation units and the pack that keeps their walks per dataset.

Every HB figure of ``repro-analyze`` (16, 17, 19-23) reduces to
walk-forward evaluations of one predictor over one series of each
trace.  An :class:`EvalUnit` names one such evaluation for every trace
of a dataset: the predictor (a :class:`~repro.hb.spec.PredictorSpec`),
the series shape (the main transfers, the W = 20 KB companions, or the
main series down-sampled) and the outlier exclusion (an
:class:`~repro.hb.lso.LsoConfig`, or ``None``).  A unit
with an exclusion also carries the series' LSO segmentation under the
exclusion's thresholds — what Fig. 20's CoV reads.

:func:`walk_trace` walks units over one trace, each series shape in one
pass of :func:`~repro.hb.evaluate.evaluate_predictors` (units of one
predictor share its walk, LSO wrappers with equal thresholds and every
exclusion with them share one LSO kernel).  :func:`evaluate_units` does
that for every trace in memory and returns :class:`UnitResults`, the
``{unit: per-trace results}`` mapping the figures read; the warm phase
of ``repro-analyze`` (:func:`repro.analysis.parallel.warm_eval_cache`)
returns the same mapping, with the walks it could take from the pack
taken from there.

On disk a dataset's evaluations live together in one **pack**,
``<root>/<pack key>.npz`` (default root ``~/.cache/repro/evals``,
overridden by ``REPRO_EVAL_CACHE_DIR``).  The pack key
(:func:`pack_key`) covers the throughput samples of every trace of the
dataset — not its path — and :func:`code_fingerprint`, the source of
every module that computes a walk, derives a unit's series or lays out
the pack, so an edit to any of them keys a new pack instead of serving
walks the old code computed.  Inside the pack, an entry is keyed by its
trace (position in the dataset, path id and trace index) and its unit:
the pack key already covers every trace's samples, so no series is
hashed again.  The predictions, errors, outlier and shift indices of
all entries are concatenated into four flat arrays; an index holds each
entry's key, names and lengths, and each distinct unit once, its spec
as :meth:`~repro.hb.spec.PredictorSpec.to_dict` writes it.

:meth:`EvaluationCache.open_pack` reads a pack once;
:meth:`EvaluationCache.save_pack` writes it back once, atomically, with
the entries :meth:`EvaluationCache.put` added: of two concurrent
writers the last complete write wins.  A damaged pack is quarantined
(:mod:`repro.core.store`) and reads as empty, so its walks are
recomputed.  In process, :meth:`EvaluationCache.get` and
:meth:`EvaluationCache.put` are lookups and inserts of a memo dict.

Beside the packs, the root keeps one **columns entry** per distinct
dataset file, ``<root>/<columns key>.columns.npz``: the dataset the
CSV parses to, in the ``.npz`` column layout of
:func:`repro.testbed.io.write_entry`.  :meth:`EvaluationCache.read_dataset`
reads the file once; the sha256 of those bytes, with
:func:`columns_fingerprint`, is the key (:func:`columns_key`), so the
columns served are always those of the bytes just read, and an edit to
the parser, the records or the store container keys a new entry.  A
hit reads the entry and parses nothing; a miss parses the bytes already
read and writes the entry.  A damaged entry is quarantined like a pack,
and the CSV is parsed again.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections.abc import Iterable, Sequence
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, NamedTuple

import numpy as np

from repro.analysis.reportcache import default_eval_cache_dir
from repro.core.cachekey import source_fingerprint, stable_fingerprint
from repro.core.errors import DataError
from repro.core.store import (
    FlatArray,
    atomic_write,
    open_archive,
    quarantine,
    read_flat,
    write_container,
)
from repro.core.timeseries import TimeSeries
from repro.hb.base import PredictorFactory
from repro.hb.evaluate import HbEvaluation, evaluate_predictors
from repro.hb.lso import LsoConfig
from repro.hb.spec import PredictorSpec
from repro.obs import get_telemetry
from repro.paths.records import Dataset, Trace
from repro.testbed import io as dataset_io

# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EvalUnit:
    """One HB evaluation of every trace of a dataset.

    Attributes:
        predictor: a :class:`~repro.hb.spec.PredictorSpec`, which the
            pack can keep; or a caller's own factory (a subclass, a
            predictor outside the registered families), walked in memory
            only.
        small_window: walk the W = 20 KB series instead of the main one.
        downsample: keep every n-th sample of the series first (1 = all).
        exclusion: the outlier exclusion's LSO thresholds, or ``None``;
            with one, each result also carries the series' segmentation
            (:meth:`~repro.hb.evaluate.HbEvaluation.segmentation`).
    """

    predictor: PredictorFactory
    small_window: bool = False
    downsample: int = 1
    exclusion: LsoConfig | None = None

    @property
    def shape(self) -> tuple[bool, int]:
        """Which series of a trace the unit walks."""
        return (self.small_window, self.downsample)


#: One trace's result of a unit: the walk, or the error that voided it
#: (the one :func:`~repro.hb.evaluate.evaluate_predictor` raises for the
#: walk, or the one building the unit's series raised).
UnitResult = HbEvaluation | DataError


def unit_series(trace: Trace, unit: EvalUnit) -> TimeSeries:
    """The series of ``trace`` that ``unit`` walks.

    Raises:
        DataError: when the trace lacks it (no W = 20 KB samples).
    """
    series = trace.throughput_series(small_window=unit.small_window)
    return series.downsample(unit.downsample) if unit.downsample > 1 else series


def series_groups(
    trace: Trace, units: Sequence[EvalUnit]
) -> list[tuple[TimeSeries | DataError, list[int]]]:
    """The positions of ``units`` grouped by series shape, in order of
    first appearance, each with the series built once (or the
    :class:`~repro.core.errors.DataError` building it raised)."""
    groups: dict[tuple[bool, int], tuple[TimeSeries | DataError, list[int]]] = {}
    for position, unit in enumerate(units):
        group = groups.get(unit.shape)
        if group is None:
            try:
                series = unit_series(trace, unit)
            except DataError as exc:
                series = exc
            group = groups[unit.shape] = (series, [])
        group[1].append(position)
    return list(groups.values())


def walk_series(series: TimeSeries, units: Sequence[EvalUnit]) -> list[UnitResult]:
    """Walk ``units`` over ``series``, the series they all read, in one pass.

    Units of one predictor share its walk.  An invalid series voids
    every unit with the error naming its first bad sample.
    """
    shared: dict[PredictorFactory, PredictorFactory] = {}
    walks = [(shared.setdefault(u.predictor, u.predictor), u.exclusion) for u in units]
    try:
        return evaluate_predictors(series, walks)
    except DataError as exc:
        return [exc] * len(units)


def walk_trace(trace: Trace, units: Sequence[EvalUnit]) -> list[UnitResult]:
    """Each of ``units`` walked over ``trace``, one pass per series shape."""
    results: list[UnitResult] = [None] * len(units)  # type: ignore[list-item]
    for series, positions in series_groups(trace, units):
        if isinstance(series, DataError):
            walked = [series] * len(positions)
        else:
            walked = walk_series(series, [units[k] for k in positions])
        for position, result in zip(positions, walked):
            results[position] = result
    return results


class UnplannedUnitError(LookupError):
    """A figure read a unit outside the results it was rendered from."""


class UnitResults(dict):
    """Walk results by unit: ``results[unit]`` is a tuple holding one
    :data:`UnitResult` per trace, in dataset order.

    Reading a unit the mapping does not hold raises
    :class:`UnplannedUnitError` instead of a bare ``KeyError``.  The
    warm phase also records what it did: ``planned`` (unit-trace
    pairs), ``cached`` (taken from the pack), ``computed`` (walked) and
    ``workers`` (the resolved worker count).
    """

    planned = cached = computed = 0
    workers = 1

    def __missing__(self, unit: EvalUnit):
        raise UnplannedUnitError(f"{unit!r} is not among the planned units")


def evaluate_units(dataset: Dataset, units: Iterable[EvalUnit]) -> UnitResults:
    """Every unit walked over every trace of ``dataset``, in memory.

    The passes the warm phase runs, without a pack: what a figure
    rendered from the dataset alone reads.
    """
    units = tuple(dict.fromkeys(units))
    rows = [walk_trace(trace, units) for trace in dataset.traces]
    return UnitResults(
        (unit, tuple(row[position] for row in rows))
        for position, unit in enumerate(units)
    )


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------


@functools.cache
def code_fingerprint() -> str:
    """Fingerprint of the source of every module a pack entry depends
    on, read once per process: :mod:`repro.hb` (the predictors and their
    specs, the LSO kernel, the walk), :mod:`repro.core.timeseries` and
    :mod:`repro.paths.records` (a unit's series), this module (the units
    and the pack layout) and :mod:`repro.core.store` (the container)."""
    return source_fingerprint(
        "repro.hb",
        "repro.core.timeseries",
        "repro.paths.records",
        "repro.analysis.evalcache",
        "repro.core.store",
    )


def pack_key(dataset: Dataset) -> str:
    """The key of the pack holding ``dataset``'s evaluations.

    Covers every trace's identity and its throughput samples (the main
    and the W=20 KB transfers: everything a walk reads), plus
    :func:`code_fingerprint`.  The dataset's path and label are left
    out, so a copy of a dataset shares its pack.  Each trace hashes as
    (main, W=20 KB) pairs of float64, an absent W=20 KB sample as the
    NaN its column holds.
    """
    digest = hashlib.sha256()
    for trace in dataset.traces:
        digest.update(repr((trace.path_id, trace.trace_index, len(trace))).encode())
        digest.update(
            np.column_stack(
                (trace.throughput_mbps, trace.smallw_throughput_mbps)
            ).tobytes()
        )
    return stable_fingerprint({"traces": digest.hexdigest(), "code": code_fingerprint()})


@functools.cache
def columns_fingerprint() -> str:
    """Fingerprint of the source of the modules a columns entry depends
    on, read once per process: :mod:`repro.testbed.io` (the CSV parser
    and the entry layout), :mod:`repro.paths.records` (the columns) and
    :mod:`repro.core.store` (the container)."""
    return source_fingerprint(
        "repro.testbed.io", "repro.paths.records", "repro.core.store"
    )


def columns_key(digest: str) -> str:
    """The key of the columns entry of the CSV whose bytes hash to
    ``digest`` (sha256, hex), parsed by the current code."""
    return stable_fingerprint({"csv": digest, "code": columns_fingerprint()})


class LoadedDataset(NamedTuple):
    """What :meth:`EvaluationCache.read_dataset` read.

    Attributes:
        dataset: the dataset.
        digest: sha256 (hex) of the file's bytes, as read once.
        loaded_from: ``"columns"`` when a columns entry served it,
            ``"csv"`` when the bytes were parsed.
    """

    dataset: Dataset
    digest: str
    loaded_from: str


#: A pack entry's key: the trace's position in the dataset, its path id
#: and trace index, and the unit.  The position keeps two traces that
#: share their ids apart.
EntryKey = tuple[int, str, int, EvalUnit]


def entry_key(ordinal: int, trace: Trace, unit: EvalUnit) -> EntryKey:
    """The key of ``unit``'s walk over ``trace``, the dataset's ``ordinal``-th."""
    return (ordinal, trace.path_id, trace.trace_index, unit)


# ----------------------------------------------------------------------
# The pack
# ----------------------------------------------------------------------


#: The pack's flat arrays beside its index, and their dtypes.
_PACK_ARRAYS = {
    "predictions": np.float64,
    "errors": np.float64,
    "outliers": np.int64,
    "shifts": np.int64,
}


def _unit_from_json(row) -> EvalUnit:
    small_window, downsample, spec, exclusion = row
    return EvalUnit(
        PredictorSpec.from_dict(spec),
        bool(small_window),
        int(downsample),
        None if exclusion is None else LsoConfig(*exclusion),
    )


def _unit_to_json(unit: EvalUnit) -> list:
    exclusion = unit.exclusion
    return [
        unit.small_window,
        unit.downsample,
        unit.predictor.to_dict(),
        None
        if exclusion is None
        else [exclusion.level_shift_threshold, exclusion.outlier_threshold],
    ]


def _read_pack(path: Path) -> dict[EntryKey, HbEvaluation]:
    """The entries of the pack at ``path``, its arrays read in runs.

    Raises:
        FileNotFoundError: there is no pack at ``path``.
        DataError: the pack is damaged
            (:func:`~repro.core.store.open_archive`), or its index and
            arrays disagree or either is malformed.
    """
    with open_archive(path, "an evaluation pack") as pack, ExitStack() as members:
        index = json.loads(read_flat(pack, "index", np.uint8).tobytes())
        units = [_unit_from_json(row) for row in index["units"]]
        arrays = predictions, errors, outliers, shifts = [
            FlatArray(members.enter_context(pack.open(f"{name}.npy")), dtype)
            for name, dtype in _PACK_ARRAYS.items()
        ]
        entries: dict[EntryKey, HbEvaluation] = {}
        for row in index["entries"]:
            (
                ordinal, path_id, trace_index, unit,
                predictor_name, series_name, n_points, n_outliers, n_shifts,
            ) = row
            entries[(ordinal, path_id, trace_index, units[unit])] = HbEvaluation(
                predictor_name=predictor_name,
                series_name=series_name,
                predictions=predictions.take(n_points),
                errors=errors.take(n_points),
                outlier_indices=frozenset(outliers.take(n_outliers).tolist()),
                shift_indices=tuple(shifts.take(n_shifts).tolist()),
            )
        if any(array.remaining for array in arrays):
            raise ValueError("pack index and arrays disagree in length")
        return entries


def _write_pack(handle: BinaryIO, entries: dict[EntryKey, HbEvaluation]) -> None:
    """Write ``entries`` to ``handle`` in the layout :func:`_read_pack` reads.

    A container (:func:`~repro.core.store.write_container`) whose flat
    arrays are streamed entry by entry into their members, so the write
    holds no concatenated copy of them.  The index lists each distinct
    unit once and each entry by its trace, its unit's position in that
    list, its names and lengths.
    """
    units: dict[EvalUnit, int] = {}
    rows = []
    for (ordinal, path_id, trace_index, unit), e in entries.items():
        rows.append(
            [
                ordinal, path_id, trace_index, units.setdefault(unit, len(units)),
                e.predictor_name, e.series_name,
                len(e.predictions), len(e.outlier_indices), len(e.shift_indices),
            ]
        )
    index = {"units": [_unit_to_json(unit) for unit in units], "entries": rows}
    parts = {
        "predictions": [e.predictions for e in entries.values()],
        "errors": [e.errors for e in entries.values()],
        "outliers": [sorted(e.outlier_indices) for e in entries.values()],
        "shifts": [e.shift_indices for e in entries.values()],
    }
    write_container(
        handle,
        {
            "index": (np.uint8, [np.frombuffer(json.dumps(index).encode(), np.uint8)]),
            **{name: (dtype, parts[name]) for name, dtype in _PACK_ARRAYS.items()},
        },
    )


class EvaluationCache:
    """HB evaluations addressed by entry key, persisted as packs, and
    the columns of the datasets they were walked over.

    Args:
        root: cache directory; ``None`` uses
            :func:`default_eval_cache_dir` (which honours
            ``REPRO_EVAL_CACHE_DIR``).
        memory_only: keep entries in the in-process memo only — nothing
            is read from or written to disk, no pack and no columns
            entry.  What ``repro-analyze --no-eval-cache`` uses.
    """

    def __init__(
        self, root: str | Path | None = None, *, memory_only: bool = False
    ) -> None:
        self.root = (
            Path(root).expanduser() if root is not None else default_eval_cache_dir()
        )
        self.memory_only = memory_only
        self._memo: dict[EntryKey, HbEvaluation] = {}
        #: key and entries of the open pack; None when no pack is open.
        self._pack_key: str | None = None
        self._pack: dict[EntryKey, HbEvaluation] = {}
        self._pack_changed = False

    def path_for(self, key: str) -> Path:
        """The file the pack with ``key`` is (or would be) stored at."""
        return self.root / f"{key}.npz"

    def read_dataset(
        self, path: str | Path, data: bytes | None = None, digest: str | None = None
    ) -> LoadedDataset:
        """The dataset in the CSV file ``path``, read once, with the
        sha256 of its bytes.

        ``data`` is the file's bytes when the caller has read them
        already (``repro-analyze`` reads them first, for its report's
        key), and ``digest`` their sha256 (hex) when it has that too;
        the file is then not read again, nor the bytes hashed.

        The bytes key the columns entry (:func:`columns_key`).  A hit
        reads the entry (:func:`~repro.testbed.io.read_entry`) and parses
        nothing.  A miss parses the bytes
        (:func:`~repro.testbed.io.load_dataset`) and writes the entry; a
        file that fails to parse writes none, and an entry that cannot
        be written (a read-only cache) is an ``evalcache`` event, not an
        error.  A damaged entry is quarantined like a damaged pack and
        the bytes are parsed again.  A memory-only cache reads and
        writes no entry.

        Raises:
            OSError, UnicodeDecodeError, DataError: as
                :func:`~repro.testbed.io.load_dataset` raises them.
        """
        if data is None:
            data = Path(path).read_bytes()
        if digest is None:
            digest = hashlib.sha256(data).hexdigest()
        if self.memory_only:
            return LoadedDataset(dataset_io.load_dataset(path, data), digest, "csv")
        key = columns_key(digest)
        entry = self.root / f"{key}.columns.npz"
        try:
            return LoadedDataset(dataset_io.read_entry(entry), digest, "columns")
        except FileNotFoundError:
            pass
        except DataError:
            quarantine(entry, "evalcache", key=key)
        dataset = dataset_io.load_dataset(path, data)
        try:
            dataset_io.write_entry(dataset, entry)
        except OSError as exc:
            get_telemetry().emit(
                "evalcache", outcome="unwritable", key=key, reason=str(exc)
            )
        return LoadedDataset(dataset, digest, "csv")

    def get(self, key: EntryKey) -> HbEvaluation | None:
        """The evaluation held for ``key``, or ``None`` on a miss."""
        return self._memo.get(key)

    def put(self, key: EntryKey, evaluation: HbEvaluation) -> None:
        """Hold ``evaluation`` under ``key`` (and in the open pack).

        Counts one ``evalcache.stores`` per fresh entry.  Nothing is
        written here: :meth:`save_pack` persists the open pack in one
        write.
        """
        self._memo[key] = evaluation
        get_telemetry().counter("evalcache.stores").inc()
        if self._pack_key is not None:
            self._pack[key] = evaluation
            self._pack_changed = True

    def open_pack(self, key: str) -> None:
        """Read the pack ``key`` and make it the one :meth:`put` adds to.

        The pack's entries join the memo.  A missing pack reads as
        empty, and so does a damaged one, quarantined under
        ``evalcache.corrupt``.  A memory-only cache opens nothing.
        """
        if self.memory_only:
            return
        self._pack_key, self._pack, self._pack_changed = key, {}, False
        path = self.path_for(key)
        try:
            self._pack = _read_pack(path)
        except FileNotFoundError:
            return
        except DataError:
            quarantine(path, "evalcache", key=key)
            return
        self._memo.update(self._pack)

    def save_pack(self) -> None:
        """Write the open pack back, if :meth:`put` added to it.

        One atomic write.  The arrays round-trip bit-exactly through the
        ``.npz`` container, so a hit returns byte-identical predictions
        and errors.
        """
        if self._pack_key is None or not self._pack_changed:
            return
        path = self.path_for(self._pack_key)
        atomic_write(path, lambda handle: _write_pack(handle, self._pack))
        self._pack_changed = False
