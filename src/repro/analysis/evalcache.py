"""HB evaluation units and the pack that keeps their walks per dataset.

Every HB figure of ``repro-analyze`` (16, 17, 19-23) reduces to
walk-forward evaluations of one predictor over one series of each
trace.  An :class:`EvalUnit` names one such evaluation for every trace
of a dataset: the predictor (a registered family's spec, see
:func:`derive_spec`), the series shape (the main transfers, the W =
20 KB companions, or the main series down-sampled) and the outlier
exclusion (an :class:`~repro.hb.lso.LsoConfig`, or ``None``).  A unit
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
entry's key, names and lengths.

:meth:`EvaluationCache.open_pack` reads a pack once;
:meth:`EvaluationCache.save_pack` writes it back once, with the
entries :meth:`EvaluationCache.put` added — atomically (temp file +
rename), so a reader never sees half a pack and of two concurrent
writers the last complete write wins.  A pack that fails to load, or
whose index and arrays disagree, is quarantined as ``*.corrupt``,
counted under ``evalcache.corrupt``, and reads as empty, so its walks
are recomputed.  In process, :meth:`EvaluationCache.get` and
:meth:`EvaluationCache.put` are lookups and inserts of a memo dict.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import zipfile
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.core.cachekey import source_fingerprint, stable_fingerprint
from repro.core.errors import DataError
from repro.core.timeseries import TimeSeries
from repro.hb.autoregressive import AutoRegressive
from repro.hb.base import HistoryPredictor, PredictorFactory
from repro.hb.evaluate import HbEvaluation, evaluate_predictors
from repro.hb.ewma import Ewma
from repro.hb.holt_winters import HoltWinters
from repro.hb.lso import LsoConfig
from repro.hb.moving_average import MovingAverage
from repro.hb.wrappers import LsoPredictor
from repro.obs import get_telemetry
from repro.paths.records import Dataset, Trace

#: Environment variable overriding the evaluation-cache location.
ENV_EVAL_CACHE_DIR = "REPRO_EVAL_CACHE_DIR"

#: A predictor spec: a family tag followed by constructor parameters,
#: e.g. ``("ma", 10)`` or ``("lso", ("hw", 0.8, 0.2), 0.3, 0.4, True)``.
PredictorSpec = tuple


def default_eval_cache_dir() -> Path:
    """The cache root: ``$REPRO_EVAL_CACHE_DIR`` or ``~/.cache/repro/evals``."""
    env = os.environ.get(ENV_EVAL_CACHE_DIR, "").strip()
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro" / "evals"


def derive_spec(predictor: HistoryPredictor) -> PredictorSpec | None:
    """The cacheable spec of a predictor instance, or ``None``.

    ``None`` means the predictor's exact type is not a registered
    family — a subclass may override anything, so evaluations of it are
    computed fresh every time.
    """
    kind = type(predictor)
    if kind is MovingAverage:
        return ("ma", predictor.order)
    if kind is Ewma:
        return ("ewma", predictor.alpha)
    if kind is HoltWinters:
        return ("hw", predictor.alpha, predictor.beta)
    if kind is AutoRegressive:
        return ("ar", predictor.order, predictor.max_history, predictor.ridge)
    if kind is LsoPredictor:
        inner = derive_spec(predictor._base)
        if inner is None:
            return None
        config = predictor._config
        return (
            "lso",
            inner,
            config.level_shift_threshold,
            config.outlier_threshold,
            predictor.harden,
        )
    return None


def spec_factory(spec: PredictorSpec) -> PredictorFactory:
    """A factory building fresh predictors matching ``spec``.

    The inverse of :func:`derive_spec` — what lets a worker process
    rebuild a unit's predictor from its plain-tuple description.
    """
    kind = spec[0]
    if kind == "ma":
        return lambda: MovingAverage(spec[1])
    if kind == "ewma":
        return lambda: Ewma(spec[1])
    if kind == "hw":
        return lambda: HoltWinters(spec[1], spec[2])
    if kind == "ar":
        return lambda: AutoRegressive(spec[1], spec[2], spec[3])
    if kind == "lso":
        inner = spec_factory(spec[1])
        config = LsoConfig(spec[2], spec[3])
        harden = spec[4]
        return lambda: LsoPredictor(inner, config, harden)
    raise ValueError(f"unknown predictor spec {spec!r}")


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EvalUnit:
    """One HB evaluation of every trace of a dataset.

    Attributes:
        predictor: a registered family's spec (see :func:`derive_spec`),
            which the pack can keep; or, for a predictor outside the
            registered families, its factory, walked in memory only.
        small_window: walk the W = 20 KB series instead of the main one.
        downsample: keep every n-th sample of the series first (1 = all).
        exclusion: the outlier exclusion's LSO thresholds, or ``None``;
            with one, each result also carries the series' segmentation
            (:meth:`~repro.hb.evaluate.HbEvaluation.segmentation`).
    """

    predictor: PredictorSpec | PredictorFactory
    small_window: bool = False
    downsample: int = 1
    exclusion: LsoConfig | None = None

    @property
    def shape(self) -> tuple[bool, int]:
        """Which series of a trace the unit walks."""
        return (self.small_window, self.downsample)

    @property
    def spec_named(self) -> bool:
        """Whether the predictor is named by a spec, so a pack can keep it."""
        return isinstance(self.predictor, tuple)

    def factory(self) -> PredictorFactory:
        """A factory building the unit's predictor."""
        return spec_factory(self.predictor) if self.spec_named else self.predictor


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
    factories: dict = {}
    for unit in units:
        if unit.predictor not in factories:
            factories[unit.predictor] = unit.factory()
    try:
        return evaluate_predictors(
            series, [(factories[unit.predictor], unit.exclusion) for unit in units]
        )
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
    on, read once per process: :mod:`repro.hb` (the predictors, the LSO
    kernel, the walk), :mod:`repro.core.timeseries` and
    :mod:`repro.paths.records` (a unit's series) and this module (the
    units, the predictor specs and the pack layout)."""
    return source_fingerprint(
        "repro.hb",
        "repro.core.timeseries",
        "repro.paths.records",
        "repro.analysis.evalcache",
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


class _FlatArray:
    """The flat ``.npy`` array in an open pack member, read in runs.

    Each run is copied into an array of its own, so reading a pack holds
    no whole-pack copy of its arrays; the member itself is read in
    chunks of at least :attr:`CHUNK` bytes, not once per run.
    """

    CHUNK = 1 << 16

    def __init__(self, member: BinaryIO) -> None:
        self._member = member
        if np.lib.format.read_magic(member) != (1, 0):
            raise ValueError("pack member has an unknown array format")
        shape, _, self._dtype = np.lib.format.read_array_header_1_0(member)
        if len(shape) != 1 or self._dtype.hasobject:
            raise ValueError("pack member is not a flat array")
        #: items not yet read.
        self.remaining = shape[0]
        self._chunk, self._offset = b"", 0

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` items."""
        if not 0 <= n <= self.remaining:
            raise ValueError("pack index and arrays disagree in length")
        self.remaining -= n
        size = n * self._dtype.itemsize
        if len(self._chunk) - self._offset < size:
            rest = self._chunk[self._offset :]
            self._chunk = rest + self._member.read(max(size - len(rest), self.CHUNK))
            self._offset = 0
            if len(self._chunk) < size:
                raise ValueError("pack member is truncated")
        start, self._offset = self._offset, self._offset + size
        return np.frombuffer(self._chunk, self._dtype, n, start).copy()


def _spec_from_json(value) -> PredictorSpec:
    """A spec read back from the index, where JSON made its tuples lists."""
    if not isinstance(value, list):
        raise ValueError(f"pack index holds a malformed spec {value!r}")
    return tuple(_spec_from_json(item) if isinstance(item, list) else item for item in value)


def _unit_from_json(row) -> EvalUnit:
    small_window, downsample, spec, exclusion = row
    return EvalUnit(
        _spec_from_json(spec),
        bool(small_window),
        int(downsample),
        None if exclusion is None else LsoConfig(*exclusion),
    )


def _unit_to_json(unit: EvalUnit) -> list:
    exclusion = unit.exclusion
    return [
        unit.small_window,
        unit.downsample,
        unit.predictor,
        None
        if exclusion is None
        else [exclusion.level_shift_threshold, exclusion.outlier_threshold],
    ]


def _read_pack(pack: zipfile.ZipFile) -> dict[EntryKey, HbEvaluation]:
    """The entries of an open pack.

    Raises:
        ValueError, TypeError, LookupError: when the index and the
            arrays disagree or either is malformed.
    """
    with pack.open("index.npy") as member:
        index_array = _FlatArray(member)
        index = json.loads(index_array.take(index_array.remaining).tobytes())
    units = [_unit_from_json(row) for row in index["units"]]
    entries: dict[EntryKey, HbEvaluation] = {}
    with (
        pack.open("predictions.npy") as predictions_member,
        pack.open("errors.npy") as errors_member,
        pack.open("outliers.npy") as outliers_member,
        pack.open("shifts.npy") as shifts_member,
    ):
        predictions = _FlatArray(predictions_member)
        errors = _FlatArray(errors_member)
        outliers = _FlatArray(outliers_member)
        shifts = _FlatArray(shifts_member)
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
    if any(array.remaining for array in (predictions, errors, outliers, shifts)):
        raise ValueError("pack index and arrays disagree in length")
    return entries


def _write_pack(handle: BinaryIO, entries: dict[EntryKey, HbEvaluation]) -> None:
    """Write ``entries`` to ``handle`` in the layout :func:`_read_pack` reads.

    An ``.npz`` archive whose flat arrays are streamed entry by entry
    into their members, so the write holds no concatenated copy of them.
    The index lists each distinct unit once and each entry by its
    trace, its unit's position in that list, its names and lengths.
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
    members = {
        "index": [np.frombuffer(json.dumps(index).encode(), dtype=np.uint8)],
        "predictions": [e.predictions for e in entries.values()],
        "errors": [e.errors for e in entries.values()],
        "outliers": [
            np.array(sorted(e.outlier_indices), dtype=np.int64)
            for e in entries.values()
        ],
        "shifts": [np.array(e.shift_indices, dtype=np.int64) for e in entries.values()],
    }
    with zipfile.ZipFile(handle, "w", allowZip64=True) as pack:
        for name, parts in members.items():
            dtype = parts[0].dtype
            header = {
                "descr": np.lib.format.dtype_to_descr(dtype),
                "fortran_order": False,
                "shape": (sum(len(part) for part in parts),),
            }
            with pack.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, header)
                for part in parts:
                    member.write(np.ascontiguousarray(part, dtype=dtype))


class EvaluationCache:
    """HB evaluations addressed by entry key, persisted as packs.

    Args:
        root: cache directory; ``None`` uses
            :func:`default_eval_cache_dir` (which honours
            ``REPRO_EVAL_CACHE_DIR``).
        memory_only: keep entries in the in-process memo only — nothing
            is read from or written to disk.  What ``repro-analyze
            --no-eval-cache`` uses.
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
        empty; a pack that fails to load, or whose index and arrays
        disagree, is quarantined (renamed ``*.corrupt``), counted under
        ``evalcache.corrupt``, and reads as empty.  A memory-only cache
        opens nothing.
        """
        if self.memory_only:
            return
        self._pack_key, self._pack, self._pack_changed = key, {}, False
        path = self.path_for(key)
        try:
            with zipfile.ZipFile(path) as pack:
                self._pack = _read_pack(pack)
        except FileNotFoundError:
            return
        except (
            OSError, LookupError, TypeError, ValueError, EOFError, zipfile.BadZipFile
        ):
            telemetry = get_telemetry()
            telemetry.counter("evalcache.corrupt").inc()
            telemetry.emit("evalcache", outcome="corrupt", key=key)
            try:
                os.replace(path, path.with_name(path.name + ".corrupt"))
            except OSError:  # pragma: no cover - vanished or unwritable
                pass
            return
        self._memo.update(self._pack)

    def save_pack(self) -> None:
        """Write the open pack back, if :meth:`put` added to it.

        One temp file and one rename.  The arrays round-trip
        bit-exactly through the ``.npz`` container, so a hit returns
        byte-identical predictions and errors.
        """
        if self._pack_key is None or not self._pack_changed:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=f".{self._pack_key[:16]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                _write_pack(handle, self._pack)
            os.replace(tmp_name, self.path_for(self._pack_key))
        finally:
            if os.path.exists(tmp_name):  # pragma: no cover - error path
                os.unlink(tmp_name)
        self._pack_changed = False
