"""Content-addressed cache of walk-forward HB evaluations.

The figure benches of ``repro-analyze`` and the MA-order / EWMA-alpha /
chi-psi grid sweeps evaluate many *identical* (trace, predictor,
LsoConfig) triples — Fig. 21's ``10-MA`` walk is Fig. 16's, Fig. 22's
large-window HW-LSO walk is Fig. 19's, and so on.  This cache keys one
:class:`~repro.hb.evaluate.HbEvaluation` on everything that determines
it (:func:`evaluation_key`):

* the SHA-256 of the trace's sample bytes (plus its name and length —
  the name is baked into the cached result),
* the predictor *spec* — family tag and constructor parameters derived
  from a predictor instance by :func:`derive_spec` (exact type matches
  only: a subclass may override anything, so it never shares a spec
  with the family it inherits from), and
* the :class:`~repro.hb.lso.LsoConfig` used for outlier exclusion (or
  ``None``).

On disk a dataset's evaluations live together in one **pack**,
``<root>/<pack key>.npz`` (default root ``~/.cache/repro/evals``,
overridden by ``REPRO_EVAL_CACHE_DIR``).  The pack key
(:func:`pack_key`) covers the throughput samples of every trace of the
dataset — not its path — and :func:`code_fingerprint`, the source of
every module in :mod:`repro.hb`, so an edit to a predictor, the LSO
kernel or the walk loop keys a new pack instead of serving walks the
old code computed.  Inside a pack the predictions, errors and outlier
indices of all entries are concatenated into three flat arrays; an
index holds each entry's evaluation key, names and lengths, so an
entry is served only when its key matches.

:meth:`EvaluationCache.open_pack` reads a pack once;
:meth:`EvaluationCache.save_pack` writes it back once, with the
entries :meth:`EvaluationCache.put` added — atomically (temp file +
rename), so a reader never sees half a pack and of two concurrent
writers the last complete write wins.  A pack that fails to load, or
whose index and arrays disagree, is quarantined as ``*.corrupt``,
counted under ``evalcache.corrupt``, and reads as empty, so its walks
are recomputed.  In process, :meth:`EvaluationCache.get` and
:meth:`EvaluationCache.put` are lookups and inserts of a memo dict, and
lookups emit no per-entry events (a figure suite makes thousands —
counters ``evalcache.hits``/``misses``/``stores`` carry the accounting
instead).

:func:`evaluate_predictor` consults the cache through the hook
installed by :func:`repro.hb.evaluate.set_active_eval_cache`; use
:func:`EvaluationCache.activated` to scope the installation.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from repro.core.cachekey import source_fingerprint, stable_fingerprint
from repro.core.timeseries import TimeSeries
from repro.hb.autoregressive import AutoRegressive
from repro.hb.base import HistoryPredictor, PredictorFactory
from repro.hb.evaluate import HbEvaluation, set_active_eval_cache
from repro.hb.ewma import Ewma
from repro.hb.holt_winters import HoltWinters
from repro.hb.lso import LsoConfig
from repro.hb.moving_average import MovingAverage
from repro.hb.wrappers import LsoPredictor
from repro.obs import get_telemetry
from repro.paths.records import Dataset

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
    reconstruct an evaluation unit from its plain-tuple description.
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


def series_sha256(series: TimeSeries) -> str:
    """SHA-256 over the trace's raw sample bytes."""
    return hashlib.sha256(np.ascontiguousarray(series.values).tobytes()).hexdigest()


def evaluation_key(
    series: TimeSeries, spec: PredictorSpec, lso_config: LsoConfig | None
) -> str:
    """The content key of one (trace, predictor, LsoConfig) evaluation."""
    return stable_fingerprint(
        {
            "series_sha256": series_sha256(series),
            "series_name": series.name,
            "n": len(series),
            "spec": spec,
            "lso": lso_config,
        }
    )


@functools.cache
def code_fingerprint() -> str:
    """Fingerprint of the source of every module in :mod:`repro.hb`,
    read once per process."""
    return source_fingerprint("repro.hb")


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


class _FlatArray:
    """The flat ``.npy`` array in an open pack member, read in runs.

    Each run is read into an array of its own, so reading a pack holds
    no whole-pack copy of its arrays.
    """

    def __init__(self, member: BinaryIO) -> None:
        self._member = member
        if np.lib.format.read_magic(member) != (1, 0):
            raise ValueError("pack member has an unknown array format")
        shape, _, self._dtype = np.lib.format.read_array_header_1_0(member)
        if len(shape) != 1 or self._dtype.hasobject:
            raise ValueError("pack member is not a flat array")
        #: items not yet read.
        self.remaining = shape[0]

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` items."""
        if not 0 <= n <= self.remaining:
            raise ValueError("pack index and arrays disagree in length")
        self.remaining -= n
        data = self._member.read(n * self._dtype.itemsize)
        if len(data) != n * self._dtype.itemsize:
            raise ValueError("pack member is truncated")
        return np.frombuffer(data, dtype=self._dtype).copy()


def _read_pack(pack: zipfile.ZipFile) -> dict[str, HbEvaluation]:
    """The entries of an open pack.

    Raises:
        ValueError, TypeError, KeyError: when the index and the arrays
            disagree or either is malformed.
    """
    with pack.open("index.npy") as member:
        index_array = _FlatArray(member)
        index = json.loads(index_array.take(index_array.remaining).tobytes())
    entries: dict[str, HbEvaluation] = {}
    with (
        pack.open("predictions.npy") as predictions_member,
        pack.open("errors.npy") as errors_member,
        pack.open("outliers.npy") as outliers_member,
    ):
        predictions = _FlatArray(predictions_member)
        errors = _FlatArray(errors_member)
        outliers = _FlatArray(outliers_member)
        for key, predictor_name, series_name, n_points, n_outliers in index:
            entries[key] = HbEvaluation(
                predictor_name=predictor_name,
                series_name=series_name,
                predictions=predictions.take(n_points),
                errors=errors.take(n_points),
                outlier_indices=frozenset(outliers.take(n_outliers).tolist()),
            )
    if predictions.remaining or errors.remaining or outliers.remaining:
        raise ValueError("pack index and arrays disagree in length")
    return entries


def _write_pack(handle: BinaryIO, entries: dict[str, HbEvaluation]) -> None:
    """Write ``entries`` to ``handle`` in the layout :func:`_read_pack` reads.

    An ``.npz`` archive whose flat arrays are streamed entry by entry
    into their members, so the write holds no concatenated copy of them.
    """
    index = [
        [key, e.predictor_name, e.series_name, len(e.predictions), len(e.outlier_indices)]
        for key, e in entries.items()
    ]
    members = {
        "index": [np.frombuffer(json.dumps(index).encode(), dtype=np.uint8)],
        "predictions": [e.predictions for e in entries.values()],
        "errors": [e.errors for e in entries.values()],
        "outliers": [
            np.array(sorted(e.outlier_indices), dtype=np.int64)
            for e in entries.values()
        ],
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
    """HB evaluations addressed by content key, persisted as packs.

    Args:
        root: cache directory; ``None`` uses
            :func:`default_eval_cache_dir` (which honours
            ``REPRO_EVAL_CACHE_DIR``).
        memory_only: keep entries in the in-process memo only — nothing
            is read from or written to disk.  What ``repro-analyze
            --no-eval-cache`` uses, so one run still shares walks across
            its figures without persisting anything.
    """

    def __init__(
        self, root: str | Path | None = None, *, memory_only: bool = False
    ) -> None:
        self.root = (
            Path(root).expanduser() if root is not None else default_eval_cache_dir()
        )
        self.memory_only = memory_only
        self._memo: dict[str, HbEvaluation] = {}
        #: key and entries of the open pack; None when no pack is open.
        self._pack_key: str | None = None
        self._pack: dict[str, HbEvaluation] = {}
        self._pack_changed = False

    def path_for(self, key: str) -> Path:
        """The file the pack with ``key`` is (or would be) stored at."""
        return self.root / f"{key}.npz"

    def get(self, key: str) -> HbEvaluation | None:
        """The evaluation held for ``key``, or ``None`` on a miss."""
        return self._memo.get(key)

    def put(self, key: str, evaluation: HbEvaluation) -> None:
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
            OSError, KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile
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

    # -- the hook protocol evaluate_predictor talks to -------------------

    def lookup(
        self,
        series: TimeSeries,
        predictor: HistoryPredictor,
        lso_config: LsoConfig | None,
    ) -> HbEvaluation | None:
        """Cache probe for one evaluation; counts a hit or a miss.

        Predictors with no derivable spec are not cacheable and probe
        nothing (no counter moves — the cache simply does not apply).
        """
        spec = derive_spec(predictor)
        if spec is None:
            return None
        key = evaluation_key(series, spec, lso_config)
        evaluation = self.get(key)
        if evaluation is not None:
            get_telemetry().counter("evalcache.hits").inc()
            return evaluation
        get_telemetry().counter("evalcache.misses").inc()
        return None

    def record(
        self,
        series: TimeSeries,
        predictor: HistoryPredictor,
        lso_config: LsoConfig | None,
        evaluation: HbEvaluation,
    ) -> None:
        """Hold a freshly computed evaluation (when cacheable)."""
        spec = derive_spec(predictor)
        if spec is None:
            return
        self.put(evaluation_key(series, spec, lso_config), evaluation)

    @contextmanager
    def activated(self) -> Iterator["EvaluationCache"]:
        """Install this cache for :func:`evaluate_predictor` in a scope."""
        previous = set_active_eval_cache(self)
        try:
            yield self
        finally:
            set_active_eval_cache(previous)
