"""Content-addressed cache of walk-forward HB evaluations.

The figure benches of ``repro-analyze`` and the MA-order / EWMA-alpha /
chi-psi grid sweeps evaluate many *identical* (trace, predictor,
LsoConfig) triples — Fig. 21's ``10-MA`` walk is Fig. 16's, Fig. 22's
large-window HW-LSO walk is Fig. 19's, and so on.  This cache keys one
:class:`~repro.hb.evaluate.HbEvaluation` on everything that determines
it:

* the SHA-256 of the trace's sample bytes (plus its name and length —
  the name is baked into the cached result),
* the predictor *spec* — family tag and constructor parameters derived
  from a predictor instance by :func:`derive_spec` (exact type matches
  only: a subclass may override anything, so it never shares a spec
  with the family it inherits from),
* the :class:`~repro.hb.lso.LsoConfig` used for outlier exclusion (or
  ``None``), and
* the package version, so stale entries from older releases are never
  served.

Entries live in a directory of ``.npz`` files (default
``~/.cache/repro/evals``, overridden by ``REPRO_EVAL_CACHE_DIR``), each
holding the prediction/error arrays bit-exactly, with an in-process
memo dict layered on top so a figure suite pays the disk read once per
entry.  The same robustness rules as the dataset cache
(:mod:`repro.testbed.cache`) apply: atomic writes, and corrupt entries
quarantined as ``*.corrupt`` misses rather than errors.  Unlike the
dataset cache, lookups emit no per-entry events (a figure suite makes
thousands — counters ``evalcache.hits``/``misses``/``stores`` carry
the accounting instead).

:func:`evaluate_predictor` consults the cache through the hook
installed by :func:`repro.hb.evaluate.set_active_eval_cache`; use
:func:`EvaluationCache.activated` to scope the installation.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from repro._version import __version__
from repro.core.cachekey import stable_fingerprint
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
            "code_version": __version__,
        }
    )


class EvaluationCache:
    """A directory of HB evaluations addressed by content key.

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

    def path_for(self, key: str) -> Path:
        """The file an evaluation with ``key`` is (or would be) stored at."""
        return self.root / f"{key}.npz"

    def get(self, key: str) -> HbEvaluation | None:
        """The cached evaluation for ``key``, or ``None`` on a miss.

        Disk hits are promoted into the in-process memo; a malformed
        entry is quarantined (renamed ``*.corrupt``) and counted under
        ``evalcache.corrupt``, and reads as a miss.
        """
        memo = self._memo.get(key)
        if memo is not None:
            return memo
        if self.memory_only:
            return None
        path = self.path_for(key)
        if not path.is_file():
            return None
        try:
            with np.load(path, allow_pickle=False) as entry:
                meta = json.loads(str(entry["meta"][()]))
                evaluation = HbEvaluation(
                    predictor_name=meta["predictor_name"],
                    series_name=meta["series_name"],
                    predictions=entry["predictions"],
                    errors=entry["errors"],
                    outlier_indices=frozenset(
                        int(i) for i in entry["outliers"].tolist()
                    ),
                )
        except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile):
            telemetry = get_telemetry()
            telemetry.counter("evalcache.corrupt").inc()
            telemetry.emit("evalcache", outcome="corrupt", key=key)
            try:
                os.replace(path, path.with_name(path.name + ".corrupt"))
            except OSError:  # pragma: no cover - vanished or unwritable
                pass
            return None
        self._memo[key] = evaluation
        return evaluation

    def put(self, key: str, evaluation: HbEvaluation) -> None:
        """Store ``evaluation`` under ``key`` (atomically, on disk).

        Counts one ``evalcache.stores`` per fresh entry.  The arrays
        round-trip bit-exactly through the ``.npz`` container, so a hit
        returns byte-identical predictions and errors.
        """
        self._memo[key] = evaluation
        get_telemetry().counter("evalcache.stores").inc()
        if self.memory_only:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        meta = json.dumps(
            {
                "predictor_name": evaluation.predictor_name,
                "series_name": evaluation.series_name,
            }
        )
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=f".{key[:16]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                # savez on an open handle: no ``.npz`` suffix munging,
                # and the final rename stays atomic.
                np.savez(
                    handle,
                    predictions=evaluation.predictions,
                    errors=evaluation.errors,
                    outliers=np.asarray(
                        sorted(evaluation.outlier_indices), dtype=np.int64
                    ),
                    meta=np.asarray(meta),
                )
            os.replace(tmp_name, path)
        finally:
            if os.path.exists(tmp_name):  # pragma: no cover - error path
                os.unlink(tmp_name)

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
        """Persist a freshly computed evaluation (when cacheable)."""
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
