"""Sharded, LRU-bounded per-path predictor state for ``repro-serve``.

The store maps a *path key* (an opaque client-chosen identifier, e.g.
``"lulea-to-anl"``) to a :class:`~repro.hb.streaming.PathBundle` of
:class:`~repro.hb.streaming.StreamingPredictorState` instances — one per
configured :class:`~repro.hb.spec.PredictorSpec` — all fed every
ingested sample, so a client can compare predictors on the same path
exactly as the paper does offline.  The bundle takes each sample once
per distinct LSO kernel: predictors with equal thresholds and equal
kernel state share one.

Keys are hashed (CRC-32, stable across processes and restarts) into a
fixed number of **shards**; each shard is an LRU-ordered dict with a
bounded capacity.  When a shard overflows, its least-recently-used path
is evicted (counted in ``serve.evictions``).  Sharding keeps eviction
pressure and the per-shard ``serve.shard_paths`` gauges local: one
chatty tenant fills one shard, not the whole store.

``snapshot()``/``restore()`` round-trip the entire store through plain
JSON-able dicts; :meth:`ShardedStateStore.save` writes atomically
(:func:`~repro.core.store.atomic_write`) so a crash mid-save can never
leave a torn snapshot behind.  A version-1 snapshot, whose specs name
predictors by their ``--predictors`` names, still restores.
"""

from __future__ import annotations

import json
from binascii import crc32
from collections import OrderedDict
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.core.errors import ConfigurationError, DataError
from repro.core.store import atomic_write, read_json
from repro.hb.spec import PredictorSpec
from repro.hb.streaming import (
    DEFAULT_SERVE_PREDICTORS,
    SERVE_PREDICTORS,
    PathBundle,
    StreamingPredictorState,
    spec_from_v1,
)
from repro.obs import PhaseClock, get_telemetry, obs_enabled
from repro.obs.quality import QualityTracker

__all__ = ["SNAPSHOT_VERSION", "ShardedStateStore", "default_specs"]

#: Sentinel distinguishing "default quality tracking" from an explicit
#: ``quality=None`` (tracking off).
_DEFAULT_QUALITY = object()

#: Schema version of store snapshot files (2: specs as ``PredictorSpec.to_dict``).
SNAPSHOT_VERSION = 2

#: Longest accepted path key (keys are URL path segments).
MAX_KEY_LENGTH = 200

#: One path's state: predictor name -> live streaming state.
PathStates = dict[str, StreamingPredictorState]


def default_specs(
    predictors: Iterable[str] = DEFAULT_SERVE_PREDICTORS,
) -> dict[str, PredictorSpec]:
    """The spec bundle maintained per path: each name's in
    :data:`~repro.hb.streaming.SERVE_PREDICTORS` (``ConfigurationError``
    for another)."""
    try:
        return {name: SERVE_PREDICTORS[name] for name in predictors}
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown predictor {exc}; choose from {sorted(SERVE_PREDICTORS)}"
        ) from None


def validate_key(key: str) -> str:
    """Check a client-supplied path key; returns it unchanged.

    Raises:
        DataError: empty, over-long, or containing ``/`` (keys are
            single URL path segments) or whitespace.
    """
    if not key:
        raise DataError("path key must be non-empty")
    if len(key) > MAX_KEY_LENGTH:
        raise DataError(f"path key too long ({len(key)} > {MAX_KEY_LENGTH} chars)")
    if "/" in key or any(c.isspace() for c in key):
        raise DataError(f"path key {key!r} must not contain '/' or whitespace")
    return key


class ShardedStateStore:
    """In-memory per-path predictor state, sharded and LRU-bounded.

    Args:
        specs: predictor bundle created for every new path; defaults to
            :func:`default_specs`.
        n_shards: number of shards (CRC-32 of the key, modulo).
        max_paths_per_shard: LRU capacity of each shard; the store holds
            at most ``n_shards * max_paths_per_shard`` paths.
        quality: the prediction-quality tracker scoring every ingested
            sample against the forecast that preceded it (see
            :class:`~repro.obs.quality.QualityTracker`).  Defaults to a
            fresh tracker; pass ``None`` to disable scoring entirely.
            Scoring is additionally skipped live while ``REPRO_OBS=0``.

    The store is designed for a single asyncio event loop: methods are
    plain synchronous CPU work with no awaits, so handlers never observe
    a half-applied mutation.
    """

    def __init__(
        self,
        specs: Mapping[str, PredictorSpec] | None = None,
        n_shards: int = 8,
        max_paths_per_shard: int = 128,
        quality: QualityTracker | None | object = _DEFAULT_QUALITY,
    ) -> None:
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        if max_paths_per_shard < 1:
            raise ConfigurationError(
                f"max_paths_per_shard must be >= 1, got {max_paths_per_shard}"
            )
        self.specs: dict[str, PredictorSpec] = dict(
            specs if specs is not None else default_specs()
        )
        if not self.specs:
            raise ConfigurationError("store needs at least one predictor spec")
        self.n_shards = n_shards
        self.max_paths_per_shard = max_paths_per_shard
        if quality is _DEFAULT_QUALITY:
            quality = QualityTracker()
        self.quality: QualityTracker | None = quality  # type: ignore[assignment]
        self._shards: list[OrderedDict[str, PathBundle]] = [
            OrderedDict() for _ in range(n_shards)
        ]
        self.n_evicted = 0

    # -- lookup ----------------------------------------------------------

    def shard_index(self, key: str) -> int:
        """Stable shard of a key (CRC-32; survives restarts/processes)."""
        return crc32(key.encode("utf-8")) % self.n_shards

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, key: str) -> bool:
        return key in self._shards[self.shard_index(key)]

    def keys(self) -> list[str]:
        """All live path keys (shard by shard, LRU to MRU within each)."""
        return [key for shard in self._shards for key in shard]

    def get(self, key: str) -> PathStates | None:
        """The path's predictor states, refreshing its LRU position."""
        shard = self._shards[self.shard_index(key)]
        bundle = shard.get(key)
        if bundle is None:
            return None
        shard.move_to_end(key)
        return bundle.states

    def get_or_create(self, key: str) -> PathStates:
        """The path's predictor states, creating (and possibly evicting)."""
        return self._bundle(key).states

    def _bundle(self, key: str) -> PathBundle:
        """The path's bundle, created (key validated) on first use."""
        index = self.shard_index(key)
        shard = self._shards[index]
        bundle = shard.get(key)
        if bundle is None:
            validate_key(key)
            bundle = shard[key] = PathBundle(
                {name: StreamingPredictorState(s) for name, s in self.specs.items()}
            )
            if len(shard) > self.max_paths_per_shard:
                evicted_key, _ = shard.popitem(last=False)
                self.n_evicted += 1
                if self.quality is not None:
                    self.quality.drop(evicted_key)
                tele = get_telemetry()
                tele.counter("serve.evictions").inc()
                tele.emit("serve.evicted", key=evicted_key, shard=index)
        shard.move_to_end(key)
        return bundle

    def ingest(
        self,
        key: str,
        samples: Iterable[float],
        clock: PhaseClock | None = None,
    ) -> dict[str, Any]:
        """Feed samples to every predictor of a path.

        Each sample is scored by the quality tracker against the
        forecast that stood *before* it was ingested — the same
        walk-forward order as the offline evaluator, so the online
        error stream matches ``evaluate_predictor`` bit-for-bit.  A
        batch is scored sample by sample, each sample for every
        predictor in turn.

        Args:
            key: the path key (created on first ingest).
            samples: the throughput samples, in arrival order.
            clock: optional request-phase clock; laps ``"store"`` after
                the path lookup and ``"ingest"`` after the batch.

        Returns a summary: per-predictor prediction after the batch plus
        accepted/invalid sample counts (invalid = non-positive or
        non-finite, flagged by the streaming layer, never raised).
        """
        bundle = self._bundle(key)
        if clock is not None:
            clock.lap("store")
        samples = list(samples)
        quality = self.quality if obs_enabled() else None
        states = bundle.states
        n_invalid = 0
        if quality is None or not samples:
            for value in samples:
                if not bundle.ingest(value):
                    n_invalid += 1
        else:
            scored = list(zip(states, bundle.members, quality.path_series(key, states)))
            for value in samples:
                before = [state.prediction() for state in bundle.members]
                if bundle.ingest(value):
                    for (name, state, series), forecast in zip(scored, before):
                        quality.score(
                            key,
                            name,
                            forecast,
                            value,
                            level_shifts=state.n_level_shifts,
                            series=series,
                        )
                else:
                    n_invalid += 1
                    for name, _, series in scored:
                        quality.observe_invalid(key, name, series=series)
        if clock is not None:
            clock.lap("ingest")
        return {
            "key": key,
            "accepted": len(samples) - n_invalid,
            "invalid": n_invalid,
            "predictions": {name: state.prediction() for name, state in states.items()},
        }

    def shard_sizes(self) -> list[int]:
        """Live path count per shard (the ``serve.shard_paths`` gauges)."""
        return [len(shard) for shard in self._shards]

    def update_gauges(self) -> None:
        """Publish per-shard occupancy gauges to the process telemetry."""
        tele = get_telemetry()
        for index, size in enumerate(self.shard_sizes()):
            tele.gauge("serve.shard_paths", shard=str(index)).set(size)
        tele.gauge("serve.paths").set(len(self))

    # -- snapshot / restore ------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The whole store as one JSON-able document."""
        return {
            "snapshot_version": SNAPSHOT_VERSION,
            "specs": {name: spec.to_dict() for name, spec in self.specs.items()},
            "n_shards": self.n_shards,
            "max_paths_per_shard": self.max_paths_per_shard,
            "paths": {
                key: {name: state.snapshot() for name, state in bundle.states.items()}
                for shard in self._shards
                for key, bundle in shard.items()
            },
        }

    def restore(self, doc: dict[str, Any]) -> int:
        """Load a :meth:`snapshot` document into this store.

        The store's own shard geometry is kept (snapshots are portable
        across ``--shards`` settings); per-path predictor state is
        restored bit-for-bit, and a path's restored LSO predictors with
        equal thresholds and kernel state share one kernel again.
        Returns the number of paths restored.

        Restore is **best effort per path**: a snapshot written under a
        different configuration (renamed predictors, smaller capacity)
        or partially corrupted must not take the server down on start.
        Unusable entries — invalid key, malformed entry, corrupt
        predictor state, a shard already at capacity — are skipped and
        counted (``serve.snapshot_skipped`` counter, one
        ``serve.snapshot_skip`` event each), and so are a snapshot
        predictor no longer registered and a state recorded with a spec
        other than the one configured under its name, while the rest of
        the path restores.  Registered predictors not restored start
        fresh (each on a kernel of its own).

        Raises:
            DataError: structurally unusable snapshot (non-object
                document, bad version, missing ``paths``) — per-entry
                damage never raises.
        """
        if not isinstance(doc, dict):
            raise DataError("store snapshot must be a JSON object")
        version = doc.get("snapshot_version")
        if not isinstance(version, int) or version < 1:
            raise DataError(f"store snapshot has invalid version {version!r}")
        if version > SNAPSHOT_VERSION:
            raise DataError(
                f"store snapshot version {version} is newer than this "
                f"code understands ({SNAPSHOT_VERSION})"
            )
        paths = doc.get("paths")
        if not isinstance(paths, dict):
            raise DataError("store snapshot has no 'paths' object")
        read_spec = spec_from_v1 if version == 1 else PredictorSpec.from_dict
        for shard in self._shards:
            shard.clear()
        tele = get_telemetry()

        def skip(key: Any, reason: str) -> None:
            tele.counter("serve.snapshot_skipped").inc()
            tele.emit("serve.snapshot_skip", key=repr(key), reason=reason)

        restored = 0
        for key, states_doc in paths.items():
            try:
                validate_key(key)
            except DataError:
                skip(key, "invalid-key")
                continue
            if not isinstance(states_doc, dict):
                skip(key, "malformed-entry")
                continue
            shard = self._shards[self.shard_index(key)]
            if len(shard) >= self.max_paths_per_shard:
                skip(key, "shard-full")
                continue
            for name in states_doc:
                if name not in self.specs:
                    skip(key, f"unregistered-predictor:{name}")
            states: PathStates = {}
            try:
                for name, spec in self.specs.items():
                    state_doc = states_doc.get(name)
                    if state_doc is not None:
                        state = StreamingPredictorState.restore(state_doc, read_spec)
                        if state.spec == spec:
                            states[name] = state
                            continue
                        skip(key, f"spec-mismatch:{name}")
                    states[name] = StreamingPredictorState(spec)
            except DataError:
                skip(key, "corrupt-state")
                continue
            shard[key] = PathBundle(states)
            restored += 1
        return restored

    def save(self, path: str | Path) -> Path:
        """Write the snapshot as JSON, atomically."""
        text = (json.dumps(self.snapshot(), sort_keys=True) + "\n").encode()
        return atomic_write(Path(path), lambda handle: handle.write(text))

    def load(self, path: str | Path) -> int:
        """Restore from a :meth:`save` file; returns paths restored.

        Raises:
            DataError: missing file or malformed snapshot.
        """
        path = Path(path)
        if not path.is_file():
            raise DataError(f"no store snapshot at {path}")
        return self.restore(read_json(path))
