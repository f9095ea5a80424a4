"""Run manifests: the machine-readable record of one campaign run.

A :class:`RunRecorder` brackets a campaign execution.  On ``start()`` it
clears the process telemetry and stamps the run context; on ``finish()``
it drains the telemetry into an aggregate **manifest** (identity,
wall time, counters, timer percentiles) plus the buffered **events**.
``write(dataset_path)`` saves both as sidecars of the dataset::

    may.csv            the dataset
    may.manifest.json  aggregates (JSON, one object)
    may.events.jsonl   one structured event per line

The same sidecar naming is used next to cached dataset entries, so a
cache directory carries the telemetry of the run that populated it.

``repro-obs`` consumes manifests through :func:`resolve_manifest`,
which accepts the manifest path itself, the dataset path, or a
directory containing exactly one manifest.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import uuid
from pathlib import Path
from time import perf_counter
from typing import Any

from repro._version import __version__
from repro.core.errors import DataError
from repro.obs.telemetry import Telemetry, get_telemetry

__all__ = [
    "MANIFEST_VERSION",
    "ENV_EVENTS_MAX_BYTES",
    "DEFAULT_EVENTS_MAX_BYTES",
    "CORE_COUNTERS",
    "ANALYSIS_CORE_COUNTERS",
    "SERVE_CORE_COUNTERS",
    "RunRecorder",
    "sidecar_paths",
    "analysis_sidecar_paths",
    "write_manifest",
    "load_manifest",
    "resolve_manifest",
    "read_events",
]

#: Size cap of a written ``*.events.jsonl`` sidecar (bytes); events past
#: it are dropped and counted, same policy as the access log's rotation
#: bound — a span-heavy run cannot write an unbounded sidecar.
ENV_EVENTS_MAX_BYTES = "REPRO_EVENTS_MAX_BYTES"
DEFAULT_EVENTS_MAX_BYTES = 64 * 1024 * 1024


def _events_max_bytes() -> int:
    raw = os.environ.get(ENV_EVENTS_MAX_BYTES)
    if not raw:
        return DEFAULT_EVENTS_MAX_BYTES
    try:
        return max(4096, int(raw))
    except ValueError:
        return DEFAULT_EVENTS_MAX_BYTES

#: Schema version of manifest.json (bump on incompatible layout changes).
#: v2 adds the ``kind`` field ("campaign" | "analysis" | "serve"); v1
#: manifests still load and are treated as campaign manifests.
MANIFEST_VERSION = 2

#: Counters every campaign manifest reports even when zero, so consumers
#: (and ``repro-obs compare``) never have to special-case their absence.
CORE_COUNTERS = (
    "epochs.simulated",
    "simnet.events_processed",
    "simnet.queue_drops",
    "cache.hits",
    "cache.misses",
    "cache.corrupt",
    "tcp.retransmits",
    "tcp.timeouts",
    # Fault-tolerance accounting: how many traces this run attempted to
    # simulate, how many attempts failed / were retried, and how many
    # traces were restored from checkpoints instead of simulated.
    "campaign.traces_attempted",
    "campaign.traces_resumed",
    "campaign.retries",
    "campaign.job_failures",
)

#: The analysis-run equivalent: prediction-pipeline counters every
#: ``kind: "analysis"`` manifest reports even when zero.
ANALYSIS_CORE_COUNTERS = (
    "predictions.made",
    "fb.model_selected",
    "hb.level_shifts",
    "hb.outliers_discarded",
    # The warm phase's fault-tolerance accounting, as for campaigns.
    "analysis.retries",
    "analysis.job_failures",
)

#: The serving equivalent: request/ingest counters every ``repro-serve``
#: shutdown manifest reports even when zero.
SERVE_CORE_COUNTERS = (
    "serve.requests",
    "serve.bad_requests",
    "serve.ingested",
    "serve.predictions",
    "serve.evictions",
    "serve.slo_breaches",
    "predict.drift_alerts",
    "hb.level_shifts",
    "hb.outliers_discarded",
    "hb.invalid_samples",
)

#: Core-counter contract per manifest kind.
CORE_COUNTERS_BY_KIND = {
    "campaign": CORE_COUNTERS,
    "analysis": ANALYSIS_CORE_COUNTERS,
    "serve": SERVE_CORE_COUNTERS,
}


def sidecar_paths(dataset_path: str | Path) -> tuple[Path, Path]:
    """The manifest/events sidecar paths for a dataset file.

    ``X.csv`` maps to ``X.manifest.json`` and ``X.events.jsonl``; a
    dataset without a suffix gets the suffixes appended.
    """
    base = Path(dataset_path)
    stem = base.with_suffix("") if base.suffix else base
    return (
        stem.with_name(stem.name + ".manifest.json"),
        stem.with_name(stem.name + ".events.jsonl"),
    )


def analysis_sidecar_paths(dataset_path: str | Path) -> tuple[Path, Path]:
    """The sidecar paths of an *analysis* run over a dataset.

    Analysis sidecars live next to the dataset but carry an
    ``.analysis`` infix (``X.csv`` -> ``X.analysis.manifest.json``), so
    they never clobber the campaign sidecars of the run that produced
    the dataset.  The ``*.manifest.json`` suffix is preserved, so
    ``repro-obs`` resolves them like any other manifest.
    """
    base = Path(dataset_path)
    stem = base.with_suffix("") if base.suffix else base
    return (
        stem.with_name(stem.name + ".analysis.manifest.json"),
        stem.with_name(stem.name + ".analysis.events.jsonl"),
    )


class RunRecorder:
    """Collects one run's telemetry into a manifest.

    Args:
        label: dataset/campaign label (e.g. the catalog name).
        seed: the campaign's root seed.
        catalog_hash: stable fingerprint of the path catalog.
        cache_key: the dataset cache key, when caching is active; for
            analysis runs, the identity hash of the analyzed dataset.
        settings: campaign settings rendered to a plain dict.
        workers: requested worker count.
        kind: what produced this run — ``"campaign"`` (default),
            ``"analysis"`` (``repro-analyze``) or ``"serve"``
            (``repro-serve``).  Selects which core counters the
            manifest always reports.
        run_id: override the generated run id (tests).
        telemetry: override the process singleton (tests).
    """

    def __init__(
        self,
        label: str = "",
        seed: int = 0,
        catalog_hash: str = "",
        cache_key: str = "",
        settings: dict[str, Any] | None = None,
        workers: int = 1,
        kind: str = "campaign",
        run_id: str | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if kind not in CORE_COUNTERS_BY_KIND:
            raise DataError(
                f"unknown run kind {kind!r}; "
                f"choose from {sorted(CORE_COUNTERS_BY_KIND)}"
            )
        self.kind = kind
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.label = label
        self.seed = seed
        self.catalog_hash = catalog_hash
        self.cache_key = cache_key
        self.settings = dict(settings or {})
        self.workers = workers
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.manifest: dict[str, Any] | None = None
        self.events: list[dict[str, Any]] = []
        self._started = 0.0

    def start(self) -> "RunRecorder":
        """Reset the telemetry pipe and start the run clock."""
        self.telemetry.drain()  # discard leftovers from earlier runs
        self.telemetry.set_context(run=self.run_id)
        self._started = perf_counter()
        return self

    def finish(
        self,
        cache_hit: bool = False,
        n_paths: int = 0,
        n_traces: int = 0,
        n_epochs: int = 0,
        extras: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Drain the telemetry and assemble the manifest dict.

        Args:
            cache_hit: whether the dataset was served from the cache.
            n_paths/n_traces/n_epochs: dataset shape, recorded so the
                manifest can be validated against the dataset itself.
            extras: kind-specific top-level fields merged into the
                manifest (e.g. the ``analysis`` block of
                ``repro-analyze`` runs).  Core fields win on collision.
        """
        wall_s = perf_counter() - self._started if self._started else 0.0
        telemetry = self.telemetry
        if telemetry.enabled:
            for name in CORE_COUNTERS_BY_KIND[self.kind]:
                telemetry.metrics.counter(name)
        snapshot = telemetry.drain()
        telemetry.clear_context()

        # Events from worker processes never saw the parent's context, so
        # stamp the run id here where it is missing.
        self.events = [
            event if "run" in event else {**event, "run": self.run_id}
            for event in snapshot.get("events", ())
        ]
        by_kind: dict[str, int] = {}
        for event in self.events:
            kind = str(event.get("kind", "?"))
            by_kind[kind] = by_kind.get(kind, 0) + 1

        from repro.obs.metrics import Timer

        timers = []
        for entry in snapshot.get("timers", ()):
            timer = Timer(entry["name"], entry["tags"])
            timer.samples = entry["samples"]
            timers.append({"name": timer.name, "tags": timer.tags, **timer.stats()})

        self.manifest = {
            **(extras or {}),
            "manifest_version": MANIFEST_VERSION,
            "kind": self.kind,
            "code_version": __version__,
            "run_id": self.run_id,
            "created_unix": time.time(),
            "label": self.label,
            "seed": self.seed,
            "catalog_hash": self.catalog_hash,
            "cache_key": self.cache_key,
            "settings": self.settings,
            "workers": self.workers,
            "counts": {"paths": n_paths, "traces": n_traces, "epochs": n_epochs},
            "cache": {"hit": bool(cache_hit)},
            "wall_time_s": wall_s,
            "counters": snapshot.get("counters", []),
            "gauges": snapshot.get("gauges", []),
            "timers": timers,
            "events": {"count": len(self.events), "by_kind": by_kind},
        }
        return self.manifest

    def write(self, dataset_path: str | Path) -> tuple[Path, Path]:
        """Write ``manifest.json`` + ``events.jsonl`` next to a dataset.

        Must be called after :meth:`finish`.

        Returns:
            ``(manifest_path, events_path)``.
        """
        if self.manifest is None:
            raise DataError("RunRecorder.write() called before finish()")
        manifest_path, events_path = sidecar_paths(dataset_path)
        write_manifest(self.manifest, self.events, manifest_path, events_path)
        return manifest_path, events_path


def write_manifest(
    manifest: dict[str, Any],
    events: list[dict[str, Any]],
    manifest_path: str | Path,
    events_path: str | Path,
) -> None:
    """Serialize a manifest + its events to the given paths.

    Both files are written atomically (temp file + ``os.replace``, the
    same pattern as ``DatasetCache.store``): a crash mid-write can never
    leave a torn ``*.manifest.json`` / ``*.events.jsonl`` behind for
    ``repro-obs summary`` to choke on — either the old sidecar survives
    intact or the new one is complete.

    The events file is size-capped (``REPRO_EVENTS_MAX_BYTES``, default
    64 MiB): the head of the stream is kept, the tail dropped, and the
    manifest records the truncation (``events.written`` /
    ``events.dropped`` plus an ``events.dropped`` counter) so consumers
    see the cut instead of inferring it from a count mismatch.
    """
    manifest_path = Path(manifest_path)
    events_path = Path(events_path)
    manifest = dict(manifest)
    max_bytes = _events_max_bytes()
    lines: list[str] = []
    size = 0
    written = 0
    for event in events:
        line = json.dumps(event, sort_keys=True) + "\n"
        # ensure_ascii output: one byte per character.
        if size + len(line) > max_bytes:
            break
        lines.append(line)
        size += len(line)
        written += 1
    dropped = len(events) - written
    manifest["events"] = {
        **manifest.get("events", {}),
        "path": events_path.name,
        "written": written,
        "dropped": dropped,
    }
    if dropped:
        counters = list(manifest.get("counters", ()))
        counters.append(
            {"name": "events.dropped", "tags": {}, "value": dropped}
        )
        manifest["counters"] = counters
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(events_path, "".join(lines))
    _atomic_write_text(
        manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file in the same directory."""
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.stem[:16]}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    finally:
        if os.path.exists(tmp_name):  # pragma: no cover - error path
            os.unlink(tmp_name)


def load_manifest(path: str | Path) -> dict[str, Any]:
    """Load and sanity-check a ``manifest.json``.

    Manifests from any released schema version load: v1 files carry no
    ``kind`` field and are normalized to ``kind: "campaign"``.

    Raises:
        DataError: if the file is missing, not JSON, not a manifest, or
            its schema version is pre-v1 / non-integer / from the future.
    """
    path = Path(path)
    if path.name.endswith(".corrupt"):
        raise DataError(
            f"{path} is a quarantined corrupt sidecar; it cannot be "
            "rendered (re-run the campaign to regenerate telemetry)"
        )
    if not path.is_file():
        raise DataError(f"no manifest at {path}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or "manifest_version" not in manifest:
        raise DataError(f"{path} is not a run manifest (no manifest_version)")
    version = manifest["manifest_version"]
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        raise DataError(
            f"{path} has invalid manifest_version {version!r} "
            "(expected an integer >= 1)"
        )
    if version > MANIFEST_VERSION:
        raise DataError(
            f"{path} has manifest_version {version}, newer than this "
            f"code understands ({MANIFEST_VERSION})"
        )
    manifest.setdefault("kind", "campaign")
    return manifest


def resolve_manifest(run: str | Path) -> Path:
    """Find the ``manifest.json`` a ``repro-obs RUN`` argument refers to.

    Accepts the manifest path itself, the dataset path (resolved through
    the sidecar naming), or a directory containing exactly one
    ``*.manifest.json``.

    Raises:
        DataError: when nothing (or more than one candidate) is found.
    """
    path = Path(run)
    if path.name.endswith(".corrupt"):
        raise DataError(
            f"{path} is a quarantined corrupt sidecar; it cannot be "
            "rendered (re-run the campaign to regenerate telemetry)"
        )
    if path.is_dir():
        candidates = sorted(path.glob("*.manifest.json"))
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            quarantined = sorted(path.glob("*.manifest.json.corrupt"))
            if quarantined:
                names = ", ".join(c.name for c in quarantined)
                raise DataError(
                    f"no *.manifest.json in directory {path}; only "
                    f"quarantined corrupt sidecars: {names}"
                )
            raise DataError(f"no *.manifest.json in directory {path}")
        names = ", ".join(c.name for c in candidates)
        raise DataError(f"multiple manifests in {path}: {names}")
    if path.name.endswith(".manifest.json") and path.is_file():
        return path
    sidecar, _ = sidecar_paths(path)
    if sidecar.is_file():
        return sidecar
    if sidecar.with_name(sidecar.name + ".corrupt").is_file():
        raise DataError(
            f"manifest for {run!r} was quarantined as corrupt "
            f"({sidecar.name}.corrupt); re-run the campaign to regenerate it"
        )
    raise DataError(f"no manifest found for {run!r} (looked for {sidecar})")


def read_events(manifest_path: str | Path) -> list[dict[str, Any]]:
    """Load the events.jsonl referenced by a manifest.

    Returns an empty list when the manifest records no events file or
    the file is absent.  Malformed lines — typically a torn trailing
    line from a crash mid-append — are skipped and counted
    (``events.skipped_lines`` counter + one ``events.skipped`` telemetry
    event per file), mirroring ``ShardedStateStore.restore``'s
    skip-and-count convention: a damaged sidecar degrades to partial
    data instead of refusing to render at all.
    """
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    name = manifest.get("events", {}).get("path")
    if not name:
        return []
    events_path = manifest_path.parent / name
    if not events_path.is_file():
        return []
    events = []
    skipped = 0
    first_bad = 0
    for lineno, line in enumerate(
        events_path.read_text(encoding="utf-8", errors="replace").splitlines(),
        start=1,
    ):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1
            if not first_bad:
                first_bad = lineno
            continue
        if isinstance(event, dict):
            events.append(event)
        else:
            skipped += 1
            if not first_bad:
                first_bad = lineno
    if skipped:
        tele = get_telemetry()
        tele.counter("events.skipped_lines").inc(skipped)
        tele.emit(
            "events.skipped",
            path=str(events_path),
            lines=skipped,
            first_line=first_bad,
        )
    return events
