"""Per-trace checkpointing for fault-tolerant campaigns.

A campaign's unit of independence is the (path, trace) pair, and that
is also its unit of durability: every finished trace is persisted to a
:class:`CheckpointStore` the moment it completes, so a crash — an
OOM-killed worker, a power loss, an operator ^C — forfeits at most the
traces still in flight.  ``repro-campaign --resume`` (or
``Campaign.run(resume=True)``) loads the checkpointed traces back and
only simulates the missing ones; because each trace draws from its own
named RNG stream, the reassembled dataset is bit-identical to an
uninterrupted run.

Layout::

    <root>/<run_key>/<path_id>.t<trace_index>.npz

``run_key`` is the campaign's content fingerprint (the same
:func:`~repro.testbed.cache.campaign_cache_key` the dataset cache
uses), so checkpoints can never leak between campaigns with different
catalogs, seeds, settings, simulating code, or entry layouts.  Each
entry is a single-trace dataset in the dataset cache's ``.npz`` layout
(:func:`~repro.testbed.io.write_entry`) — inspectable with ``np.load``
and deletable by hand.  Writes are atomic (temp file + ``os.replace``);
a corrupt or truncated entry is quarantined (renamed ``*.corrupt``)
and treated as absent, so a torn write can only cost the one trace it
belongs to.

The store root defaults to ``~/.cache/repro/checkpoints`` and is
overridden with ``REPRO_CHECKPOINT_DIR`` (or the CLI's
``--checkpoint-dir``).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.core.errors import DataError
from repro.obs import get_telemetry
from repro.paths.records import Dataset, Trace
from repro.testbed.io import read_entry, write_entry

__all__ = [
    "ENV_CHECKPOINT_DIR",
    "CheckpointStore",
    "default_checkpoint_dir",
]

#: Environment variable overriding the checkpoint location.
ENV_CHECKPOINT_DIR = "REPRO_CHECKPOINT_DIR"


def default_checkpoint_dir() -> Path:
    """``$REPRO_CHECKPOINT_DIR`` or ``~/.cache/repro/checkpoints``."""
    env = os.environ.get(ENV_CHECKPOINT_DIR, "").strip()
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro" / "checkpoints"


class CheckpointStore:
    """A directory of per-trace checkpoints grouped by campaign run key.

    Args:
        root: store directory; ``None`` uses :func:`default_checkpoint_dir`
            (which honours ``REPRO_CHECKPOINT_DIR``).
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = (
            Path(root).expanduser() if root is not None else default_checkpoint_dir()
        )

    def run_dir(self, run_key: str) -> Path:
        """The directory holding one campaign's checkpoints."""
        return self.root / run_key

    def trace_path(self, run_key: str, path_id: str, trace_index: int) -> Path:
        """Where the checkpoint of one (path, trace) pair lives."""
        return self.run_dir(run_key) / f"{path_id}.t{trace_index}.npz"

    def store_trace(self, run_key: str, trace: Trace) -> Path:
        """Atomically persist one finished trace; returns the entry path.

        Written by the dataset cache's entry writer (temp file +
        ``os.replace``), so a crash mid-write never leaves a
        half-written entry under the final name.
        """
        path = write_entry(
            Dataset(label="checkpoint", traces=[trace]),
            self.trace_path(run_key, trace.path_id, trace.trace_index),
        )
        get_telemetry().counter("checkpoint.stored").inc()
        return path

    def load_trace(self, run_key: str, path_id: str, trace_index: int) -> Trace | None:
        """Load one checkpointed trace, or ``None`` when absent/corrupt.

        A malformed entry is quarantined (renamed ``*.corrupt``) so the
        campaign re-simulates the trace and the bad file survives for
        post-mortem inspection instead of being silently overwritten.
        """
        path = self.trace_path(run_key, path_id, trace_index)
        if not path.is_file():
            return None
        telemetry = get_telemetry()
        try:
            traces = read_entry(path).traces
            held = [(t.path_id, t.trace_index) for t in traces]
            if held != [(path_id, trace_index)]:
                raise DataError(f"checkpoint {path} holds traces {held}")
        except (DataError, OSError):
            # An unreadable or damaged entry, or one holding anything but
            # this trace, cannot be trusted.
            telemetry.counter("checkpoint.corrupt").inc()
            telemetry.emit("checkpoint", outcome="corrupt", path=str(path))
            _quarantine(path)
            return None
        telemetry.counter("checkpoint.loaded").inc()
        return traces[0]

    def completed(self, run_key: str) -> set[tuple[str, int]]:
        """The ``(path_id, trace_index)`` pairs checkpointed for a run.

        Derived from the entry filenames; entries that later fail to
        load are handled (quarantined) by :meth:`load_trace`.
        """
        run_dir = self.run_dir(run_key)
        if not run_dir.is_dir():
            return set()
        done: set[tuple[str, int]] = set()
        for entry in run_dir.glob("*.npz"):
            stem = entry.name[: -len(".npz")]
            path_id, sep, index = stem.rpartition(".t")
            if not sep or not index.isdigit():
                continue
            done.add((path_id, int(index)))
        return done

    def discard(self, run_key: str) -> None:
        """Delete one run's checkpoints (called after a completed run)."""
        run_dir = self.run_dir(run_key)
        if not run_dir.is_dir():
            return
        for entry in run_dir.iterdir():
            try:
                entry.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
        try:
            run_dir.rmdir()
        except OSError:  # pragma: no cover - concurrent cleanup
            pass


def _quarantine(path: Path) -> None:
    """Move a corrupt file aside as ``<name>.corrupt`` (best effort)."""
    try:
        os.replace(path, path.with_name(path.name + ".corrupt"))
    except OSError:  # pragma: no cover - file vanished or unwritable dir
        pass
