"""Content-addressed on-disk dataset cache.

A campaign's output is fully determined by (catalog, seed, label, TCP
parameters, settings) plus the code that simulates and writes it.  The
cache maps a :func:`~repro.core.cachekey.stable_fingerprint` of exactly
those inputs — the code as :func:`code_fingerprint`, the source of the
simulating modules and of the CSV writer — to one ``.npz`` entry, so
benchmarks and the ``repro-campaign`` CLI can reuse a previously
simulated campaign instead of re-running it.

An entry holds the dataset twice.  Its columns
(:func:`repro.testbed.io.write_entry`) serve library callers that want a
:class:`~repro.paths.records.Dataset` (:func:`run_cached`).  Two plain
members serve the CLI: ``dataset.csv``, the exact bytes
:func:`~repro.testbed.io.save_dataset` writes for the dataset, and
``dataset.json``, its label and path, trace and epoch counts.  A CLI hit
writes those bytes to its output: nothing is parsed or formatted, and
the hit path loads no numpy.

The cache directory defaults to ``~/.cache/repro/datasets`` and is
overridden with the ``REPRO_CACHE_DIR`` environment variable (or the
CLI's ``--cache-dir``).  Entries are ``<key>.npz`` files — safe to
inspect (``np.load``), copy, or delete by hand; a corrupt or truncated
entry is quarantined, treated as a miss and re-simulated.
"""

from __future__ import annotations

import functools
import json
import os
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.cachekey import source_fingerprint, stable_fingerprint
from repro.core.errors import DataError
from repro.obs import get_telemetry

if TYPE_CHECKING:  # pragma: no cover - types only: a hit loads no numpy
    from repro.paths.records import Dataset
    from repro.testbed.campaign import Campaign, CampaignSettings
    from repro.testbed.executor import ProgressCallback

#: Environment variable overriding the cache location.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Bumped when the entry layout changes; part of the cache key (and so
#: of the checkpoints' run key), so an entry of another layout is never
#: read.  2: entries carry ``dataset.csv`` and ``dataset.json``.
STORE_VERSION = 2

#: The entry member holding the dataset's CSV bytes.
CSV_MEMBER = "dataset.csv"

#: The entry member holding the dataset's label and counts (UTF-8 JSON).
COUNTS_MEMBER = "dataset.json"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/datasets``."""
    env = os.environ.get(ENV_CACHE_DIR, "").strip()
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro" / "datasets"


@functools.cache
def code_fingerprint() -> str:
    """Fingerprint of the source of the modules that decide an entry's
    contents, read once per process without importing them.

    Those are the fluid engine (:mod:`repro.fastpath`), the TCP formulas
    (:mod:`repro.formulas`), the path catalogs and records
    (:mod:`repro.paths`), the named RNG streams (:mod:`repro.core.rng`),
    the campaign runner (:mod:`repro.testbed.campaign`) and the CSV
    writer (:mod:`repro.testbed.io`), whose bytes an entry stores.
    """
    return source_fingerprint(
        "repro.fastpath",
        "repro.formulas",
        "repro.paths",
        "repro.core.rng",
        "repro.testbed.campaign",
        "repro.testbed.io",
    )


def campaign_cache_key(campaign: "Campaign", settings: "CampaignSettings") -> str:
    """The cache key for one campaign execution.

    Covers everything that shapes the dataset: the full path catalog
    (every field of every :class:`~repro.paths.config.PathConfig`), the
    root seed, the label, both TCP parameter sets, the campaign
    settings, the entry layout (:data:`STORE_VERSION`), and
    :func:`code_fingerprint`, so an entry simulated or written by
    different code, or stored in another layout, is never served.
    """
    return stable_fingerprint(
        {
            "catalog": campaign.catalog,
            "seed": campaign.seed,
            "label": campaign.label,
            "tcp": campaign.tcp,
            "small_tcp": campaign.small_tcp,
            "settings": settings,
            "code": code_fingerprint(),
            "store_version": STORE_VERSION,
        }
    )


@dataclass
class CacheEntry:
    """One dataset-cache entry, as a hit serves it.

    Attributes:
        path: the entry file.
        csv: the dataset's CSV, the bytes
            :func:`~repro.testbed.io.save_dataset` writes for it.
        label: the dataset's label.
        n_paths: distinct paths in the dataset.
        n_traces: traces in the dataset.
        n_epochs: epochs over all traces.
    """

    path: Path
    csv: bytes = field(repr=False)
    label: str
    n_paths: int
    n_traces: int
    n_epochs: int
    _dataset: Dataset | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def dataset(self) -> Dataset:
        """The dataset, read from the entry's columns on the first call.

        Raises:
            DataError: the columns are damaged, or their label or counts
                disagree with ``dataset.json``.
            OSError: the entry cannot be read.
        """
        if self._dataset is None:
            from repro.testbed.io import read_entry

            dataset = read_entry(self.path)
            held = (
                dataset.label,
                len(dataset.path_ids),
                len(dataset.traces),
                dataset.n_epochs,
            )
            counted = (self.label, self.n_paths, self.n_traces, self.n_epochs)
            if held != counted:
                raise DataError(
                    f"{self.path}: columns hold {held}, {COUNTS_MEMBER} says {counted}"
                )
            self._dataset = dataset
        return self._dataset

    def summary(self) -> str:
        """The line :meth:`Dataset.summary` gives for the dataset."""
        return (
            f"Dataset {self.label!r}: {self.n_paths} paths, "
            f"{self.n_traces} traces, {self.n_epochs} epochs"
        )


#: What reading a damaged zip archive or member can raise.
_ARCHIVE_ERRORS = (
    KeyError,
    TypeError,
    ValueError,
    EOFError,
    NotImplementedError,
    RuntimeError,
    zipfile.BadZipFile,
    zlib.error,
)


def read_served(path: Path) -> CacheEntry:
    """The CSV bytes and counts of the entry at ``path``; no column is read.

    The CSV member is read whole before this returns, so zip's CRC-32
    check has passed before a caller writes a byte of it.

    Raises:
        OSError: the file cannot be read.
        DataError: it is not an entry: not a zip archive, a member
            missing, a CRC mismatch, or malformed counts.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            counts = json.loads(archive.read(COUNTS_MEMBER))
            csv = archive.read(CSV_MEMBER)
        label, *numbers = (counts[k] for k in ("label", "paths", "traces", "epochs"))
    except _ARCHIVE_ERRORS as exc:
        raise DataError(f"{path} is not a dataset entry: {exc}") from exc
    if not isinstance(label, str) or not all(
        type(n) is int and n >= 0 for n in numbers
    ):
        raise DataError(f"{path} has malformed {COUNTS_MEMBER}: {counts!r}")
    return CacheEntry(path, csv, label, *numbers)


class DatasetCache:
    """A directory of datasets addressed by content key.

    Args:
        root: cache directory; ``None`` uses :func:`default_cache_dir`
            (which honours ``REPRO_CACHE_DIR``).
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root).expanduser() if root is not None else default_cache_dir()

    def path_for(self, key: str) -> Path:
        """The file a dataset with ``key`` is (or would be) stored at."""
        return self.root / f"{key}.npz"

    def contains(self, key: str) -> bool:
        """Whether an entry exists for ``key`` (it may still be corrupt)."""
        return self.path_for(key).is_file()

    def load(self, key: str, *, columns: bool = False) -> CacheEntry | None:
        """Return the cached entry for ``key``, or ``None`` on a miss.

        Reads the entry's CSV bytes and counts (:func:`read_served`);
        with ``columns`` it also reads its columns now
        (:meth:`CacheEntry.dataset`), so damage to them is handled here
        too.  A malformed entry counts as a miss rather than an error: a
        truncated or garbage file, a missing member, a CRC mismatch,
        malformed counts, and with ``columns`` an object array or
        columns that disagree with the index or the counts (each a
        :class:`DataError`), or one that cannot be read (``OSError``).
        The bad file is quarantined (renamed ``*.corrupt``) so it is
        kept for inspection and cannot shadow the fresh entry the caller
        is about to store, and a ``cache.corrupt`` counter/event records
        the incident.
        """
        path = self.path_for(key)
        if not path.is_file():
            return None
        try:
            entry = read_served(path)
            if columns:
                entry.dataset()
            return entry
        except (DataError, OSError):
            telemetry = get_telemetry()
            telemetry.counter("cache.corrupt").inc()
            telemetry.emit("cache", outcome="corrupt", key=key)
            try:
                os.replace(path, path.with_name(path.name + ".corrupt"))
            except OSError:  # pragma: no cover - vanished or unwritable
                pass
            return None

    def lookup(self, key: str, *, columns: bool = False) -> CacheEntry | None:
        """:meth:`load` ``key``, timed (``cache.load_s``) and counted as a
        hit or a miss (``cache.hits``/``cache.misses`` and a ``cache``
        event): the lookup of both the CLI and :func:`run_cached`."""
        telemetry = get_telemetry()
        with telemetry.timer("cache.load_s"):
            entry = self.load(key, columns=columns)
        outcome = "miss" if entry is None else "hit"
        telemetry.counter("cache.misses" if entry is None else "cache.hits").inc()
        telemetry.emit("cache", outcome=outcome, key=key)
        return entry

    def store(self, key: str, dataset: Dataset, csv: bytes | None = None) -> Path:
        """Save ``dataset`` under ``key``; returns the entry's path.

        ``csv`` is the dataset's CSV when the caller already has it
        (:func:`~repro.testbed.io.save_dataset` returns the bytes it
        wrote); otherwise it is formatted here.  The write is atomic
        (temp file + rename), so a concurrent reader never observes a
        half-written entry.
        """
        from repro.testbed.io import dataset_csv, write_entry

        counts = {
            "label": dataset.label,
            "paths": len(dataset.path_ids),
            "traces": len(dataset.traces),
            "epochs": dataset.n_epochs,
        }
        return write_entry(
            dataset,
            self.path_for(key),
            {
                CSV_MEMBER: dataset_csv(dataset) if csv is None else csv,
                COUNTS_MEMBER: json.dumps(counts).encode(),
            },
        )


def run_cached(
    campaign: "Campaign",
    settings: "CampaignSettings",
    n_workers: int = 1,
    cache: DatasetCache | None = None,
    progress: "ProgressCallback | None" = None,
    *,
    retry=None,
    checkpoint=None,
    resume: bool = False,
) -> tuple[Dataset, bool]:
    """Run a campaign through the cache.

    Returns ``(dataset, hit)``: on a hit the saved dataset is loaded and
    no simulation happens (the progress callback is not invoked); on a
    miss the campaign runs (honouring ``n_workers``/``progress`` and the
    robustness options ``retry``/``checkpoint``/``resume``, all keyed by
    the same content fingerprint as the cache entry) and the result is
    stored before being returned.
    """
    cache = cache or DatasetCache()
    key = campaign_cache_key(campaign, settings)
    entry = cache.lookup(key, columns=True)
    if entry is not None:
        return entry.dataset(), True
    dataset = campaign.run(
        settings,
        n_workers=n_workers,
        progress=progress,
        retry=retry,
        checkpoint=checkpoint,
        run_key=key,
        resume=resume,
    )
    with get_telemetry().timer("cache.store_s"):
        cache.store(key, dataset)
    return dataset, False
