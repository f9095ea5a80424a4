"""Content-addressed on-disk dataset cache.

A campaign's output is fully determined by (catalog, seed, label, TCP
parameters, settings) plus the code that simulates it.  The cache maps a
:func:`~repro.core.cachekey.stable_fingerprint` of exactly those inputs
— the code as :func:`code_fingerprint`, the source of the simulating
modules — to the dataset's columns, saved as one ``.npz`` entry
(:func:`repro.testbed.io.write_entry`), so benchmarks and the
``repro-campaign`` CLI can reuse a previously simulated campaign
instead of re-running it.

The cache directory defaults to ``~/.cache/repro/datasets`` and is
overridden with the ``REPRO_CACHE_DIR`` environment variable (or the
CLI's ``--cache-dir``).  Entries are ``<key>.npz`` files — safe to
inspect (``np.load``), copy, or delete by hand; a corrupt or truncated
entry is quarantined, treated as a miss and re-simulated.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.cachekey import source_fingerprint, stable_fingerprint
from repro.core.errors import DataError
from repro.obs import get_telemetry
from repro.paths.records import Dataset
from repro.testbed.io import STORE_VERSION, read_entry, write_entry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.testbed.campaign import Campaign, CampaignSettings
    from repro.testbed.executor import ProgressCallback

#: Environment variable overriding the cache location.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/datasets``."""
    env = os.environ.get(ENV_CACHE_DIR, "").strip()
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro" / "datasets"


@functools.cache
def code_fingerprint() -> str:
    """Fingerprint of the source of the modules that decide a campaign's
    output, read once per process.

    Those are the fluid engine (:mod:`repro.fastpath`), the TCP formulas
    (:mod:`repro.formulas`), the path catalogs and records
    (:mod:`repro.paths`), the named RNG streams (:mod:`repro.core.rng`)
    and the campaign runner (:mod:`repro.testbed.campaign`).
    """
    import repro.core.rng
    import repro.fastpath
    import repro.formulas
    import repro.paths
    import repro.testbed.campaign

    return source_fingerprint(
        repro.fastpath,
        repro.formulas,
        repro.paths,
        repro.core.rng,
        repro.testbed.campaign,
    )


def campaign_cache_key(campaign: "Campaign", settings: "CampaignSettings") -> str:
    """The cache key for one campaign execution.

    Covers everything that shapes the dataset: the full path catalog
    (every field of every :class:`~repro.paths.config.PathConfig`), the
    root seed, the label, both TCP parameter sets, the campaign
    settings, the entry layout (:data:`~repro.testbed.io.STORE_VERSION`),
    and :func:`code_fingerprint`, so an entry simulated by different
    code, or stored in another layout, is never served.
    """
    return stable_fingerprint(
        {
            "catalog": campaign.catalog,
            "seed": campaign.streams.seed,
            "label": campaign.label,
            "tcp": campaign.tcp,
            "small_tcp": campaign.small_tcp,
            "settings": settings,
            "code": code_fingerprint(),
            "store_version": STORE_VERSION,
        }
    )


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

    def load(self, key: str) -> Dataset | None:
        """Return the cached dataset for ``key``, or ``None`` on a miss.

        A malformed entry counts as a miss rather than an error: a
        truncated or garbage file, a missing member, an object array,
        columns that disagree with the index (each a :class:`DataError`
        from :func:`~repro.testbed.io.read_entry`), or one that cannot
        be read (``OSError``).  The bad file is quarantined (renamed
        ``*.corrupt``) so it is kept for inspection and cannot shadow
        the fresh entry the caller is about to store, and a
        ``cache.corrupt`` counter/event records the incident.
        """
        path = self.path_for(key)
        if not path.is_file():
            return None
        try:
            return read_entry(path)
        except (DataError, OSError):
            telemetry = get_telemetry()
            telemetry.counter("cache.corrupt").inc()
            telemetry.emit("cache", outcome="corrupt", key=key)
            try:
                os.replace(path, path.with_name(path.name + ".corrupt"))
            except OSError:  # pragma: no cover - vanished or unwritable
                pass
            return None

    def store(self, key: str, dataset: Dataset) -> Path:
        """Save ``dataset`` under ``key``; returns the entry's path.

        The write is atomic (temp file + rename), so a concurrent reader
        never observes a half-written entry.
        """
        return write_entry(dataset, self.path_for(key))


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
    telemetry = get_telemetry()
    with telemetry.timer("cache.load_s"):
        cached = cache.load(key)
    if cached is not None:
        telemetry.counter("cache.hits").inc()
        telemetry.emit("cache", outcome="hit", key=key)
        return cached, True
    telemetry.counter("cache.misses").inc()
    telemetry.emit("cache", outcome="miss", key=key)
    dataset = campaign.run(
        settings,
        n_workers=n_workers,
        progress=progress,
        retry=retry,
        checkpoint=checkpoint,
        run_key=key,
        resume=resume,
    )
    with telemetry.timer("cache.store_s"):
        cache.store(key, dataset)
    return dataset, False
