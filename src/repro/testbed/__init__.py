"""The RON-like testbed emulation (paper Section 4.1).

* :mod:`repro.testbed.campaign` — the epoch/trace/campaign runner that
  reproduces the paper's measurement structure (150 epochs per trace,
  7 traces per path).
* :mod:`repro.testbed.executor` — the fault-tolerant engine for
  per-trace jobs (the campaign's and ``repro-analyze``'s): retry with
  capped backoff, job timeouts, pool rebuilds, per-trace progress;
  bit-identical to serial execution.
* :mod:`repro.testbed.checkpoint` — per-trace checkpointing so a
  crashed campaign can be resumed without losing completed work.
* :mod:`repro.testbed.cache` — content-addressed on-disk dataset cache.
* :mod:`repro.testbed.io` — CSV serialization of datasets.

Path catalogs and measurement records live in :mod:`repro.paths` and are
re-exported here for convenience.
"""

from repro.paths.config import PathConfig, march_2006_catalog, may_2004_catalog
from repro.paths.records import Dataset, EpochMeasurement, Trace
from repro.testbed.cache import DatasetCache, campaign_cache_key, run_cached
from repro.testbed.campaign import Campaign
from repro.testbed.checkpoint import CheckpointStore
from repro.testbed.executor import CampaignProgress, RetryPolicy, run_campaign

__all__ = [
    "Campaign",
    "CampaignProgress",
    "CheckpointStore",
    "Dataset",
    "DatasetCache",
    "EpochMeasurement",
    "PathConfig",
    "RetryPolicy",
    "Trace",
    "campaign_cache_key",
    "march_2006_catalog",
    "may_2004_catalog",
    "run_cached",
    "run_campaign",
]
