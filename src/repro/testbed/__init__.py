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

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "Campaign": ".campaign",
        "CampaignProgress": ".executor",
        "CheckpointStore": ".checkpoint",
        "Dataset": "repro.paths.records",
        "DatasetCache": ".cache",
        "EpochMeasurement": "repro.paths.records",
        "PathConfig": "repro.paths.config",
        "RetryPolicy": ".executor",
        "Trace": "repro.paths.records",
        "campaign_cache_key": ".cache",
        "march_2006_catalog": "repro.paths.config",
        "may_2004_catalog": "repro.paths.config",
        "run_cached": ".cache",
        "run_campaign": ".executor",
    },
)
