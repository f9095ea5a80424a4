"""Path descriptions and measurement records.

This layer sits below both the fluid model (``repro.fastpath``) and the
campaign runner (``repro.testbed``):

* :mod:`repro.paths.config` — :class:`PathConfig` and the two RON-like
  catalogs (May 2004, March 2006).
* :mod:`repro.paths.records` — the per-epoch measurement record and the
  trace/dataset containers.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "Dataset": ".records",
        "EpochMeasurement": ".records",
        "EpochTruth": ".records",
        "PathConfig": ".config",
        "Trace": ".records",
        "march_2006_catalog": ".config",
        "may_2004_catalog": ".config",
        "scaled_catalog": ".config",
    },
)
