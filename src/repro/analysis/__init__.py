"""The computations behind every figure of the paper's evaluation.

* :mod:`repro.analysis.fb_eval` — Formula-Based prediction accuracy
  (Figs. 2-14).
* :mod:`repro.analysis.hb_eval` — History-Based prediction accuracy
  (Figs. 15-23).
* :mod:`repro.analysis.report` — plain-text rendering of tables, CDFs
  and scatter summaries for benchmark output.
* :mod:`repro.analysis.stats` — bootstrap confidence intervals for the
  headline statistics.

Each function takes a :class:`repro.paths.records.Dataset` and returns
plain result objects; nothing here reads the hidden ``truth`` fields.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "fb_eval": ".fb_eval",
        "hb_eval": ".hb_eval",
        "report": ".report",
        "stats": ".stats",
    },
)
