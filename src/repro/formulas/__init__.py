"""Formula-Based (FB) TCP throughput models and the paper's FB predictor.

This subpackage implements the mathematical side of the paper's Section 3:

* :mod:`repro.formulas.mathis` — the "square-root" model (paper Eq. (1)).
* :mod:`repro.formulas.pftk` — the PFTK model of Padhye et al. (Eq. (2)),
  plus the full (non-approximate) PFTK model.
* :mod:`repro.formulas.pftk_revised` — the revised PFTK variant used for
  the paper's Fig. 13.
* :mod:`repro.formulas.cardwell` — the Cardwell et al. slow-start model
  used in Section 4.2.7.
* :mod:`repro.formulas.availbw` — the available-bandwidth predictor for
  lossless paths.
* :mod:`repro.formulas.fb_predictor` — the combined predictor of Eq. (3).

All models take path characteristics in SI units (seconds, bytes,
probabilities) and return throughput in **Mbps**.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "FormulaBasedPredictor": ".fb_predictor",
        "PathEstimates": ".params",
        "TcpParameters": ".params",
        "availbw_prediction": ".availbw",
        "estimate_rto": ".fb_predictor",
        "expected_short_transfer_throughput_mbps": ".cardwell",
        "expected_slow_start_segments": ".cardwell",
        "expected_transfer_time_s": ".cardwell",
        "mathis_throughput": ".mathis",
        "pftk_full_throughput": ".pftk",
        "pftk_revised_throughput": ".pftk_revised",
        "pftk_throughput": ".pftk",
        "slow_start_fraction": ".cardwell",
    },
)
