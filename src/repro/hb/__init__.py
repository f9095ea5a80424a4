"""History-Based (HB) TCP throughput prediction (paper Sections 5-6).

The predictors are incremental one-step forecasters over a history of
previous transfer throughputs on the same path:

* :class:`~repro.hb.moving_average.MovingAverage` — ``n``-MA.
* :class:`~repro.hb.ewma.Ewma` — exponentially weighted moving average.
* :class:`~repro.hb.holt_winters.HoltWinters` — non-seasonal
  Holt-Winters with level and trend components.
* :class:`~repro.hb.wrappers.LsoPredictor` — any of the above wrapped
  with the paper's Level-Shift and Outlier heuristics (Section 5.2):
  detected outliers are discarded from the history, and a detected level
  shift restarts the predictor from the shift point.

The LSO heuristics have one implementation, the incremental
:class:`~repro.hb.lso.LsoKernel`; the LSO predictor wraps it for both
offline evaluation and online serving, and
:func:`~repro.hb.evaluate.lso_segmentation` drives it over whole traces.

:func:`~repro.hb.evaluate.evaluate_predictor` walks a throughput
:class:`~repro.core.timeseries.TimeSeries` and produces the one-step
errors and RMSRE used by every HB figure of the paper;
:func:`~repro.hb.evaluate.evaluate_predictors` walks several predictors
over one series in one pass, LSO wrappers with equal thresholds sharing
one kernel.  Every predictor takes the same loop,
:func:`~repro.hb.vector_eval.vector_walk`.
A :class:`~repro.hb.spec.PredictorSpec` names one predictor, and builds
it when called, for the figures, their pack and ``repro-serve`` alike.
:class:`~repro.hb.streaming.StreamingPredictorState` serves the same
predictors online.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "AdaptiveEnsemble": ".nws",
        "AutoRegressive": ".autoregressive",
        "DEFAULT_LEVEL_SHIFT_THRESHOLD": ".lso",
        "DEFAULT_OUTLIER_THRESHOLD": ".lso",
        "DEFAULT_SERVE_PREDICTORS": ".streaming",
        "Ewma": ".ewma",
        "HybridPredictor": ".hybrid",
        "HbEvaluation": ".evaluate",
        "HistoryPredictor": ".base",
        "HoltWinters": ".holt_winters",
        "LsoConfig": ".lso",
        "LsoKernel": ".lso",
        "LsoPredictor": ".wrappers",
        "MovingAverage": ".moving_average",
        "PredictorFactory": ".base",
        "PredictorSpec": ".spec",
        "SERVE_PREDICTORS": ".streaming",
        "StreamingPredictorState": ".streaming",
        "detect_level_shift": ".lso",
        "detect_outliers": ".lso",
        "evaluate_predictor": ".evaluate",
        "evaluate_predictors": ".evaluate",
        "vector_walk": ".vector_eval",
    },
)
