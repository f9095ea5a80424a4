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
:class:`~repro.hb.streaming.StreamingPredictorState` serves the same
predictors online.
"""

from repro.hb.autoregressive import AutoRegressive
from repro.hb.base import HistoryPredictor, PredictorFactory
from repro.hb.evaluate import (
    HbEvaluation,
    active_eval_cache,
    evaluate_predictor,
    evaluate_predictors,
    set_active_eval_cache,
)
from repro.hb.ewma import Ewma
from repro.hb.hybrid import HybridPredictor
from repro.hb.holt_winters import HoltWinters
from repro.hb.lso import (
    DEFAULT_LEVEL_SHIFT_THRESHOLD,
    DEFAULT_OUTLIER_THRESHOLD,
    LsoConfig,
    LsoKernel,
    detect_level_shift,
    detect_outliers,
)
from repro.hb.moving_average import MovingAverage
from repro.hb.nws import AdaptiveEnsemble
from repro.hb.streaming import (
    BASE_PREDICTORS,
    DEFAULT_SERVE_PREDICTORS,
    PredictorSpec,
    StreamingPredictorState,
)
from repro.hb.vector_eval import vector_walk
from repro.hb.wrappers import LsoPredictor

__all__ = [
    "AdaptiveEnsemble",
    "AutoRegressive",
    "BASE_PREDICTORS",
    "DEFAULT_LEVEL_SHIFT_THRESHOLD",
    "DEFAULT_OUTLIER_THRESHOLD",
    "DEFAULT_SERVE_PREDICTORS",
    "Ewma",
    "HybridPredictor",
    "HbEvaluation",
    "HistoryPredictor",
    "HoltWinters",
    "LsoConfig",
    "LsoKernel",
    "LsoPredictor",
    "MovingAverage",
    "PredictorFactory",
    "PredictorSpec",
    "StreamingPredictorState",
    "active_eval_cache",
    "detect_level_shift",
    "detect_outliers",
    "evaluate_predictor",
    "evaluate_predictors",
    "set_active_eval_cache",
    "vector_walk",
]
