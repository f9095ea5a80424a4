"""The LSO wrapper: any base predictor + the paper's two heuristics.

Every observation goes through the LSO kernel
(:class:`~repro.hb.lso.LsoKernel`), which keeps the clean history —
samples since the last level shift, outliers discarded.  The base
predictor always holds exactly the state a fresh instance fed that
clean history would hold: new samples are fed incrementally, and the
base is rebuilt from the clean history only when the history changed
under it (an already-fed sample discarded as an outlier, or a level
shift restarting it from the shift point).  Predictors are
deterministic state machines over their update sequence, so feeding
incrementally and rebuilding give the same bits.

The same wrapper serves the offline walk-forward evaluation
(:func:`~repro.hb.evaluate.evaluate_predictor`) and online serving
(:class:`~repro.hb.streaming.PredictorSpec` builds it), at O(1)
amortised cost per observation.
"""

from __future__ import annotations

from repro.core.errors import PredictionError
from repro.hb.base import HistoryPredictor, PredictorFactory
from repro.hb.lso import LsoConfig, LsoKernel


class LsoPredictor(HistoryPredictor):
    """A base HB predictor guarded by Level-Shift and Outlier detection.

    Args:
        factory: produces fresh instances of the base predictor (one per
            restart).
        config: LSO thresholds; defaults to the paper's ``χ=0.3, ψ=0.4``.
        harden: apply the two implementation hardenings on top of the
            paper's heuristics — quarantining a suspect trailing sample
            from the base predictor, and clamping forecasts to the
            observed history range.  ``False`` gives the paper-literal
            wrapper (used by the ablation benchmarks).
    """

    #: Forecasts are clamped into [min/2, max*2] of the clean history: a
    #: forecast outside the range ever observed on the path is predictor
    #: overshoot (e.g. a Holt-Winters trend extrapolating through zero
    #: after a sharp dip), not information.
    RANGE_CLAMP_FACTOR = 2.0

    def __init__(
        self,
        factory: PredictorFactory,
        config: LsoConfig | None = None,
        harden: bool = True,
    ) -> None:
        self._factory = factory
        self._config = config or LsoConfig()
        self.harden = harden
        self._base = factory()
        self.name = f"{self._base.name}-LSO"
        self._lso = LsoKernel(self._config)
        self._fed = 0  # length of the clean-history prefix fed to _base
        self._ready = self._base.ready

    @property
    def min_history(self) -> int:
        return self._base.min_history

    @property
    def n_observed(self) -> int:
        return self._lso.count

    @property
    def ready(self) -> bool:
        return self._ready

    @property
    def n_level_shifts(self) -> int:
        """Level shifts detected so far (diagnostics)."""
        return self._lso.n_level_shifts

    @property
    def n_outliers(self) -> int:
        """Outliers discarded so far (diagnostics)."""
        return self._lso.n_outliers

    @property
    def clean_history(self) -> tuple[float, ...]:
        """The retained history: post-shift samples, outliers removed."""
        return tuple(self._lso.history)

    def update(self, value: float) -> None:
        outliers, shift = self._lso.add(float(value))
        self._feed(shift is not None or (bool(outliers) and outliers[0] < self._fed))

    def _feed(self, rebuild: bool) -> None:
        """Bring the base predictor up to date with the clean history.

        The newest sample cannot be judged by the outlier rule yet (it
        may be the start of a level shift).  If it deviates from the
        history median beyond the outlier threshold it is *quarantined*:
        kept in the history for future shift/outlier decisions, but not
        fed to the base predictor until the next sample disambiguates
        it.  This keeps one isolated outlier from polluting exactly one
        forecast.
        """
        lso = self._lso
        history = lso.history
        target = len(history)
        if self.harden and target >= 3:
            last = history[-1]
            med = lso.median()
            # relative_difference(last, med), inlined on the per-sample path.
            deviation = (last - med) / med if last >= med else (med - last) / last
            if deviation > self._config.outlier_threshold:
                target -= 1
        fed = self._fed
        if rebuild or target < fed:
            self._base = self._factory()
            fed = 0
        base = self._base
        for sample in history[fed:target]:
            base.update(sample)
        self._fed = target
        self._ready = base.ready

    def forecast(self) -> float:
        if not self._ready:
            raise PredictionError(
                f"{self.name} needs {self.min_history} clean observations, "
                f"has {len(self._lso.history)}"
            )
        raw = self._base.forecast()
        if not self.harden:
            return raw
        # min(max(raw, low), high), branch for branch.
        ordered = self._lso.ordered
        low = ordered[0] / self.RANGE_CLAMP_FACTOR
        if raw < low:
            return low
        high = ordered[-1] * self.RANGE_CLAMP_FACTOR
        return high if raw > high else raw

    def reset(self) -> None:
        self._lso.reset()
        self._base = self._factory()
        self._fed = 0
        self._ready = self._base.ready

    def state_dict(self) -> dict:
        return self._lso.state_dict()

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict`, validated by the LSO kernel.

        The base predictor is a pure function of the clean history, so
        rebuilding it restores the wrapper bit-for-bit.

        Raises:
            DataError: for a state the kernel rejects; the predictor is
                left unchanged.
        """
        self._lso.load_state(state)
        self._feed(rebuild=True)
