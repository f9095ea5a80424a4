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

An update is two steps: the kernel takes the sample, then the wrapper
catches up from the kernel's answer (:meth:`LsoPredictor.catch_up`).
The wrapper's forecast depends only on the kernel's clean history, its
answers, and the wrapper's own ``harden`` setting and base predictor,
so one kernel can drive many wrappers with equal thresholds:
:func:`~repro.hb.vector_eval.vector_walk` feeds each sample to one
shared kernel and lets every wrapper following it catch up.

The same wrapper serves the offline walk-forward evaluation
(:func:`~repro.hb.evaluate.evaluate_predictor`) and online serving
(:class:`~repro.hb.streaming.PredictorSpec` builds it, one kernel per
wrapper), at O(1) amortised cost per observation.
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

    @property
    def config(self) -> LsoConfig:
        """The LSO thresholds."""
        return self._config

    def update(self, value: float) -> None:
        lso = self._lso
        outliers, shift = lso.add(float(value))
        self.catch_up(outliers, shift, feed_target(lso, self.harden))

    def follow(self, kernel: LsoKernel) -> None:
        """Read the clean history of ``kernel``, which the caller drives.

        After this the caller adds each sample to ``kernel`` and passes
        its answer to :meth:`catch_up`; :meth:`update` must not be called,
        since it would add the sample to the shared kernel again.

        Raises:
            ValueError: unless this wrapper and ``kernel`` are both fresh
                and the kernel's thresholds equal this wrapper's.
        """
        if self._lso.count or kernel.count or kernel.config != self._config:
            raise ValueError(
                "only a fresh LSO predictor can follow a fresh kernel with "
                "its own thresholds"
            )
        self._lso = kernel

    def catch_up(self, outliers: list[int], shift: int | None, target: int) -> None:
        """Bring the base predictor up to date after the kernel took a sample.

        Args:
            outliers, shift: the kernel's answer to that sample
                (:meth:`~repro.hb.lso.LsoKernel.add`).
            target: :func:`feed_target` of the kernel for this wrapper's
                ``harden`` setting.

        The base is rebuilt from the clean history only when the history
        changed under it: a level shift, an already-fed sample discarded
        as an outlier, or a quarantined tail (see :func:`feed_target`).
        """
        fed = self._fed
        if shift is not None or (outliers and outliers[0] < fed) or target < fed:
            self._base = self._factory()
            fed = 0
        base = self._base
        for sample in self._lso.history[fed:target]:
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
        # A kernel of its own: a shared one has other wrappers following it.
        self._lso = LsoKernel(self._config)
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
        self._base = self._factory()
        self._fed = 0
        self.catch_up([], None, feed_target(self._lso, self.harden))


def feed_target(kernel: LsoKernel, harden: bool) -> int:
    """How much of ``kernel``'s clean history a wrapper feeds its base.

    The newest sample cannot be judged by the outlier rule yet (it may
    be the start of a level shift).  With ``harden``, if it deviates
    from the history median beyond the outlier threshold it is
    *quarantined*: kept in the history for future shift/outlier
    decisions, but not fed to the base predictor until the next sample
    disambiguates it.  This keeps one isolated outlier from polluting
    exactly one forecast.  The decision depends on the kernel and
    ``harden`` only, so wrappers sharing both share it.
    """
    history = kernel.history
    target = len(history)
    if harden and target >= 3:
        last = history[-1]
        med = kernel.median()
        # relative_difference(last, med), inlined on the per-sample path.
        deviation = (last - med) / med if last >= med else (med - last) / last
        if deviation > kernel.config.outlier_threshold:
            target -= 1
    return target
