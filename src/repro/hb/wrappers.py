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
so one kernel can drive many wrappers with equal thresholds and equal
kernel state.  A :class:`KernelGroup` is such a kernel and the wrappers
that follow it; :meth:`KernelGroup.add` is the per-sample step: the
kernel takes the sample once, the quarantine decision
(:func:`feed_target`) is made once per ``harden`` setting, and every
follower catches up.  A follower cannot update itself, since that would
add the sample to the shared kernel twice.

The same wrapper and step serve the offline walk-forward evaluation
(:func:`~repro.hb.vector_eval.vector_walk` feeds one group per LSO
config of a trace) and online serving (a
:class:`~repro.hb.streaming.StreamingPredictorState` drives a group of
one, and a :class:`~repro.hb.streaming.PathBundle` one group per
distinct kernel of a path), at O(1) amortised cost per observation.
"""

from __future__ import annotations

from collections.abc import Callable

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
        self._following = False  # _lso belongs to a KernelGroup
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

    @property
    def kernel(self) -> LsoKernel:
        """The LSO kernel this wrapper reads: its own, or the one it follows."""
        return self._lso

    def update(self, value: float) -> None:
        """Absorb one sample into this wrapper's own kernel.

        Raises:
            ValueError: when the wrapper follows a kernel group's kernel;
                the group feeds it (:meth:`KernelGroup.add`).
        """
        if self._following:
            raise ValueError(
                f"{self.name} follows a shared LSO kernel; feed the sample "
                "to its kernel group, not to the predictor"
            )
        lso = self._lso
        outliers, shift = lso.add(float(value))
        self.catch_up(outliers, shift, feed_target(lso, self.harden))

    def can_follow(self, kernel: LsoKernel) -> bool:
        """Whether ``kernel`` has this wrapper's thresholds and kernel state.

        Equal state means an equal clean history and equal counters, so
        the base predictor already holds what following ``kernel``
        implies, and every later forecast is the one a kernel of its own
        would give, bit for bit.
        """
        own = self._lso
        return kernel is own or (
            kernel.config == self._config
            and kernel.count == own.count
            and kernel.n_outliers == own.n_outliers
            and kernel.n_level_shifts == own.n_level_shifts
            and kernel.history == own.history
        )

    def follow(self, kernel: LsoKernel) -> None:
        """Read the clean history of ``kernel``, which the caller drives.

        After this the caller adds each sample to ``kernel`` and passes
        its answer to :meth:`catch_up` (:meth:`KernelGroup.add` does
        both); :meth:`update` and :meth:`load_state` raise, since they
        would change the shared kernel under its other followers.

        Raises:
            ValueError: unless :meth:`can_follow` ``kernel``.
        """
        if not self.can_follow(kernel):
            raise ValueError(
                f"{self.name} can only follow a kernel with its own "
                "thresholds and kernel state"
            )
        self._lso = kernel
        self._following = True

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
        self._following = False
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
            ValueError: when the wrapper follows a kernel group's kernel.
        """
        if self._following:
            raise ValueError(f"{self.name} follows a shared LSO kernel")
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


#: Called with a kernel's answer to each sample, ``(outliers, shift)``.
KernelWatcher = Callable[[list[int], "int | None"], None]


class KernelGroup:
    """One LSO kernel and the wrappers that follow it.

    :meth:`add` is the one per-sample LSO step, shared by the offline
    walk and online serving: the kernel takes the sample once, the
    quarantine decision is made once per ``harden`` setting, every
    follower catches up, and every watcher sees the kernel's answer.
    Each follower then forecasts exactly what it would with a kernel of
    its own, and the kernel's detections — and the ``hb.level_shifts`` /
    ``hb.outliers_discarded`` counters — are those of one kernel.

    Attributes:
        kernel: the shared kernel.
        watchers: callables handed the kernel's answer to every sample.
    """

    __slots__ = ("kernel", "watchers", "_catch_ups")

    def __init__(self, kernel: LsoKernel) -> None:
        self.kernel = kernel
        self.watchers: list[KernelWatcher] = []
        #: (harden setting, the bound catch_up of each follower with it).
        self._catch_ups: list[tuple[bool, list[Callable[..., None]]]] = []

    def join(self, wrapper: LsoPredictor) -> None:
        """Make ``wrapper`` follow this group's kernel.

        Raises:
            ValueError: unless the wrapper can follow the kernel
                (:meth:`LsoPredictor.can_follow`).
        """
        wrapper.follow(self.kernel)
        for harden, catch_ups in self._catch_ups:
            if harden == wrapper.harden:
                catch_ups.append(wrapper.catch_up)
                return
        self._catch_ups.append((wrapper.harden, [wrapper.catch_up]))

    def add(self, value: float) -> None:
        """Feed one sample to the kernel and bring every follower up to date.

        Raises:
            DataError: for a non-positive or non-finite sample; the
                kernel and its followers are left unchanged.
        """
        kernel = self.kernel
        outliers, shift = kernel.add(value)
        for harden, catch_ups in self._catch_ups:
            target = feed_target(kernel, harden)
            for catch_up in catch_ups:
                catch_up(outliers, shift, target)
        for watcher in self.watchers:
            watcher(outliers, shift)
