"""Level-Shift and Outlier detection heuristics (paper Section 5.2).

Given the history ``{X_1, ..., X_n}`` of past measurements since the last
detected level shift (outliers already excluded), the paper declares
``X_k`` an *increasing* (resp. decreasing) **level shift** when:

1. all of ``{X_1, ..., X_{k-1}}`` are lower (higher) than all of
   ``{X_k, ..., X_n}``,
2. the median of the prefix differs from the median of the suffix by more
   than a relative difference ``chi`` (the paper's ``γ``/``χ``,
   default 0.3), and
3. ``k + 2 <= n`` — at least three samples after the shift, so a lone
   outlier is not mistaken for a shift.

A measurement ``X_k`` with ``k < n`` is an **outlier** when it differs
from the median of ``{X_1, ..., X_n}`` by more than a relative difference
``psi`` (default 0.4).  The most recent sample is never judged an outlier
(it may be the start of a level shift instead).

Relative difference between ``a`` and ``b`` is measured as
``|a - b| / min(a, b)`` — symmetric, consistent with the paper's error
metric (Eq. 4).  Throughputs are positive so the denominator is safe.

The two heuristics form one online algorithm, :class:`LsoKernel`: each
new sample is appended to the clean history, the outliers it exposes are
discarded, and a level shift truncates the history to its post-shift
part.  Every LSO consumer runs this kernel —
:class:`~repro.hb.wrappers.LsoPredictor` (offline evaluation and online
serving alike) and :func:`~repro.hb.evaluate.lso_segmentation`.  The
detectors are array scans over the whole history, but the kernel calls
one only when a cheap precheck on a sorted mirror of the history says
it could succeed:

*Outliers*: a sample's relative difference from the median is largest
at the extremes, and the newest sample is never judged, so when neither
extreme of the other samples deviates beyond ``psi``,
:func:`detect_outliers` would return nothing.

*Level shifts*: a split ``k`` in ``[2, n-3]`` keeps the first two
samples in the prefix and the last three in the suffix, so full
separation requires ``max(first two) < min(last three)`` (a rising
shift) or the mirror image (a falling one).  A rising shift's prefix is
then exactly the ``k`` smallest samples, so ``k`` lies between the rank
of the larger of the first two and the rank of the smallest of the last
three.  The prefix median is smallest, and the suffix median largest,
at the ends of that range; when even those two medians differ by at
most ``chi``, no split can pass condition 2.  A falling shift is the
same argument with the suffix as the lower part.  Float rounding keeps
every one of these orderings, so the bound is safe bit for bit.

A sample that triggers neither precheck costs O(log n).  Skipped calls
are calls that would have found nothing, so detections — and the
``hb.outliers_discarded`` / ``hb.level_shifts`` counters the detectors
bump — are exactly those of running both detectors on every sample.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from statistics import median
from typing import Any, Sequence

import numpy as np

from repro.core.errors import DataError
from repro.obs import get_telemetry

#: The paper's empirically chosen defaults (Section 5.3).
DEFAULT_LEVEL_SHIFT_THRESHOLD = 0.3
DEFAULT_OUTLIER_THRESHOLD = 0.4


@dataclass(frozen=True)
class LsoConfig:
    """Thresholds of the LSO heuristics.

    Attributes:
        level_shift_threshold: the paper's ``χ`` — minimum relative
            difference between prefix and suffix medians for a shift.
        outlier_threshold: the paper's ``ψ`` — minimum relative
            difference from the history median for an outlier.
    """

    level_shift_threshold: float = DEFAULT_LEVEL_SHIFT_THRESHOLD
    outlier_threshold: float = DEFAULT_OUTLIER_THRESHOLD

    def __post_init__(self) -> None:
        if self.level_shift_threshold <= 0:
            raise ValueError(
                f"level_shift_threshold must be positive, "
                f"got {self.level_shift_threshold}"
            )
        if self.outlier_threshold <= 0:
            raise ValueError(
                f"outlier_threshold must be positive, got {self.outlier_threshold}"
            )


def relative_difference(a: float, b: float) -> float:
    """Symmetric relative difference ``|a - b| / min(a, b)``.

    Defined for positive values (TCP throughputs).  This is a pure math
    helper, so it raises a plain :class:`ValueError`; the detection
    entry points validate their inputs up front and raise the
    package-typed :class:`~repro.core.errors.DataError` instead, so a
    zero-throughput outage epoch can never escape them as a bare
    ``ValueError``.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"relative difference needs positive values, got {a}, {b}")
    return abs(a - b) / min(a, b)


def _median(ordered: list[float], start: int, stop: int) -> float:
    """Median of ``ordered[start:stop]`` (sorted), as ``statistics.median``."""
    mid = (start + stop) >> 1
    if (stop - start) & 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def first_invalid_sample(values: np.ndarray) -> int | None:
    """Index of the first sample that is not a positive finite number.

    ``None`` when every sample is valid.  NaN fails both comparisons,
    so it is caught along with zeros, negatives and infinities.
    """
    valid = (values > 0) & (values < math.inf)
    if valid.all():
        return None
    return int(np.argmin(valid))


def _history_array(history: Sequence[float]) -> np.ndarray:
    """``history`` as a float array, rejecting invalid samples."""
    arr = np.asarray(history, dtype=float)
    k = first_invalid_sample(arr)
    if k is not None:
        raise DataError(
            f"throughput history must be positive and finite; sample {k} is "
            f"{float(arr[k])!r} (a zero/outage epoch or a broken probe — "
            "discard or flag it before detection)"
        )
    return arr


def detect_outliers(
    history: Sequence[float], config: LsoConfig | None = None
) -> list[int]:
    """Indices of outliers in ``history`` per the paper's rule.

    Only interior samples (``k < n``, zero-based ``k < len - 1``) can be
    outliers.  Returns indices into ``history``, ascending.

    Implementation note: an outlier must be an *isolated* deviation.  A
    deviating sample whose successor also deviates from the median in the
    same direction is left in place — it may be the beginning of a level
    shift, which the level-shift rule (not the outlier rule) must judge
    once three post-shift samples exist.  Without this guard, a level
    shift larger than the outlier threshold ``ψ`` would have its samples
    discarded one by one as each became interior, and the shift could
    never be detected.

    Raises:
        DataError: when the history contains a non-positive or
            non-finite sample — a zero-throughput (outage) epoch must be
            rejected or flagged by the caller before it reaches the
            relative-difference metric.
    """
    arr = _history_array(history)
    if len(arr) < 2:
        return []
    return _scan_outliers(arr, median(arr.tolist()), config or LsoConfig())


def _scan_outliers(arr: np.ndarray, med: float, config: LsoConfig) -> list[int]:
    """:func:`detect_outliers` over a validated array with its median."""
    # |x - med| / min(x, med), elementwise: relative_difference's operations.
    deviating = np.abs(arr - med) / np.minimum(arr, med) > config.outlier_threshold
    if not deviating[:-1].any():
        return []
    above = arr > med
    same_direction_run = deviating[1:] & (above[:-1] == above[1:])
    outliers = np.flatnonzero(deviating[:-1] & ~same_direction_run).tolist()
    if outliers:
        # Callers discard detected outliers from their history at once,
        # so each outlier is counted exactly once.
        get_telemetry().counter("hb.outliers_discarded").inc(len(outliers))
    return outliers


def detect_level_shift(
    history: Sequence[float], config: LsoConfig | None = None
) -> int | None:
    """Index ``k`` of a detected level shift in ``history``, or ``None``.

    ``history`` must already have outliers removed (the caller's job —
    :class:`LsoKernel` maintains that invariant).  When several indices
    satisfy the conditions, the one with the widest separation gap
    between prefix and suffix values is returned: that split lands on
    the true boundary rather than one sample early or late.

    Raises:
        DataError: when the history contains a non-positive or
            non-finite sample.
    """
    return _scan_level_shift(_history_array(history), config or LsoConfig())


def _scan_level_shift(arr: np.ndarray, config: LsoConfig) -> int | None:
    """:func:`detect_level_shift` over a validated array."""
    n = len(arr)
    # Condition 3 requires k + 2 <= n (one-based k): at least three
    # post-shift samples.  We additionally require two pre-shift samples
    # — with a single one, any unusually low/high first measurement after
    # a restart re-triggers the detector on plain noise, shredding the
    # history into spurious "regimes".  Minimum history: n >= 5.
    if n < 5:
        return None
    # The first sample is in every prefix and the last in every suffix,
    # so only the direction from first to last can separate; a falling
    # shift of the history is a rising shift of its negation, with the
    # same gaps.
    signed = arr if arr[-1] > arr[0] else -arr
    # Running prefix maxima and suffix minima test full separation at
    # every split at once; medians (the expensive part) are then only
    # taken for the handful of splits that actually separate.
    prefix_max = np.maximum.accumulate(signed)
    suffix_min = np.minimum.accumulate(signed[::-1])[::-1]
    # Zero-based k ranges over 2 .. n-3 (one-based 3 .. n-2).
    gaps = suffix_min[2 : n - 2] - prefix_max[1 : n - 3]
    candidates = np.flatnonzero(gaps > 0)
    if candidates.size == 0:
        return None
    values = arr.tolist()
    best_k: int | None = None
    best_gap = 0.0
    for c in candidates.tolist():
        k = c + 2
        gap = float(gaps[c])
        med_prefix = median(values[:k])
        med_suffix = median(values[k:])
        if relative_difference(med_prefix, med_suffix) <= config.level_shift_threshold:
            continue
        # Ties go to the later split: the suffix is then the purest
        # post-shift history to restart from.
        if best_k is None or gap > best_gap or (gap == best_gap and k > best_k):
            best_gap = gap
            best_k = k
    if best_k is not None:
        get_telemetry().counter("hb.level_shifts").inc()
    return best_k


class LsoKernel:
    """The LSO heuristics as one online algorithm over a clean history.

    Attributes:
        config: the thresholds.
        history: the clean history — samples since the last level
            shift, outliers removed, oldest first.
        ordered: ``history`` sorted (medians and extremes in O(1)).
        count: samples added since the last reset, outliers included.
        n_outliers: samples discarded as outliers since the last reset.
        n_level_shifts: level shifts detected since the last reset.
    """

    __slots__ = (
        "config",
        "history",
        "ordered",
        "count",
        "n_outliers",
        "n_level_shifts",
    )

    def __init__(self, config: LsoConfig | None = None) -> None:
        self.config = config or LsoConfig()
        self.reset()

    def reset(self) -> None:
        """Forget every sample and detection."""
        self.history: list[float] = []
        self.ordered: list[float] = []
        self.count = 0
        self.n_outliers = 0
        self.n_level_shifts = 0

    def median(self) -> float:
        """Median of the clean history (the value ``statistics.median`` gives)."""
        return _median(self.ordered, 0, len(self.ordered))

    def add(self, value: float) -> tuple[list[int], int | None]:
        """Append one sample, then discard outliers and apply a level shift.

        Returns:
            ``(outliers, shift)``: the positions of the samples discarded
            as outliers, ascending, in the history as it stood with
            ``value`` appended; and the position in the history after
            that removal at which a level shift truncated it (the first
            post-shift sample), or ``None``.

        Raises:
            DataError: for a non-positive or non-finite sample; the
                kernel is left unchanged.
        """
        if not 0.0 < value < math.inf:
            raise DataError(
                f"throughput observations must be positive and finite, got "
                f"{value} (a zero/outage epoch — discard or flag it before ingest)"
            )
        self.count += 1
        config = self.config
        history = self.history
        ordered = self.ordered
        history.append(value)
        insort(ordered, value)

        # Each detector gets the history as an array only when its
        # precheck fires; every sample in it was validated on the way in.
        outliers: list[int] = []
        if len(history) >= 2:
            med = _median(ordered, 0, len(ordered))
            if self._outlier_possible(med):
                outliers = _scan_outliers(np.array(history, dtype=float), med, config)
                if outliers:
                    self.n_outliers += len(outliers)
                    for k in reversed(outliers):
                        del ordered[bisect_left(ordered, history.pop(k))]

        shift = None
        if len(history) >= 5 and self._shift_possible():
            shift = _scan_level_shift(np.array(history, dtype=float), config)
            if shift is not None:
                self.n_level_shifts += 1
                del history[:shift]
                self.ordered = sorted(history)
        return outliers, shift

    def _outlier_possible(self, med: float) -> bool:
        """The outlier precheck (see the module docstring)."""
        ordered = self.ordered
        newest = self.history[-1]
        lo = ordered[1] if ordered[0] == newest else ordered[0]
        hi = ordered[-2] if ordered[-1] == newest else ordered[-1]
        psi = self.config.outlier_threshold
        # relative_difference(lo, med) and (hi, med), where lo <= med <= hi;
        # with two samples the one left is on the other side, and the
        # other comparison covers it.
        return (med - lo) / lo > psi or (hi - med) / med > psi

    def _shift_possible(self) -> bool:
        """The level-shift precheck (see the module docstring)."""
        history = self.history
        ordered = self.ordered
        a, b = history[0], history[1]
        x, y, z = history[-3], history[-2], history[-1]
        if max(a, b) < min(x, y, z):
            # Rising: the prefix is ordered[:k], lower <= k <= upper.
            lower = max(2, bisect_left(ordered, a) + 1, bisect_left(ordered, b) + 1)
            upper = min(
                bisect_left(ordered, x), bisect_left(ordered, y), bisect_left(ordered, z)
            )
        elif min(a, b) > max(x, y, z):
            # Falling: the suffix is ordered[:j], j = n - k, lower <= j <= upper.
            lower = max(
                bisect_right(ordered, x), bisect_right(ordered, y), bisect_right(ordered, z)
            )
            upper = min(bisect_left(ordered, a), bisect_left(ordered, b))
        else:
            return False
        # Bounds on the lower part's median from below and the upper
        # part's from above; relative_difference of two such medians is
        # at most this.
        low = _median(ordered, 0, lower)
        high = _median(ordered, upper, len(ordered))
        return (high - low) / low > self.config.level_shift_threshold

    def state_dict(self) -> dict[str, Any]:
        """The kernel's state as a JSON-serializable dict."""
        return {
            "history": list(self.history),
            "count": self.count,
            "n_level_shifts": self.n_level_shifts,
            "n_outliers": self.n_outliers,
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore a :meth:`state_dict`, checking it first.

        A snapshot can hold what :meth:`add` refuses (a hand-edited or
        corrupted file), so every history sample must be positive and
        finite, and the counters non-negative with ``count`` covering
        the history.

        Raises:
            DataError: naming the offending field or history index; the
                kernel is left unchanged.
        """
        try:
            history = [float(v) for v in state["history"]]
            counters = {
                name: int(state[name])
                for name in ("count", "n_level_shifts", "n_outliers")
            }
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"malformed LSO state: {exc!r}") from exc
        for k, value in enumerate(history):
            if not 0.0 < value < math.inf:
                raise DataError(
                    f"LSO state history sample {k} is {value!r}; samples "
                    "must be positive and finite"
                )
        for name, number in counters.items():
            if number < 0:
                raise DataError(f"LSO state {name} is {number}; must be >= 0")
        if counters["count"] < len(history):
            raise DataError(
                f"LSO state count {counters['count']} is below its history "
                f"length {len(history)}"
            )
        self.history = history
        self.ordered = sorted(history)
        self.count = counters["count"]
        self.n_level_shifts = counters["n_level_shifts"]
        self.n_outliers = counters["n_outliers"]
