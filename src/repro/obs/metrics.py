"""The metrics registry: counters, gauges, and timers with tags.

Instrumentation sites across the package ask the registry for a named
instrument (optionally qualified by string tags, e.g. ``phase="iperf"``)
and update it; the registry aggregates everything in-process and renders
a plain-dict snapshot for the run manifest.

Design constraints, in order:

1. **Zero hot-path overhead when disabled.**  A disabled registry hands
   out shared null instruments whose methods do nothing, so callers
   never need an ``if telemetry:`` guard of their own.
2. **Mergeable.**  Campaign traces may run in worker processes; each
   worker snapshots its registry and the parent merges the snapshots,
   so telemetry is identical for every worker count (up to sample
   order, which the percentile math does not observe).
3. **Deterministic export.**  Snapshots list series sorted by
   ``(name, tags)`` so manifests diff cleanly.

Percentiles use the nearest-rank method on the raw samples: for a
sorted sample of size ``n``, the ``q``-percentile is the value at
(1-based) rank ``ceil(q / 100 * n)``.  Timers keep raw samples up to
:data:`TIMER_MAX_SAMPLES` per series — quantiles are **exact** below
the cap (a full-scale campaign observes a few hundred thousand floats
spread over many series, well within it).  Beyond the cap the buffer
becomes a ring over the most recent observations (oldest overwritten,
``dropped`` counted), so a long-running ``repro-serve`` process holds
bounded memory and its quantiles approximate the *recent* distribution
rather than the whole process lifetime.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_TIMER",
    "SampleBuffer",
    "TIMER_MAX_SAMPLES",
    "nearest_rank",
    "percentile",
]

#: Per-series cap on retained timer samples (see :class:`SampleBuffer`).
TIMER_MAX_SAMPLES = 65536


def percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-percentile of an ascending-sorted sample.

    Args:
        sorted_samples: the sample, sorted ascending, non-empty.
        q: percentile in [0, 100].

    Raises:
        ValueError: for an empty sample, ``q`` outside [0, 100], or a
            sample that is not sorted ascending (nearest-rank indexing
            silently returns garbage on unsorted input).
    """
    if not sorted_samples:
        raise ValueError("percentile undefined for an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if any(
        sorted_samples[i] > sorted_samples[i + 1]
        for i in range(len(sorted_samples) - 1)
    ):
        raise ValueError("percentile requires an ascending-sorted sample")
    return nearest_rank(sorted_samples, q)


def nearest_rank(sorted_samples: list[float], q: float) -> float:
    """:func:`percentile` without its checks, for a caller whose sample is
    non-empty and sorted by construction (an ``insort`` mirror), where
    re-checking the order would cost a pass over it on every read."""
    if q == 0.0:
        return sorted_samples[0]
    rank = math.ceil(q / 100.0 * len(sorted_samples))
    return sorted_samples[rank - 1]


def _tags_key(tags: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(tags.items()))


class Counter:
    """A monotonically increasing count (events, cache hits, drops)."""

    __slots__ = ("name", "tags", "value")

    def __init__(self, name: str, tags: dict[str, str]) -> None:
        self.name = name
        self.tags = tags
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the count."""
        self.value += n


class Gauge:
    """A point-in-time value (traces done, queue depth)."""

    __slots__ = ("name", "tags", "value")

    def __init__(self, name: str, tags: dict[str, str]) -> None:
        self.name = name
        self.tags = tags
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with the latest observation."""
        self.value = float(value)


class SampleBuffer(list):
    """A ``list`` that becomes a ring once ``maxlen`` samples are held.

    Hot paths append to ``Timer.samples`` directly (and tests compare it
    to plain lists), so the bound is implemented as a list subclass
    rather than a ``deque``: below ``maxlen`` it *is* an ordinary list
    and quantiles over it are exact; at capacity, :meth:`append`
    overwrites the oldest retained sample in place (``dropped`` counts
    the overwrites), keeping the most recent ``maxlen`` observations.
    Order is not chronological once wrapped — the percentile math sorts
    and never observes order.
    """

    __slots__ = ("maxlen", "dropped", "_cursor")

    def __init__(
        self, values: Iterable[float] = (), maxlen: int = TIMER_MAX_SAMPLES
    ) -> None:
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        super().__init__()
        self.maxlen = maxlen
        self.dropped = 0
        self._cursor = 0
        self.extend(values)

    def append(self, value: float) -> None:
        if list.__len__(self) < self.maxlen:
            list.append(self, value)
        else:
            self[self._cursor] = value
            self._cursor += 1
            if self._cursor == self.maxlen:
                self._cursor = 0
            self.dropped += 1

    def extend(self, values: Iterable[float]) -> None:
        if not isinstance(values, (list, tuple)):
            values = list(values)
        # Bulk-extend whatever fits below capacity; only samples that
        # would wrap the ring go through the overwrite path.
        room = self.maxlen - list.__len__(self)
        if room >= len(values):
            list.extend(self, values)
            return
        if room > 0:
            list.extend(self, values[:room])
            values = values[room:]
        for value in values:
            self.append(value)


class Timer:
    """A duration histogram with exact p50/p95/p99.

    Usable either directly (``timer.observe(seconds)``) or as a context
    manager timing its ``with`` block.  Retains at most
    :data:`TIMER_MAX_SAMPLES` samples (see :class:`SampleBuffer`).
    """

    __slots__ = ("name", "tags", "samples", "_entered_at")

    def __init__(self, name: str, tags: dict[str, str]) -> None:
        self.name = name
        self.tags = tags
        self.samples: list[float] = SampleBuffer()
        self._entered_at = 0.0

    def observe(self, seconds: float) -> None:
        """Record one duration sample, in seconds."""
        self.samples.append(float(seconds))

    def __enter__(self) -> "Timer":
        from time import perf_counter

        self._entered_at = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        from time import perf_counter

        self.observe(perf_counter() - self._entered_at)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return float(sum(self.samples))

    def quantile(self, q: float) -> float:
        """Nearest-rank ``q``-percentile (``q`` in [0, 100]) of the samples."""
        return percentile(sorted(self.samples), q)

    def stats(self) -> dict[str, float]:
        """count/sum/min/max/p50/p95/p99 as a plain dict (zeros if empty)."""
        if not self.samples:
            return {
                "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }
        ordered = sorted(self.samples)
        return {
            "count": len(ordered),
            "sum": float(sum(ordered)),
            "min": ordered[0],
            "max": ordered[-1],
            "p50": percentile(ordered, 50.0),
            "p95": percentile(ordered, 95.0),
            "p99": percentile(ordered, 99.0),
        }


class _NullCounter(Counter):
    """Shared do-nothing counter handed out by a disabled registry."""

    def __init__(self) -> None:
        super().__init__("null", {})

    def inc(self, n: int = 1) -> None:  # noqa: D102 - intentionally empty
        pass


class _NullGauge(Gauge):
    def __init__(self) -> None:
        super().__init__("null", {})

    def set(self, value: float) -> None:
        pass


class _NullTimer(Timer):
    def __init__(self) -> None:
        super().__init__("null", {})

    def observe(self, seconds: float) -> None:
        pass

    def __enter__(self) -> "Timer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_TIMER = _NullTimer()


class MetricsRegistry:
    """Get-or-create home of every instrument in one process.

    A series is identified by ``(name, tags)``: asking twice with the
    same identity returns the same object, so instrumentation sites do
    not need to hold references across calls.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._timers: dict[tuple, Timer] = {}

    # -- get-or-create -------------------------------------------------

    def counter(self, name: str, **tags: str) -> Counter:
        key = (name, _tags_key(tags))
        series = self._counters.get(key)
        if series is None:
            series = self._counters[key] = Counter(name, tags)
        return series

    def gauge(self, name: str, **tags: str) -> Gauge:
        key = (name, _tags_key(tags))
        series = self._gauges.get(key)
        if series is None:
            series = self._gauges[key] = Gauge(name, tags)
        return series

    def timer(self, name: str, **tags: str) -> Timer:
        key = (name, _tags_key(tags))
        series = self._timers.get(key)
        if series is None:
            series = self._timers[key] = Timer(name, tags)
        return series

    def discard_gauges(self, name: str, **tags: str) -> int:
        """Drop every gauge of ``name`` whose tags include ``tags``.

        Used when the owner of a tagged gauge family (e.g. a per-path
        quality series) goes away, so ``/metrics`` does not accumulate
        stale series forever.  Returns the number removed.
        """
        required = set(tags.items())
        doomed = [
            key
            for key, gauge in self._gauges.items()
            if gauge.name == name and required <= set(gauge.tags.items())
        ]
        for key in doomed:
            del self._gauges[key]
        return len(doomed)

    # -- export / merge ------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Render all series as a plain (picklable, JSON-able) dict.

        Timers export their raw samples so a parent process can merge
        worker snapshots without losing quantile exactness.
        """
        return {
            "counters": [
                {"name": c.name, "tags": dict(c.tags), "value": c.value}
                for _, c in sorted(self._counters.items())
            ],
            "gauges": [
                {"name": g.name, "tags": dict(g.tags), "value": g.value}
                for _, g in sorted(self._gauges.items())
            ],
            "timers": [
                {"name": t.name, "tags": dict(t.tags), "samples": list(t.samples)}
                for _, t in sorted(self._timers.items())
            ],
        }

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (typically from a worker) into this
        registry: counters add, gauges take the snapshot's value, timers
        extend their samples."""
        for entry in snapshot.get("counters", ()):
            self.counter(entry["name"], **entry["tags"]).inc(entry["value"])
        for entry in snapshot.get("gauges", ()):
            self.gauge(entry["name"], **entry["tags"]).set(entry["value"])
        for entry in snapshot.get("timers", ()):
            self.timer(entry["name"], **entry["tags"]).samples.extend(
                entry["samples"]
            )

    def reset(self) -> None:
        """Drop every series (a new run starts clean)."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()

    def is_empty(self) -> bool:
        return not (self._counters or self._gauges or self._timers)
