"""The process-wide telemetry pipe: metrics + structured events.

One :class:`Telemetry` instance per process (module singleton, reachable
via :func:`get_telemetry`) collects everything instrumentation sites
produce:

* **metrics** — a :class:`~repro.obs.metrics.MetricsRegistry` of
  counters/gauges/timers;
* **events** — an in-memory buffer of structured dicts, later written
  as JSONL by the run recorder;
* **context** — run-scoped fields (run id, seed, catalog hash) stamped
  onto every event emitted while set.

Telemetry is **on by default** and disabled by setting the environment
variable ``REPRO_OBS=0``.  The enabled check is a live environment
lookup, so tests can flip it with ``monkeypatch.setenv`` and worker
processes inherit the setting from their parent.  When disabled, every
entry point degrades to a shared no-op object or an early return — no
timestamps are taken and nothing is buffered.

Campaign workers call :meth:`Telemetry.drain` at the end of a job and
ship the snapshot back to the parent, which :meth:`Telemetry.merge`\\ s
it — so a parallel campaign's telemetry equals the serial one's.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Any

from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_TIMER,
    Counter,
    Gauge,
    MetricsRegistry,
    Timer,
)

__all__ = [
    "ENV_OBS",
    "Telemetry",
    "PhaseClock",
    "get_telemetry",
    "obs_enabled",
]

#: Environment variable gating telemetry collection ("0" disables).
ENV_OBS = "REPRO_OBS"


try:
    # Fast path: probe the mapping behind os.environ with a pre-encoded
    # key.  os.environ.get() pays key encoding plus an internal KeyError
    # (~1 us when the variable is unset), and obs_enabled() runs behind
    # every instrument lookup, several times per served request (held
    # to the 10k req/s floor) and per packet-level epoch — a plain dict
    # .get() keeps the check off those hot paths.  Writes through
    # os.environ (including monkeypatch.setenv) mutate this same dict,
    # so the check stays live.
    _ENV_DATA: Any = os.environ._data
    _ENV_KEY: Any = os.environ.encodekey(ENV_OBS)
except AttributeError:  # pragma: no cover - non-CPython fallback
    _ENV_DATA = None
    _ENV_KEY = None

_OFF_VALUES = (b"0", "0")  # bytes on posix, str on windows


def obs_enabled() -> bool:
    """Whether telemetry collection is on (``REPRO_OBS != "0"``)."""
    if _ENV_DATA is not None:
        return _ENV_DATA.get(_ENV_KEY) not in _OFF_VALUES
    return os.environ.get(ENV_OBS, "1") != "0"


class PhaseClock:
    """Accumulates wall-clock laps into named phases.

    The simulators use one clock per measured run — a whole trace for
    the fluid engine, one epoch for the packet-level runner::

        clock = telemetry.phase_clock()
        ... pre-transfer probing ...
        clock.lap("ping")
        ... the transfer ...
        clock.lap("iperf")
        telemetry.record_phases("packet_epoch", clock.phases, path=...)

    Repeated laps into the same phase accumulate.  A disabled clock
    (handed out by a disabled :class:`Telemetry`) never reads the
    clock and reports no phases.
    """

    __slots__ = ("enabled", "phases", "_last")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.phases: dict[str, float] = {}
        self._last = perf_counter() if enabled else 0.0

    def lap(self, phase: str, _clock=perf_counter) -> None:
        """Attribute the time since the previous lap to ``phase``."""
        if not self.enabled:
            return
        now = _clock()
        phases = self.phases
        phases[phase] = phases.get(phase, 0.0) + (now - self._last)
        self._last = now

    @property
    def total_s(self) -> float:
        """Total seconds attributed so far."""
        return sum(self.phases.values())


class Telemetry:
    """Per-process collector of metrics, events, and run context."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.events: list[dict[str, Any]] = []
        self.context: dict[str, Any] = {}
        #: span events buffered since the last drain/reset, checked
        #: against REPRO_TRACE_MAX_SPANS by repro.obs.spans.
        self.span_events = 0

    @property
    def enabled(self) -> bool:
        return obs_enabled()

    # -- instruments ---------------------------------------------------

    def counter(self, name: str, **tags: str) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        return self.metrics.counter(name, **tags)

    def gauge(self, name: str, **tags: str) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        return self.metrics.gauge(name, **tags)

    def timer(self, name: str, **tags: str) -> Timer:
        if not self.enabled:
            return NULL_TIMER
        return self.metrics.timer(name, **tags)

    def phase_clock(self) -> PhaseClock:
        return PhaseClock(obs_enabled())

    def span(self, name: str, sample_key: str | None = None, **tags: Any):
        """Open a tracing span (see :mod:`repro.obs.spans`).

        Use as a context manager; on exit the completed span is
        buffered as a ``kind: "span"`` event.  Spans opened while this
        one is active become its children (thread- and task-local via
        :mod:`contextvars`).  ``sample_key`` makes the span subject to
        ``REPRO_TRACE_SAMPLE``; disabled telemetry returns a shared
        no-op span.
        """
        from repro.obs.spans import start_span

        return start_span(self, name, sample_key, **tags)

    # -- events --------------------------------------------------------

    def emit(self, kind: str, **fields: Any) -> None:
        """Buffer one structured event (a JSONL line in the manifest).

        The current context fields are stamped first, so an event field
        with the same name wins over the context.
        """
        if not self.enabled:
            return
        event = {"kind": kind, **self.context, **fields}
        self.events.append(event)

    def set_context(self, **fields: Any) -> None:
        """Set run-scoped fields stamped onto every subsequent event."""
        self.context.update(fields)

    def clear_context(self) -> None:
        self.context.clear()

    # -- simulated epochs ----------------------------------------------

    def record_phases(
        self,
        kind: str,
        phases: dict[str, float],
        n_epochs: int = 1,
        **fields: Any,
    ) -> None:
        """Record one timed run of ``n_epochs`` simulated epochs.

        Each phase adds one sample, the per-epoch mean
        ``total / n_epochs``, to ``epoch.phase_s{phase=…}``; their sum
        adds one to ``epoch.wall_s``; ``epochs.simulated`` grows by
        ``n_epochs``.  One ``kind`` event is buffered holding
        ``fields``, each phase total as ``<phase>_s`` and the run's
        total as ``elapsed_s``.

        Args:
            kind: event kind ("trace" for one fluid trace,
                "packet_epoch" for one packet-level epoch).
            phases: per-phase wall seconds of the whole run (a
                :attr:`PhaseClock.phases` dict).
            n_epochs: how many epochs the phases cover.
            fields: event fields (identity, regime counts, drops, ...).
        """
        if not obs_enabled():
            return
        metrics = self.metrics
        event = {"kind": kind, **self.context, **fields}
        elapsed = 0.0
        for phase, seconds in phases.items():
            timer = metrics.timer("epoch.phase_s", phase=phase)
            timer.observe(seconds / n_epochs)
            event[phase + "_s"] = seconds
            elapsed += seconds
        metrics.timer("epoch.wall_s").observe(elapsed / n_epochs)
        metrics.counter("epochs.simulated").inc(n_epochs)
        event["elapsed_s"] = elapsed
        self.events.append(event)

    # -- snapshot / merge ----------------------------------------------

    def drain(self) -> dict[str, Any]:
        """Snapshot everything collected so far and reset to empty.

        The returned dict is picklable and JSON-able; feed it to
        :meth:`merge` in another process (or the same one) to restore.
        """
        snapshot = self.metrics.snapshot()
        snapshot["events"] = self.events
        snapshot["span_events"] = self.span_events
        self.metrics = MetricsRegistry()
        self.events = []
        self.span_events = 0
        return snapshot

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold a drained snapshot into this collector."""
        self.metrics.merge(snapshot)
        self.events.extend(snapshot.get("events", ()))
        self.span_events += snapshot.get("span_events", 0)

    def reset(self) -> None:
        """Drop all collected data and context.

        As :meth:`drain` does, installs a fresh registry, so a caller
        that caches instruments per registry identity reads new ones.
        """
        self.metrics = MetricsRegistry()
        self.events = []
        self.context = {}
        self.span_events = 0


_TELEMETRY = Telemetry()


def get_telemetry() -> Telemetry:
    """The process-wide :class:`Telemetry` singleton."""
    return _TELEMETRY
