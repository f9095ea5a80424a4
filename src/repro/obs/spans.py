"""Span-based tracing: one causal timeline over the telemetry stream.

A **span** is a named, tagged interval with an identity — ``trace_id``
(the tree it belongs to), ``span_id`` (itself), ``parent_id`` (the span
it happened inside, ``None`` for a root).  Completed spans are recorded
as ordinary telemetry events (``kind: "span"``) in
:attr:`Telemetry.events`, so they ride the existing machinery end to
end: they survive the executor's per-job ``drain()``/``merge()``
protocol, land in ``*.events.jsonl`` sidecars next to datasets and
serve manifests, and come back out through
:func:`repro.obs.recorder.read_events` for ``repro-obs trace`` to
render (see :mod:`repro.obs.traceview`).

The span tree a campaign produces::

    campaign                       (root, parent process)
      trace {path=p01, trace=0}    (one per (path, trace) unit)
        load / ping / pathload / iperf     (PhaseClock laps; per trace)
      trace {path=p01, trace=1}
        ...

A packet-level epoch run under an open span records an
``epoch {epoch=0}`` span instead, with its phase laps as children.

Context propagates through a :class:`contextvars.ContextVar`, so spans
nest correctly across threads and asyncio tasks.  Worker processes
have no inherited context: their unit spans start as roots of fresh
traces, and :func:`reparent_spans` rewrites them under the dispatching
campaign span at merge time — a parallel campaign yields the *same
tree* as a serial one (``tests/testbed/test_span_parity.py``).

Phase spans are **synthesized from PhaseClock laps** after the fact
(:func:`record_trace_phase_spans` per fluid trace,
:func:`record_epoch_spans` per packet epoch): the engines already lap
a clock, so tracing adds no extra clock reads to the hot path — the
spans' start times are reconstructed by laying the laps end to end
against one ``time.time()`` read.

Cost model:

* ``REPRO_OBS=0`` — :meth:`Telemetry.span` hands out one shared no-op
  object; nothing is allocated, no context is touched.
* ``REPRO_TRACE_SAMPLE`` (default 1.0) — the fraction of keyed traces
  recorded.  The decision is a **deterministic hash** of the sample
  key (``"{path_id}/{trace_index}"`` for campaign units, the
  ``X-Request-Id`` for serve requests), never the campaign RNG, so
  serial and parallel runs sample identically and datasets stay
  byte-identical.  An unsampled span blocks its whole subtree.
* ``REPRO_TRACE_MAX_SPANS`` (default 100000) — per-process cap on
  buffered span events; beyond it spans are dropped and counted
  (``spans.dropped``), so a long-lived serve process cannot grow its
  event buffer without bound.  The live ring (:func:`install_span_ring`,
  the ``GET /trace`` endpoint) keeps seeing fresh spans past the cap.
"""

from __future__ import annotations

import itertools
import os
import uuid
from collections import deque
from contextvars import ContextVar
from hashlib import blake2b
from time import perf_counter, time
from typing import Any

from repro.obs.telemetry import Telemetry, get_telemetry, obs_enabled

__all__ = [
    "ENV_TRACE_SAMPLE",
    "ENV_TRACE_MAX_SPANS",
    "DEFAULT_MAX_SPANS",
    "Span",
    "NULL_SPAN",
    "start_span",
    "current_context",
    "span_context_active",
    "trace_sample_rate",
    "sample_decision",
    "reparent_spans",
    "record_epoch_spans",
    "record_trace_phase_spans",
    "record_request_spans",
    "install_span_ring",
    "span_ring_enabled",
    "span_ring_snapshot",
]

#: Fraction of keyed traces recorded (0.0 .. 1.0; default record all).
ENV_TRACE_SAMPLE = "REPRO_TRACE_SAMPLE"

#: Per-process cap on buffered span events (``spans.dropped`` beyond it).
ENV_TRACE_MAX_SPANS = "REPRO_TRACE_MAX_SPANS"
DEFAULT_MAX_SPANS = 100_000

#: The active (trace_id, span_id) pair, or None outside any span.
_CONTEXT: ContextVar[tuple[str, str] | None] = ContextVar(
    "repro_span_context", default=None
)

#: Sentinel context installed by an unsampled span: the subtree exists
#: causally but records nothing, and children must not attach to the
#: sampled span *above* it.
NOT_SAMPLED: tuple[str, str] = ("", "")

#: Lazily (re)built per process: ``(pid, prefix, counter)``.  Worker
#: pools fork/spawn mid-run, so the prefix must be derived after the
#: fork or two workers would mint colliding span ids.
_ID_STATE: tuple[int, str, Any] | None = None


def _id_state() -> tuple[int, str, Any]:
    """The per-process ``(pid, prefix, counter)`` id-minting state."""
    global _ID_STATE
    pid = os.getpid()
    state = _ID_STATE
    if state is None or state[0] != pid:
        state = _ID_STATE = (pid, uuid.uuid4().hex[:8], itertools.count(1))
    return state


def _new_id() -> str:
    """A process-unique span/trace id (``<8-hex-prefix>-<counter>``)."""
    state = _id_state()
    return f"{state[1]}-{next(state[2]):x}"


# Span synthesis runs these env lookups once per packet-level epoch and
# once per sampled serve request, so they use the same raw-dict probe as
# ``obs_enabled`` plus a last-raw-value parse cache instead of the
# os.environ Mapping layer.
try:
    _ENV_DATA: Any = os.environ._data
    _SAMPLE_KEY: Any = os.environ.encodekey(ENV_TRACE_SAMPLE)
    _CAP_KEY: Any = os.environ.encodekey(ENV_TRACE_MAX_SPANS)
except AttributeError:  # pragma: no cover - non-CPython fallback
    _ENV_DATA = None
    _SAMPLE_KEY = None
    _CAP_KEY = None

_MISSING = object()
_RATE_CACHE: tuple[Any, float] = (_MISSING, 1.0)
_CAP_CACHE: tuple[Any, int] = (_MISSING, DEFAULT_MAX_SPANS)


def trace_sample_rate() -> float:
    """The ``REPRO_TRACE_SAMPLE`` rate, clamped to [0, 1] (default 1)."""
    global _RATE_CACHE
    if _ENV_DATA is not None:
        raw = _ENV_DATA.get(_SAMPLE_KEY)
    else:  # pragma: no cover - non-CPython fallback
        raw = os.environ.get(ENV_TRACE_SAMPLE)
    cached = _RATE_CACHE
    if raw == cached[0]:
        return cached[1]
    if not raw:
        rate = 1.0
    else:
        try:
            rate = min(1.0, max(0.0, float(raw)))
        except ValueError:
            rate = 1.0
    _RATE_CACHE = (raw, rate)
    return rate


def sample_decision(key: str, rate: float) -> bool:
    """Deterministic keep/drop decision for a sample key at ``rate``.

    Hash-based (BLAKE2b of the key), not RNG-based: the same key gets
    the same verdict in every process, so a campaign run serially and
    in parallel traces exactly the same units — and the campaign's
    RNG streams are never touched, keeping datasets byte-identical.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    digest = blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64 < rate


def current_context() -> tuple[str, str] | None:
    """The active ``(trace_id, span_id)``, or None / NOT_SAMPLED."""
    return _CONTEXT.get()


def span_context_active() -> bool:
    """Whether a *sampled* span is currently open in this context."""
    ctx = _CONTEXT.get()
    return ctx is not None and ctx is not NOT_SAMPLED


def max_trace_spans() -> int:
    """The per-process span-event cap (``REPRO_TRACE_MAX_SPANS``)."""
    global _CAP_CACHE
    if _ENV_DATA is not None:
        raw = _ENV_DATA.get(_CAP_KEY)
    else:  # pragma: no cover - non-CPython fallback
        raw = os.environ.get(ENV_TRACE_MAX_SPANS)
    cached = _CAP_CACHE
    if raw == cached[0]:
        return cached[1]
    if not raw:
        cap = DEFAULT_MAX_SPANS
    else:
        try:
            cap = max(0, int(raw))
        except ValueError:
            cap = DEFAULT_MAX_SPANS
    _CAP_CACHE = (raw, cap)
    return cap


class Span:
    """One live span; use as a context manager (``Telemetry.span``).

    Entering installs the span as the ambient context (thread- and
    task-local); exiting restores the previous context and records the
    completed span as a ``kind: "span"`` telemetry event.  A span that
    exits through an exception is recorded with an ``error`` tag — the
    failure is part of the timeline, and whether the event survives is
    the caller's retry protocol's decision (the executor discards a
    failed attempt's drained telemetry, spans included).
    """

    __slots__ = (
        "telemetry",
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "tags",
        "_start_ts",
        "_start_perf",
        "_token",
    )

    def __init__(
        self,
        telemetry: Telemetry,
        name: str,
        trace_id: str,
        parent_id: str | None,
        tags: dict[str, Any],
    ) -> None:
        self.telemetry = telemetry
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.tags = tags
        self._start_ts = 0.0
        self._start_perf = 0.0
        self._token = None

    def annotate(self, **tags: Any) -> None:
        """Attach tags to the eventual span event."""
        self.tags.update(tags)

    def __enter__(self) -> "Span":
        self._token = _CONTEXT.set((self.trace_id, self.span_id))
        self._start_ts = time()
        self._start_perf = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur_s = perf_counter() - self._start_perf
        _CONTEXT.reset(self._token)
        event: dict[str, Any] = {
            "kind": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "ts": round(self._start_ts, 6),
            "dur_s": round(dur_s, 6),
        }
        if self.tags:
            event.update(self.tags)
        if exc_type is not None:
            event.setdefault("error", exc_type.__name__)
        record_span_events(self.telemetry, [event])
        return False


class _NullSpan:
    """Shared no-op span: ``REPRO_OBS=0`` or nested under NOT_SAMPLED."""

    __slots__ = ()
    trace_id = None
    span_id = None
    parent_id = None

    def annotate(self, **tags: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _UnsampledSpan:
    """An unsampled span: records nothing, blocks its whole subtree.

    Installs the :data:`NOT_SAMPLED` sentinel so descendants (epoch
    synthesis, nested ``span()`` calls) see a context that is present
    but not sampled — they must not attach themselves to the sampled
    span above this one.
    """

    __slots__ = ("_token",)
    trace_id = None
    span_id = None
    parent_id = None

    def annotate(self, **tags: Any) -> None:
        pass

    def __enter__(self) -> "_UnsampledSpan":
        self._token = _CONTEXT.set(NOT_SAMPLED)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CONTEXT.reset(self._token)
        return False


def start_span(
    telemetry: Telemetry,
    name: str,
    sample_key: str | None = None,
    **tags: Any,
):
    """Open a span (the engine behind :meth:`Telemetry.span`).

    Args:
        telemetry: the collector to record into.
        name: span name (``"campaign"``, ``"trace"``, phase names...).
        sample_key: stable identity for the sampling decision at
            ``REPRO_TRACE_SAMPLE`` — e.g. ``"{path_id}/{trace_index}"``.
            Keyless spans inherit their parent's fate; a keyless *root*
            is always recorded unless the rate is exactly 0.
        tags: attached to the span event (path, trace, label, ...).
    """
    if not obs_enabled():
        return NULL_SPAN
    ctx = _CONTEXT.get()
    if ctx is NOT_SAMPLED:
        # Inside an unsampled subtree nothing records; no new context
        # is needed, the sentinel already blocks descendants.
        return NULL_SPAN
    rate = trace_sample_rate()
    if sample_key is not None:
        if not sample_decision(sample_key, rate):
            return _UnsampledSpan()
    elif ctx is None and rate <= 0.0:
        return _UnsampledSpan()  # rate 0 is the tracing kill switch
    if ctx is None:
        return Span(telemetry, name, _new_id(), None, tags)
    trace_id, parent_id = ctx
    return Span(telemetry, name, trace_id, parent_id, tags)


# -- recording -----------------------------------------------------------

#: Optional process-wide ring of recent span events (the live ``GET
#: /trace`` endpoint); ``None`` until :func:`install_span_ring`.
_RING: deque | None = None


def install_span_ring(maxlen: int = 4096) -> None:
    """Keep the last ``maxlen`` span events in memory for ``/trace``."""
    global _RING
    _RING = deque(maxlen=maxlen)


def span_ring_enabled() -> bool:
    return _RING is not None


def span_ring_snapshot(limit: int | None = None) -> list[dict[str, Any]]:
    """The ring's current contents, oldest first (bounded by limit)."""
    ring = _RING
    if ring is None:
        return []
    events = list(ring)
    if limit is not None and limit >= 0:
        events = events[-limit:]
    return events


def record_span_events(
    telemetry: Telemetry, events: list[dict[str, Any]]
) -> None:
    """Buffer completed span events, enforcing the span cap.

    The live ring (when installed) always sees the events — a capped
    serve process still serves fresh spans at ``/trace`` — while the
    drained/persisted buffer stops at ``REPRO_TRACE_MAX_SPANS`` with a
    ``spans.dropped`` count of the overflow.
    """
    ring = _RING
    if ring is not None:
        ring.extend(events)
    count = telemetry.span_events
    cap = max_trace_spans()
    n = len(events)
    if count + n > cap:
        allowed = max(0, cap - count)
        telemetry.metrics.counter("spans.dropped").inc(n - allowed)
        if not allowed:
            return
        events = events[:allowed]
        n = allowed
    telemetry.span_events = count + n
    telemetry.events.extend(events)


def reparent_spans(
    events: list[dict[str, Any]], trace_id: str, parent_id: str
) -> None:
    """Attach a worker snapshot's span events under a dispatching span.

    Worker processes have no inherited span context, so their unit
    spans are roots of private traces.  Rewriting — in place, before
    the snapshot is merged — moves every span onto the campaign's
    trace and hangs the roots under the campaign span, making the
    merged tree identical to a serial run's.  Non-span events pass
    through untouched.
    """
    for event in events:
        if event.get("kind") != "span":
            continue
        event["trace_id"] = trace_id
        if event.get("parent_id") is None:
            event["parent_id"] = parent_id


def record_epoch_spans(
    telemetry: Telemetry,
    name: str,
    path_id: str,
    trace_index: int,
    epoch_index: int,
    phases: dict[str, float],
) -> None:
    """Synthesize one epoch span + its phase children from clock laps.

    Called by the packet-level epoch runner next to ``record_phases``.  No extra
    clock reads: one ``time.time()`` anchors the end of the epoch, and
    the lap durations are laid end to end backwards from it (repeated
    laps into one phase appear as that phase's single accumulated
    span).  Recorded only under an open sampled span — the unit
    ``"trace"`` span the executor maintains — so direct simulator use
    (unit tests, benches without tracing) pays one context check.
    """
    ctx = _CONTEXT.get()
    if ctx is None or ctx is NOT_SAMPLED or not phases:
        return
    trace_id, parent_id = ctx
    end = time()
    total = sum(phases.values())
    start = end - total
    # Mint all the ids from one state fetch, and skip the cosmetic
    # round(): this runs once per packet epoch, inside the
    # traced-throughput budget (see benchmarks/perf_bench.py).
    _, prefix, counter = _id_state()
    # One counter draw per epoch; the children derive dotted suffix ids
    # from the parent's (still process-unique, one string format each).
    span_id = f"{prefix}-{next(counter):x}"
    events: list[dict[str, Any]] = [
        {
            "kind": "span",
            "trace_id": trace_id,
            "span_id": span_id,
            "parent_id": parent_id,
            "name": name,
            "ts": start,
            "dur_s": total,
            "path": path_id,
            "trace": trace_index,
            "epoch": epoch_index,
        }
    ]
    at = start
    child = 0
    for phase, seconds in phases.items():
        child += 1
        events.append(
            {
                "kind": "span",
                "trace_id": trace_id,
                "span_id": f"{span_id}.{child}",
                "parent_id": span_id,
                "name": phase,
                "ts": at,
                "dur_s": seconds,
            }
        )
        at += seconds
    record_span_events(telemetry, events)


def record_trace_phase_spans(
    telemetry: Telemetry,
    phases: dict[str, float],
    n_epochs: int,
) -> None:
    """Synthesize per-trace phase spans for the fluid engine.

    The fluid engine times its array kernels once per *trace*; a
    per-epoch span there would cost more than the epoch itself (~14 us),
    blowing the traced-throughput budget.  Instead each whole-trace
    phase becomes one child span of the open unit span, tagged with the
    epoch count it covers — the timeline stays truthful about where the
    trace's time went at the granularity the engine actually measured.
    """
    ctx = _CONTEXT.get()
    if ctx is None or ctx is NOT_SAMPLED or not phases:
        return
    trace_id, parent_id = ctx
    end = time()
    at = end - sum(phases.values())
    _, prefix, counter = _id_state()
    events: list[dict[str, Any]] = []
    for phase, seconds in phases.items():
        events.append(
            {
                "kind": "span",
                "trace_id": trace_id,
                "span_id": f"{prefix}-{next(counter):x}",
                "parent_id": parent_id,
                "name": phase,
                "ts": at,
                "dur_s": seconds,
                "epochs": n_epochs,
            }
        )
        at += seconds
    record_span_events(telemetry, events)


def record_request_spans(
    trace_fields: dict[str, Any],
    request_id: str,
    phases: dict[str, float],
    method: str,
    path: str,
    status: int,
) -> None:
    """Synthesize a serve request's span tree from its phase laps.

    The request's ``X-Request-Id`` *is* the trace id, so a client
    holding the response header can find the exact tree in ``/trace``
    output or the shutdown manifest's events.  The root ``"request"``
    span carries method/path/status plus the handler's annotations
    (route, key, error); the phase laps (parse → store/ingest/predict →
    render) become child spans, laid end to end.
    """
    telemetry = get_telemetry()
    if not telemetry.enabled:
        return
    total = sum(phases.values())
    end = time()
    start = end - total
    # Same per-event economy as record_epoch_spans: one counter draw,
    # dotted child ids, no cosmetic round() — this sits on the serving
    # hot path inside the 10k req/s floor (benchmarks/serve_bench.py).
    _, prefix, counter = _id_state()
    span_id = f"{prefix}-{next(counter):x}"
    root: dict[str, Any] = {
        "kind": "span",
        "trace_id": request_id,
        "span_id": span_id,
        "parent_id": None,
        "name": "request",
        "ts": start,
        "dur_s": total,
        "method": method,
        "path": path,
        "status": status,
    }
    if trace_fields:
        root.update(trace_fields)
    events = [root]
    at = start
    child = 0
    for phase, seconds in phases.items():
        child += 1
        events.append(
            {
                "kind": "span",
                "trace_id": request_id,
                "span_id": f"{span_id}.{child}",
                "parent_id": span_id,
                "name": phase,
                "ts": at,
                "dur_s": seconds,
            }
        )
        at += seconds
    record_span_events(telemetry, events)
