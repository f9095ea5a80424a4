"""``repro-serve`` request routing and instrumentation.

:class:`ServeApp` owns a :class:`~repro.serve.state.ShardedStateStore`
and exposes it over the routes below.  Every route is counted
(``serve.requests`` tagged by route, ``serve.bad_requests`` for 4xx)
and timed (``serve.request_s`` tagged by route), and the ingest and
predict routes count what they did (``serve.ingested`` samples,
``serve.predictions``); every instrument is looked up once per route
and registry.  The live registry is
exported at ``/metrics`` in OpenMetrics text form, and the same
counters land in the ``kind: "serve"`` shutdown manifest the CLI
writes.

Routes
------

===========================================  ==================================
``GET /healthz``                             liveness + store occupancy
``GET /metrics``                             OpenMetrics exposition (live)
``GET /quality``                             prediction-quality summary
``GET /trace``                               recent request span trees
``POST /predict/fb``                         stateless FB prediction (Eq. 3)
``POST /paths/{key}/samples``                ingest throughput samples
``GET /paths/{key}/predict?predictor=NAME``  current HB forecast(s)
``GET /paths/{key}``                         per-path diagnostics
``GET /paths/{key}/quality``                 per-path forecast-error series
===========================================  ==================================

Errors are always JSON ``{"error": ...}`` with a proper status: 400 for
bad input (same messages as ``repro-predict`` — both surfaces answer
through :func:`~repro.formulas.fb_predictor.answer_fb`), 404 for
unknown paths, 405 for wrong methods.
"""

from __future__ import annotations

import re
import uuid
from time import monotonic, perf_counter
from typing import Any, NamedTuple

from repro.core.errors import DataError
from repro.formulas.fb_predictor import MODEL_VARIANTS, answer_fb
from repro.obs import get_telemetry, to_openmetrics
from repro.obs.metrics import NULL_COUNTER, NULL_TIMER, Counter, MetricsRegistry, Timer
from repro.obs.spans import span_ring_enabled, span_ring_snapshot
from repro.obs.telemetry import obs_enabled
from repro.serve.http import HttpError, HttpRequest, RawResponse
from repro.serve.state import ShardedStateStore

__all__ = ["OPENMETRICS_CONTENT_TYPE", "ServeApp"]

#: The content type the OpenMetrics spec requires of expositions.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

_PATHS_RE = re.compile(r"^/paths/([^/]+)(?:/([a-z]+))?$")

#: The counter of what each counting route did, by route.
_OUTCOMES = {
    "ingest": "serve.ingested",
    "predict_hb": "serve.predictions",
    "predict_fb": "serve.predictions",
}


class _Instruments(NamedTuple):
    """A route's instruments in one registry."""

    #: ``serve.requests{route}``.
    requests: Counter
    #: ``serve.request_s{route}``.
    request_s: Timer
    #: the route's :data:`_OUTCOMES` counter (a null one for the rest).
    outcome: Counter


_NULL_INSTRUMENTS = _Instruments(NULL_COUNTER, NULL_TIMER, NULL_COUNTER)
_FLAG_RE = re.compile(r"--([a-z-]+)")


def _json_field_names(message: str) -> str:
    """Rewrite ``--rtt-ms``-style flag names to JSON field names."""
    return _FLAG_RE.sub(lambda m: m.group(1).replace("-", "_"), message)


def _client_number(value: Any, field: str) -> float:
    """A client's JSON number as a float; 400 naming ``field`` for a
    non-number or an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise HttpError(400, f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise HttpError(400, f"{field} is too large for a float") from None


def _number(doc: dict[str, Any], field: str, default: float | None) -> float | None:
    """A numeric JSON field, or its default; 400 on a non-number."""
    value = doc.get(field, default)
    return None if value is None else _client_number(value, field)


class ServeApp:
    """The route handler bound into the HTTP layer.

    Args:
        store: the per-path predictor state store.
        label: service label stamped into ``/metrics`` and manifests.
    """

    def __init__(self, store: ShardedStateStore, label: str = "repro-serve") -> None:
        self.store = store
        self.label = label
        self.run_id = uuid.uuid4().hex[:12]
        self._started_monotonic = monotonic()
        #: the registry the cached per-route instruments belong to.
        self._registry: MetricsRegistry | None = None
        self._by_route: dict[str, _Instruments] = {}

    # -- dispatch ----------------------------------------------------------

    async def handle(self, request: HttpRequest) -> tuple[int, Any]:
        """Route one request; the HTTP layer's handler callable."""
        tele = get_telemetry()
        try:
            route, responder = self._route(request)
        except HttpError:
            tele.counter("serve.requests", route="unmatched").inc()
            tele.counter("serve.bad_requests").inc()
            raise
        if request.trace is not None:
            request.trace.annotate(route=route)
        started = perf_counter()
        try:
            status, payload = responder(request)
        except HttpError as exc:
            if 400 <= exc.status < 500:
                tele.counter("serve.bad_requests").inc()
            raise
        finally:
            instruments = self._instruments(route)
            instruments.requests.inc()
            instruments.request_s.observe(perf_counter() - started)
        return status, payload

    def _instruments(self, route: str) -> _Instruments:
        """The route's instruments in the live registry.

        Looked up once per route and registry: draining or resetting the
        telemetry installs a new registry, which the next request reads.
        """
        tele = get_telemetry()
        if not tele.enabled:
            return _NULL_INSTRUMENTS
        metrics = tele.metrics
        if metrics is not self._registry:
            self._registry = metrics
            self._by_route = {}
        found = self._by_route.get(route)
        if found is None:
            outcome = _OUTCOMES.get(route)
            found = self._by_route[route] = _Instruments(
                metrics.counter("serve.requests", route=route),
                metrics.timer("serve.request_s", route=route),
                NULL_COUNTER if outcome is None else metrics.counter(outcome),
            )
        return found

    def _route(self, request: HttpRequest):
        path, method = request.path, request.method
        if path == "/healthz":
            self._require(method, "GET")
            return "healthz", self._healthz
        if path == "/metrics":
            self._require(method, "GET")
            return "metrics", self._metrics
        if path == "/quality":
            self._require(method, "GET")
            return "quality", self._quality
        if path == "/trace":
            self._require(method, "GET")
            return "trace", self._trace
        if path == "/predict/fb":
            self._require(method, "POST")
            return "predict_fb", self._predict_fb
        match = _PATHS_RE.match(path)
        if match:
            key, action = match.group(1), match.group(2)
            if action == "samples":
                self._require(method, "POST")
                return "ingest", lambda req: self._ingest(req, key)
            if action == "predict":
                self._require(method, "GET")
                return "predict_hb", lambda req: self._predict_hb(req, key)
            if action == "quality":
                self._require(method, "GET")
                return "path_quality", lambda req: self._path_quality(req, key)
            if action is None:
                self._require(method, "GET")
                return "path_info", lambda req: self._path_info(req, key)
        raise HttpError(404, f"no route for {method} {path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise HttpError(405, f"use {expected} on this route")

    # -- routes --------------------------------------------------------------

    def _healthz(self, request: HttpRequest) -> tuple[int, Any]:
        return 200, {
            "status": "ok",
            "paths": len(self.store),
            "shards": self.store.shard_sizes(),
            "uptime_s": round(monotonic() - self._started_monotonic, 3),
        }

    def _metrics(self, request: HttpRequest) -> tuple[int, Any]:
        text = to_openmetrics(self.live_metrics_document())
        # Content negotiation: OpenMetrics is the default (the body *is*
        # the OpenMetrics exposition, `# EOF` included); plain scrapers
        # that ask only for text/plain get the text/plain label.
        accept = request.headers.get("accept", "")
        if "text/plain" in accept and "openmetrics" not in accept:
            content_type = "text/plain; charset=utf-8"
        else:
            content_type = OPENMETRICS_CONTENT_TYPE
        return 200, RawResponse(
            body=text.encode("utf-8"),
            content_type=content_type,
        )

    def _quality(self, request: HttpRequest) -> tuple[int, Any]:
        # REPRO_OBS=0 stops the store from scoring, so report the layer
        # as off rather than an enabled-but-empty tracker.
        quality = self.store.quality if obs_enabled() else None
        if quality is None:
            return 200, {"enabled": False}
        include_paths = request.query.get("paths") in ("1", "true")
        doc = quality.summary(include_paths=include_paths)
        doc["enabled"] = True
        return 200, doc

    def _trace(self, request: HttpRequest) -> tuple[int, Any]:
        """Recent request span trees (the live tracing window).

        Query params: ``trace=<X-Request-Id>`` restricts to one tree;
        ``limit=N`` bounds the span count (most recent last).  Spans
        come from the in-process ring the CLI installs at boot, so the
        window is the last ~4096 spans regardless of uptime.
        """
        if not obs_enabled() or not span_ring_enabled():
            return 200, {"enabled": False, "spans": []}
        limit_raw = request.query.get("limit")
        limit = None
        if limit_raw is not None:
            try:
                limit = max(0, int(limit_raw))
            except ValueError:
                raise HttpError(400, f"limit must be an integer, got {limit_raw!r}")
        trace_id = request.query.get("trace")
        if trace_id is not None:
            spans = [
                s for s in span_ring_snapshot()
                if s.get("trace_id") == trace_id
            ]
            if limit is not None:
                spans = spans[-limit:]
        else:
            spans = span_ring_snapshot(limit)
        return 200, {"enabled": True, "spans": spans}

    def _path_quality(self, request: HttpRequest, key: str) -> tuple[int, Any]:
        self._states_or_404(key)  # unknown path -> 404, like /paths/{key}
        quality = self.store.quality if obs_enabled() else None
        summary = quality.path_summary(key) if quality is not None else None
        return 200, {
            "key": key,
            "enabled": quality is not None,
            "predictors": summary or {},
        }

    def _predict_fb(self, request: HttpRequest) -> tuple[int, Any]:
        doc = request.json()
        if not isinstance(doc, dict):
            raise HttpError(400, "request body must be a JSON object")
        rtt_ms = _number(doc, "rtt_ms", None)
        loss = _number(doc, "loss", None)
        if rtt_ms is None or loss is None:
            raise HttpError(400, "rtt_ms and loss are required")
        window_kb = _number(doc, "window_kb", 1000.0)
        mss = _number(doc, "mss", 1460.0)
        availbw = _number(doc, "availbw", None)
        model = doc.get("model", "pftk")
        if not isinstance(model, str) or model not in MODEL_VARIANTS:
            raise HttpError(
                400, f"unknown model {model!r}; choose from {sorted(MODEL_VARIANTS)}"
            )
        try:
            answer = answer_fb(
                rtt_ms=rtt_ms,
                loss=loss,
                window_kb=window_kb,
                mss=mss,
                availbw=availbw,
                model=model,
            )
        except DataError as exc:
            raise HttpError(400, _json_field_names(str(exc))) from None
        self._instruments("predict_fb").outcome.inc()
        return 200, answer._asdict()

    def _ingest(self, request: HttpRequest, key: str) -> tuple[int, Any]:
        doc = request.json()
        if not isinstance(doc, dict):
            raise HttpError(400, "request body must be a JSON object")
        if "samples" in doc:
            samples = doc["samples"]
        elif "sample" in doc:
            samples = [doc["sample"]]
        else:
            raise HttpError(400, "body needs 'samples' (list) or 'sample' (number)")
        if not isinstance(samples, list):
            raise HttpError(400, f"samples must be a list, got {samples!r}")
        values = [_client_number(v, f"samples[{k}]") for k, v in enumerate(samples)]
        trace = request.trace
        try:
            summary = self.store.ingest(
                key, values, clock=trace.clock if trace is not None else None
            )
        except DataError as exc:
            raise HttpError(400, str(exc)) from None
        if trace is not None:
            trace.annotate(key=key)
        self._instruments("ingest").outcome.inc(summary["accepted"])
        return 200, summary

    def _states_or_404(self, key: str):
        states = self.store.get(key)
        if states is None:
            raise HttpError(404, f"unknown path key {key!r} (ingest samples first)")
        return states

    def _predict_hb(self, request: HttpRequest, key: str) -> tuple[int, Any]:
        trace = request.trace
        states = self._states_or_404(key)
        if trace is not None:
            trace.annotate(key=key)
            trace.lap("store")
        name = request.query.get("predictor")
        if name is None:
            predictions = {n: s.prediction() for n, s in states.items()}
            if trace is not None:
                trace.lap("predict")
            self._instruments("predict_hb").outcome.inc()
            return 200, {"key": key, "predictions": predictions}
        state = states.get(name)
        if state is None:
            raise HttpError(
                400,
                f"predictor {name!r} is not configured for this service; "
                f"choose from {sorted(states)}",
            )
        prediction = state.prediction()
        if trace is not None:
            trace.lap("predict")
        self._instruments("predict_hb").outcome.inc()
        return 200, {
            "key": key,
            "predictor": name,
            "prediction": prediction,
            "ready": state.ready,
            "n_observed": state.n_observed,
        }

    def _path_info(self, request: HttpRequest, key: str) -> tuple[int, Any]:
        states = self._states_or_404(key)
        return 200, {
            "key": key,
            "shard": self.store.shard_index(key),
            "predictors": {n: s.diagnostics() for n, s in states.items()},
        }

    # -- metrics -----------------------------------------------------------

    def live_metrics_document(self) -> dict[str, Any]:
        """A manifest-shaped view of the live registry for ``/metrics``.

        Non-destructive: uses ``MetricsRegistry.snapshot()``, not
        ``drain()``, so the shutdown manifest still sees everything.
        """
        self.store.update_gauges()
        if self.store.quality is not None:
            self.store.quality.update_gauges()
        snapshot = get_telemetry().metrics.snapshot()
        timers = []
        for entry in snapshot.get("timers", ()):
            timer = Timer(entry["name"], entry["tags"])
            timer.samples = entry["samples"]
            timers.append({"name": timer.name, "tags": timer.tags, **timer.stats()})
        return {
            "run_id": self.run_id,
            "kind": "serve",
            "label": self.label,
            "wall_time_s": monotonic() - self._started_monotonic,
            "counters": snapshot.get("counters", []),
            "gauges": snapshot.get("gauges", []),
            "timers": timers,
        }
