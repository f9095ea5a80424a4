"""``repro.obs`` — the observability subsystem.

Three layers, each usable on its own:

* :mod:`repro.obs.metrics` — ``Counter`` / ``Gauge`` / ``Timer``
  (exact p50/p95/p99) series keyed by name + tags, in a mergeable
  :class:`~repro.obs.metrics.MetricsRegistry`;
* :mod:`repro.obs.telemetry` — the per-process collector combining the
  registry with structured events and run-scoped context.  Disabled
  entirely with ``REPRO_OBS=0`` (shared null instruments; zero
  hot-path overhead);
* :mod:`repro.obs.recorder` — run manifests: ``manifest.json`` +
  ``events.jsonl`` sidecars written next to datasets (and cache
  entries), consumed by the ``repro-obs`` CLI.

On top of them, :mod:`repro.obs.spans` adds causal structure — spans
(trace/span/parent ids) recorded as ordinary telemetry events via
``Telemetry.span(name, **tags)`` — and :mod:`repro.obs.traceview`
renders the recorded trees (text timelines, critical paths,
Chrome/Perfetto export) behind ``repro-obs trace``.

Typical instrumentation site::

    from repro.obs import get_telemetry

    tele = get_telemetry()
    tele.counter("cache.hits").inc()
    with tele.timer("epoch.phase_s", phase="iperf"):
        ...

Typical run bracket (what ``repro-campaign`` does)::

    from repro.obs import RunRecorder

    recorder = RunRecorder(label="may2004", seed=7, workers=4).start()
    dataset = campaign.run(settings, n_workers=4)
    recorder.finish(n_epochs=dataset.n_epochs, ...)
    recorder.write("may.csv")       # may.manifest.json + may.events.jsonl
"""

from repro.obs.export import to_flat_json, to_openmetrics
from repro.obs.metrics import (
    TIMER_MAX_SAMPLES,
    Counter,
    Gauge,
    MetricsRegistry,
    SampleBuffer,
    Timer,
    percentile,
)
from repro.obs.quality import PredictorQuality, QualityConfig, QualityTracker
from repro.obs.recorder import (
    ANALYSIS_CORE_COUNTERS,
    CORE_COUNTERS,
    MANIFEST_VERSION,
    RunRecorder,
    analysis_sidecar_paths,
    load_manifest,
    read_events,
    resolve_manifest,
    sidecar_paths,
)
from repro.obs.regress import (
    check_against_baseline,
    load_baseline,
    record_baseline,
)
from repro.obs.spans import (
    ENV_TRACE_MAX_SPANS,
    ENV_TRACE_SAMPLE,
    Span,
    reparent_spans,
    start_span,
    trace_sample_rate,
)
from repro.obs.telemetry import (
    ENV_OBS,
    PhaseClock,
    Telemetry,
    get_telemetry,
    obs_enabled,
)
from repro.obs.traceview import (
    build_traces,
    critical_path,
    render_timeline,
    to_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "MetricsRegistry",
    "SampleBuffer",
    "TIMER_MAX_SAMPLES",
    "percentile",
    "PredictorQuality",
    "QualityConfig",
    "QualityTracker",
    "ENV_OBS",
    "PhaseClock",
    "Telemetry",
    "get_telemetry",
    "obs_enabled",
    "MANIFEST_VERSION",
    "CORE_COUNTERS",
    "ANALYSIS_CORE_COUNTERS",
    "RunRecorder",
    "load_manifest",
    "read_events",
    "resolve_manifest",
    "sidecar_paths",
    "analysis_sidecar_paths",
    "to_openmetrics",
    "to_flat_json",
    "check_against_baseline",
    "load_baseline",
    "record_baseline",
    "ENV_TRACE_SAMPLE",
    "ENV_TRACE_MAX_SPANS",
    "Span",
    "start_span",
    "reparent_spans",
    "trace_sample_rate",
    "build_traces",
    "render_timeline",
    "critical_path",
    "to_chrome_trace",
]
