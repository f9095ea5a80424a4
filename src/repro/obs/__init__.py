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

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "Counter": ".metrics",
        "Gauge": ".metrics",
        "Timer": ".metrics",
        "MetricsRegistry": ".metrics",
        "SampleBuffer": ".metrics",
        "TIMER_MAX_SAMPLES": ".metrics",
        "percentile": ".metrics",
        "PredictorQuality": ".quality",
        "QualityConfig": ".quality",
        "QualityTracker": ".quality",
        "ENV_OBS": ".telemetry",
        "PhaseClock": ".telemetry",
        "Telemetry": ".telemetry",
        "get_telemetry": ".telemetry",
        "obs_enabled": ".telemetry",
        "MANIFEST_VERSION": ".recorder",
        "CORE_COUNTERS": ".recorder",
        "ANALYSIS_CORE_COUNTERS": ".recorder",
        "RunRecorder": ".recorder",
        "load_manifest": ".recorder",
        "read_events": ".recorder",
        "resolve_manifest": ".recorder",
        "sidecar_paths": ".recorder",
        "analysis_sidecar_paths": ".recorder",
        "to_openmetrics": ".export",
        "to_flat_json": ".export",
        "check_against_baseline": ".regress",
        "load_baseline": ".regress",
        "record_baseline": ".regress",
        "ENV_TRACE_SAMPLE": ".spans",
        "ENV_TRACE_MAX_SPANS": ".spans",
        "Span": ".spans",
        "start_span": ".spans",
        "reparent_spans": ".spans",
        "trace_sample_rate": ".spans",
        "build_traces": ".traceview",
        "render_timeline": ".traceview",
        "critical_path": ".traceview",
        "to_chrome_trace": ".traceview",
    },
)
