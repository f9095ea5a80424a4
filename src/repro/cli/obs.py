"""``repro-obs``: render, export, and gate telemetry from run manifests.

``repro-campaign`` and ``repro-analyze`` write ``X.manifest.json`` +
``X.events.jsonl`` sidecar pairs next to their outputs.  This command
turns those files back into reports and machine formats:

* ``summary RUN`` — run identity, wall time, per-phase timer
  percentiles, counters (cache hits/misses, predictions made), event
  tallies;
* ``slowest RUN [-n N]`` — the N slowest simulated traces (or
  packet-level epochs) with their per-phase breakdown;
* ``compare RUN_A RUN_B`` — counters, timer medians, and (for
  ``kind: "serve"`` runs) prediction-quality aggregates side by side
  with relative deltas (e.g. before/after a performance change);
* ``quality SOURCE`` — the prediction-quality report of a
  ``kind: "serve"`` run, or of a *live* server when ``SOURCE`` is a
  base URL (``http://host:port``); ``--watch`` polls and re-renders;
* ``trace SOURCE`` — the span timeline of a run (or of a *live*
  server's recent requests when ``SOURCE`` is a base URL): indented
  per-trace text trees plus the aggregated critical-path table, or
  Chrome/Perfetto trace-event JSON with ``--format chrome`` (load the
  file in ``ui.perfetto.dev``);
* ``export RUN --format openmetrics|json`` — OpenMetrics/Prometheus
  text exposition or flat JSON, for scraping and dashboards;
* ``bench record SOURCE --name NAME`` / ``bench check SOURCE`` — the
  performance-regression gate: snapshot a manifest (or a
  ``BENCH_obs.json`` bench report) as a named baseline, then fail
  (exit 1) when a later run's counters diverge or its timers run
  slower than the baseline allows.

``RUN`` may be the manifest path, the dataset path (the sidecar is
resolved automatically), or a directory containing exactly one
manifest.  ``SOURCE`` additionally accepts a bench-report JSON path.

Examples::

    repro-obs summary may.csv
    repro-obs slowest may.csv -n 20
    repro-obs compare baseline.csv optimized.csv
    repro-obs quality serve.manifest.json --paths
    repro-obs quality http://127.0.0.1:8710 --watch
    repro-obs trace may.csv
    repro-obs trace http://127.0.0.1:8710 --format chrome -o spans.json
    repro-obs export may.csv --format openmetrics
    repro-obs bench record BENCH_obs.json --name obs_baseline
    repro-obs bench check BENCH_obs.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.core.errors import DataError
from repro.obs.export import to_flat_json, to_openmetrics
from repro.obs.recorder import load_manifest, read_events, resolve_manifest
from repro.obs.regress import (
    DEFAULT_BASELINE_NAME,
    baseline_path,
    check_against_baseline,
    load_baseline,
    load_metrics_source,
    record_baseline,
    render_check_report,
)
from repro.obs.render import (
    compare_report,
    quality_report,
    slowest_report,
    summary_report,
)
from repro.obs.traceview import (
    render_critical_path,
    render_timeline,
    to_chrome_trace,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Render telemetry reports from repro run manifests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summary = sub.add_parser(
        "summary", help="render one run's telemetry report"
    )
    summary.add_argument("run", help="manifest path, dataset path, or directory")

    slowest = sub.add_parser(
        "slowest", help="show the slowest simulated traces (or epochs) of a run"
    )
    slowest.add_argument("run", help="manifest path, dataset path, or directory")
    slowest.add_argument(
        "-n", type=int, default=10, metavar="N", help="rows to show (default: 10)"
    )

    compare = sub.add_parser(
        "compare", help="diff the telemetry of two runs (B relative to A)"
    )
    compare.add_argument("run_a", help="baseline run")
    compare.add_argument("run_b", help="comparison run")

    quality = sub.add_parser(
        "quality",
        help="prediction-quality report of a serve run or a live server",
    )
    quality.add_argument(
        "source",
        help="kind=serve RUN (manifest/dataset/directory) or a live "
        "server base URL (http://host:port)",
    )
    quality.add_argument(
        "--paths",
        action="store_true",
        help="include the per-path x predictor error table",
    )
    quality.add_argument(
        "--watch",
        action="store_true",
        help="poll a live server URL and re-render until interrupted",
    )
    quality.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="--watch poll interval in seconds (default: 2.0)",
    )
    quality.add_argument(
        "--watch-retries",
        type=int,
        default=5,
        metavar="N",
        help="consecutive failed polls --watch tolerates before exiting "
        "non-zero; each failure prints a one-line reconnect notice and "
        "polling continues, so a server restart does not kill the watch "
        "(default: 5)",
    )

    trace = sub.add_parser(
        "trace",
        help="span timeline + critical path of a run or a live server",
    )
    trace.add_argument(
        "source",
        help="RUN (manifest/dataset/directory) or a live server base "
        "URL (http://host:port) serving GET /trace",
    )
    trace.add_argument(
        "--format",
        choices=("text", "chrome"),
        default="text",
        dest="fmt",
        help="text timeline + critical-path table (default), or "
        "Chrome/Perfetto trace-event JSON",
    )
    trace.add_argument(
        "--trace",
        default=None,
        metavar="ID",
        dest="trace_id",
        help="restrict to one trace id (e.g. a request's X-Request-Id)",
    )
    trace.add_argument(
        "--max-children",
        type=int,
        default=10,
        metavar="N",
        help="children shown per span in the text timeline before "
        "eliding (0 shows all; default: 10)",
    )
    trace.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="write to FILE instead of stdout",
    )

    export = sub.add_parser(
        "export", help="export a run's metrics for external consumers"
    )
    export.add_argument("run", help="manifest path, dataset path, or directory")
    export.add_argument(
        "--format",
        choices=("openmetrics", "json"),
        default="openmetrics",
        dest="fmt",
        help="output format (default: openmetrics)",
    )
    export.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="write to FILE instead of stdout",
    )

    bench = sub.add_parser(
        "bench", help="record/check performance baselines (the regression gate)"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    record = bench_sub.add_parser(
        "record", help="snapshot a manifest or bench report as a baseline"
    )
    record.add_argument(
        "source", help="RUN (manifest/dataset/directory) or a bench JSON path"
    )
    record.add_argument(
        "--name",
        default=DEFAULT_BASELINE_NAME,
        help=f"baseline name (default: {DEFAULT_BASELINE_NAME})",
    )
    record.add_argument(
        "--baselines-dir",
        default=None,
        metavar="DIR",
        help="baseline directory (default: $REPRO_BASELINES_DIR or the "
        "committed benchmarks/baselines/)",
    )

    check = bench_sub.add_parser(
        "check", help="compare a run against a baseline; exit 1 on regression"
    )
    check.add_argument(
        "source", help="RUN (manifest/dataset/directory) or a bench JSON path"
    )
    check.add_argument(
        "--name",
        default=DEFAULT_BASELINE_NAME,
        help=f"baseline name (default: {DEFAULT_BASELINE_NAME})",
    )
    check.add_argument(
        "--baselines-dir",
        default=None,
        metavar="DIR",
        help="baseline directory (default: $REPRO_BASELINES_DIR or the "
        "committed benchmarks/baselines/)",
    )
    check.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="FRACTION",
        help="override every timer tolerance (e.g. 0.5 = ±50%%; "
        "default: the baseline's stored tolerances, ±25%%)",
    )
    check.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also list metrics that passed",
    )
    return parser


def _load_source(source: str) -> dict:
    """Load a ``bench`` SOURCE: a bench-report JSON or a resolvable RUN."""
    path = Path(source)
    if (
        path.is_file()
        and path.suffix == ".json"
        and not path.name.endswith(".manifest.json")
    ):
        document = load_metrics_source(path)
        if "manifest_version" in document:
            return load_manifest(path)
        return document
    return load_manifest(resolve_manifest(source))


class _FetchError(DataError):
    """A (possibly transient) fetch failure against a live server.

    ``--watch`` treats these as reconnectable — a restarting server
    refuses connections for a moment — while every other context
    inherits the fatal :class:`DataError` behaviour.
    """


def _fetch_quality(url: str, include_paths: bool) -> dict:
    """``GET {url}/quality`` from a live server, as a parsed document."""
    base = url.rstrip("/")
    query = "?paths=1" if include_paths else ""
    try:
        with urllib.request.urlopen(f"{base}/quality{query}", timeout=10) as resp:
            doc = json.load(resp)
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise _FetchError(f"cannot fetch {base}/quality: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{base}/quality returned a non-object document")
    return doc


def _fetch_spans(url: str) -> list:
    """``GET {url}/trace`` from a live server: its recent span events."""
    base = url.rstrip("/")
    try:
        with urllib.request.urlopen(f"{base}/trace", timeout=10) as resp:
            doc = json.load(resp)
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise _FetchError(f"cannot fetch {base}/trace: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("spans"), list):
        raise DataError(f"{base}/trace returned an unexpected document")
    if doc.get("enabled") is False:
        raise DataError(
            "tracing is disabled on this server (REPRO_OBS=0, or no "
            "span ring installed)"
        )
    return doc["spans"]


def _span_events(source: str) -> list:
    """Span events of a live server URL or a recorded run's sidecar."""
    if source.startswith(("http://", "https://")):
        return _fetch_spans(source)
    return read_events(resolve_manifest(source))


def _run_trace(args: argparse.Namespace) -> int:
    events = _span_events(args.source)
    if args.fmt == "chrome":
        if args.trace_id is not None:
            events = [
                e for e in events
                if e.get("kind") != "span" or e.get("trace_id") == args.trace_id
            ]
        text = json.dumps(to_chrome_trace(events), sort_keys=True) + "\n"
    else:
        text = render_timeline(
            events, trace=args.trace_id, max_children=args.max_children
        )
        if args.trace_id is None:
            text += "\n" + render_critical_path(events)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _quality_document(source: str, include_paths: bool) -> dict:
    """The quality document of a live server URL or a serve manifest."""
    if source.startswith(("http://", "https://")):
        doc = _fetch_quality(source, include_paths)
    else:
        manifest = load_manifest(resolve_manifest(source))
        doc = manifest.get("quality")
        if doc is None:
            raise DataError(
                f"{source} has no quality section; expected a "
                "kind=serve manifest with quality scoring enabled"
            )
        if not include_paths:
            doc = {k: v for k, v in doc.items() if k != "paths"}
    if doc.get("enabled") is False:
        raise DataError("quality scoring is disabled on this server")
    return doc


def _run_quality(args: argparse.Namespace) -> int:
    if args.watch and not args.source.startswith(("http://", "https://")):
        raise DataError("--watch needs a live server URL (http://host:port)")
    if args.watch and args.interval <= 0:
        raise DataError(f"--interval must be > 0, got {args.interval}")
    if args.watch and args.watch_retries < 1:
        raise DataError(
            f"--watch-retries must be >= 1, got {args.watch_retries}"
        )
    failures = 0
    while True:
        try:
            doc = _quality_document(args.source, args.paths)
        except _FetchError as exc:
            if not args.watch:
                raise
            failures += 1
            if failures >= args.watch_retries:
                print(
                    f"error: {exc} ({failures} consecutive failures)",
                    file=sys.stderr,
                )
                return 2
            print(
                f"connection lost ({exc}); retrying in {args.interval:g}s "
                f"[{failures}/{args.watch_retries}]",
                file=sys.stderr,
                flush=True,
            )
        else:
            failures = 0
            if args.watch:
                print(time.strftime("-- %H:%M:%S " + "-" * 56))
            print(quality_report(doc), flush=True)
            if not args.watch:
                return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "summary":
            manifest = load_manifest(resolve_manifest(args.run))
            print(summary_report(manifest))
        elif args.command == "slowest":
            if args.n < 1:
                raise DataError(f"-n must be >= 1, got {args.n}")
            events = read_events(resolve_manifest(args.run))
            print(slowest_report(events, n=args.n))
        elif args.command == "compare":
            manifest_a = load_manifest(resolve_manifest(args.run_a))
            manifest_b = load_manifest(resolve_manifest(args.run_b))
            print(compare_report(manifest_a, manifest_b))
        elif args.command == "quality":
            return _run_quality(args)
        elif args.command == "trace":
            return _run_trace(args)
        elif args.command == "export":
            manifest = load_manifest(resolve_manifest(args.run))
            render = to_openmetrics if args.fmt == "openmetrics" else to_flat_json
            text = render(manifest)
            if args.output:
                Path(args.output).write_text(text, encoding="utf-8")
                print(f"wrote {args.output}", file=sys.stderr)
            else:
                sys.stdout.write(text)
        elif args.bench_command == "record":
            source = _load_source(args.source)
            path = record_baseline(
                source,
                name=args.name,
                baselines_dir=args.baselines_dir,
                recorded_from=args.source,
            )
            print(f"recorded baseline {args.name!r} -> {path}")
        else:  # bench check
            source = _load_source(args.source)
            baseline = load_baseline(
                baseline_path(args.name, args.baselines_dir)
            )
            findings = check_against_baseline(
                source, baseline, tolerance=args.tolerance
            )
            print(render_check_report(findings, verbose=args.verbose))
            if any(f.regressed for f in findings):
                return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Reports are often piped to `head`/`less`; a closed pipe is fine.
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
