"""``repro-serve``: the long-running online prediction service.

Examples::

    repro-serve                                   # 127.0.0.1:8710
    repro-serve --port 0                          # ephemeral port, printed
    repro-serve --predictors last,ewma --shards 4
    repro-serve --snapshot state.json --manifest serve.manifest.json

The service answers (see docs/serving.md for the full API):

* ``POST /paths/{key}/samples``  ``{"samples": [42.1, ...]}``
* ``GET  /paths/{key}/predict?predictor=ma10``
* ``POST /predict/fb``  ``{"rtt_ms": 45, "loss": 0.002}``
* ``GET  /healthz``, ``GET /metrics``

On SIGINT/SIGTERM it shuts down gracefully: the state store is saved to
``--snapshot`` (restored on the next start), and a ``kind: "serve"``
run manifest with the request/ingest telemetry is written to
``--manifest``.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from pathlib import Path

from repro.core.errors import ReproError
from repro.hb.streaming import DEFAULT_SERVE_PREDICTORS, SERVE_PREDICTORS
from repro.obs import RunRecorder
from repro.obs.quality import QualityConfig, QualityTracker
from repro.obs.recorder import write_manifest
from repro.obs.spans import install_span_ring
from repro.serve.accesslog import DEFAULT_MAX_BYTES, AccessLog
from repro.serve.app import ServeApp
from repro.serve.http import serve_app
from repro.serve.state import ShardedStateStore, default_specs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve online HB/FB TCP throughput predictions over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8710,
        help="bind port; 0 picks an ephemeral port (printed on startup)",
    )
    parser.add_argument(
        "--predictors",
        default=",".join(DEFAULT_SERVE_PREDICTORS),
        metavar="NAMES",
        help="comma-separated HB predictors maintained per path "
        f"(available: {','.join(sorted(SERVE_PREDICTORS))})",
    )
    parser.add_argument(
        "--shards", type=int, default=8, help="state-store shards (default 8)"
    )
    parser.add_argument(
        "--max-paths",
        type=int,
        default=1024,
        help="total path capacity before LRU eviction (default 1024)",
    )
    parser.add_argument(
        "--snapshot",
        default=None,
        metavar="FILE",
        help="state snapshot: restored on startup when present, "
        "written atomically on shutdown",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="FILE",
        help="write a kind=serve run manifest here on shutdown",
    )
    parser.add_argument(
        "--label", default="repro-serve", help="run label for manifests/metrics"
    )
    parser.add_argument(
        "--slo-error",
        type=float,
        default=1.0,
        metavar="E",
        help="quality SLO: |relative error| above E counts a "
        "serve.slo_breaches tick (default 1.0; <= 0 disables)",
    )
    parser.add_argument(
        "--quality-window",
        type=int,
        default=QualityConfig.window,
        metavar="N",
        help="rolling error-window length per path x predictor "
        f"(default {QualityConfig.window})",
    )
    parser.add_argument(
        "--no-quality",
        action="store_true",
        help="disable online prediction-quality scoring entirely",
    )
    parser.add_argument(
        "--access-log",
        default=None,
        metavar="FILE",
        help="per-request JSONL access log with phase timings "
        "(FILE, or '-' for stdout); off by default",
    )
    parser.add_argument(
        "--access-log-max-bytes",
        type=int,
        default=DEFAULT_MAX_BYTES,
        metavar="N",
        help="rotate the access log past N bytes "
        f"(default {DEFAULT_MAX_BYTES})",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        metavar="RATE",
        help="fraction of requests whose span tree is recorded "
        "(default: REPRO_TRACE_SAMPLE, or 1.0); requires --access-log",
    )
    return parser


def build_store(args: argparse.Namespace) -> ShardedStateStore:
    names = [name.strip() for name in args.predictors.split(",") if name.strip()]
    specs = default_specs(names)  # refuses a name outside SERVE_PREDICTORS
    if not names:
        raise ReproError("--predictors must name at least one predictor")
    if args.shards < 1:
        raise ReproError(f"--shards must be >= 1, got {args.shards}")
    if args.max_paths < args.shards:
        raise ReproError(
            f"--max-paths must be >= --shards ({args.max_paths} < {args.shards})"
        )
    if getattr(args, "no_quality", False):
        quality = None
    else:
        slo = args.slo_error if args.slo_error > 0 else None
        try:
            quality = QualityTracker(
                QualityConfig(
                    window=args.quality_window,
                    slo_abs_error=slo,
                    max_paths=args.max_paths,
                )
            )
        except ReproError as exc:
            raise ReproError(f"bad quality configuration: {exc}") from None
    return ShardedStateStore(
        specs=specs,
        n_shards=args.shards,
        max_paths_per_shard=max(1, args.max_paths // args.shards),
        quality=quality,
    )


async def run_service(args: argparse.Namespace) -> int:
    store = build_store(args)
    if args.snapshot and Path(args.snapshot).is_file():
        restored = store.load(args.snapshot)
        print(f"restored {restored} path(s) from {args.snapshot}", flush=True)

    recorder = RunRecorder(label=args.label, kind="serve").start()
    app = ServeApp(store, label=args.label)
    # The ring backs GET /trace with the most recent spans regardless
    # of uptime; the manifest's events stop at REPRO_TRACE_MAX_SPANS.
    install_span_ring()
    access_log = None
    if args.access_log:
        access_log = AccessLog(
            args.access_log,
            max_bytes=args.access_log_max_bytes,
            trace_sample=args.trace_sample,
        )
    server = await serve_app(
        app.handle, host=args.host, port=args.port, access_log=access_log
    )
    port = server.sockets[0].getsockname()[1]
    print(f"repro-serve listening on http://{args.host}:{port}", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass

    try:
        await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        if access_log is not None:
            access_log.close()
        if args.snapshot:
            store.save(args.snapshot)
            print(f"saved {len(store)} path(s) to {args.snapshot}", flush=True)
        store.update_gauges()
        if store.quality is not None:
            store.quality.update_gauges()
        extras = {}
        if store.quality is not None:
            extras["quality"] = store.quality.summary(include_paths=True)
        manifest = recorder.finish(n_paths=len(store), extras=extras)
        if args.manifest:
            events_path = Path(args.manifest).with_suffix(".events.jsonl")
            write_manifest(manifest, recorder.events, args.manifest, events_path)
            print(f"wrote {args.manifest}", flush=True)
    print("repro-serve shut down cleanly", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(run_service(args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - direct ^C fallback
        return 0


if __name__ == "__main__":
    sys.exit(main())
