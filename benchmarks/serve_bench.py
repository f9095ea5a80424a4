"""The online-serving load benchmark (``make bench-serve``).

Measures the three layers of ``repro-serve`` and writes
``BENCH_serve.json`` at the repository root:

* ``streaming_ingest`` — the tentpole number: samples/s through one
  :class:`StreamingPredictorState` (``ma10`` + LSO, the default serve
  spec) on a synthetic trace with level shifts and outliers.  This is
  the layer the streaming refactor makes O(1) amortised; the offline
  wrapper replays the whole history per update and would be quadratic
  over the same stream.
* ``store_ops`` — ingest+predict operations/s through the sharded LRU
  store across many path keys, including eviction pressure.
* ``http_load`` — end-to-end requests/s over real sockets: keep-alive
  connections alternating sample ingest (POST) and forecast reads
  (GET) against the full app, single process — with per-request
  tracing (access log to a temp dir), request *span* emission at the
  default ``REPRO_TRACE_SAMPLE=1.0``, and quality scoring ON, so the
  number gates the fully-instrumented configuration.
* ``http_load_untraced`` — the same load with span sampling off
  (``trace_sample=0.0``); the delta to ``http_load`` is what span
  synthesis costs per request.  The two are measured interleaved and
  the span overhead taken from adjacent pairs, so host-speed swings
  cancel.  The run **fails** when the untraced rate clears
  ``HTTP_FLOOR_RPS`` (10k requests/s) but the traced rate — measured,
  and projected from the untraced rate plus the paired overhead —
  cannot: that means span emission itself broke the serving floor.  A
  machine that cannot reach the floor even untraced only warns
  (shared-runner throughput here swings 2x between runs; an
  unconditional absolute floor would gate on the hypervisor's mood,
  not on this code).
* ``quality`` — scores/s through :class:`QualityTracker` across many
  paths (the per-ingest cost the quality layer adds).
* ``access_log`` — records/s through :class:`AccessLog` including
  rotation (the per-request cost of tracing).

Sample and request counts are fixed, so the ``epochs`` counters are
exact across runs and machines — only wall-clock varies.  The report
has the same ``fixtures`` shape as ``BENCH_perf.json``, so the
``repro-obs bench`` regression gate consumes it directly:

    repro-obs bench record BENCH_serve.json --name serve_baseline
    repro-obs bench check  BENCH_serve.json --name serve_baseline

``make serve-smoke`` re-measures and checks against the committed
baseline under ``benchmarks/baselines/`` with a tolerance loose enough
for shared-runner noise; see docs/serving.md.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import random
import sys
import tempfile
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro._version import __version__  # noqa: E402
from repro.hb.streaming import SERVE_PREDICTORS, StreamingPredictorState  # noqa: E402
from repro.obs import get_telemetry  # noqa: E402
from repro.obs.quality import QualityConfig, QualityTracker  # noqa: E402
from repro.serve.accesslog import AccessLog  # noqa: E402
from repro.serve.app import ServeApp  # noqa: E402
from repro.serve.http import serve_app  # noqa: E402
from repro.serve.state import ShardedStateStore, default_specs  # noqa: E402

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

#: Fixed workload sizes (exact counters in the regression gate).
INGEST_SAMPLES = 20_000
STORE_OPS = 10_000
HTTP_REQUESTS = 4_000
HTTP_CONNECTIONS = 8
QUALITY_SCORES = 20_000
ACCESS_RECORDS = 10_000

#: Best-of repetitions (min is the least noisy estimator on a shared
#: machine).
REPEATS = 3

#: The fully-traced serving floor: ``http_load`` (request spans ON)
#: must clear this rate on any machine whose untraced rate clears it.
HTTP_FLOOR_RPS = 10_000


def synthetic_stream(n: int, seed: int = 3) -> list[float]:
    """A deterministic trace with regime shifts and outlier spikes."""
    rng = random.Random(seed)
    values, level = [], 40.0
    for i in range(n):
        if i % 500 == 250:
            level *= rng.choice([0.5, 2.0])
        value = level * rng.uniform(0.9, 1.1)
        if i % 37 == 11:
            value *= 3.0
        values.append(value)
    return values


def bench_streaming_ingest() -> dict:
    """samples/s through one StreamingPredictorState (ma10 + LSO)."""
    stream = synthetic_stream(INGEST_SAMPLES)
    spec = SERVE_PREDICTORS["ma10"]

    def run_once() -> float:
        state = StreamingPredictorState(spec)
        started = time.perf_counter()
        for value in stream:
            state.ingest(value)
        return time.perf_counter() - started

    wall = min(run_once() for _ in range(REPEATS))
    return {
        "epochs": INGEST_SAMPLES,
        "wall_time_s": round(wall, 4),
        "samples_per_s": round(INGEST_SAMPLES / wall),
    }


def bench_store_ops() -> dict:
    """ingest+predict ops/s through the sharded LRU store."""
    stream = synthetic_stream(STORE_OPS)
    keys = [f"path-{i}" for i in range(64)]

    def run_once() -> float:
        store = ShardedStateStore(
            specs=default_specs(["ma10"]), n_shards=8, max_paths_per_shard=4
        )
        started = time.perf_counter()
        for i, value in enumerate(stream):
            store.ingest(keys[i % len(keys)], [value])
        return time.perf_counter() - started

    wall = min(run_once() for _ in range(REPEATS))
    return {
        "epochs": STORE_OPS,
        "wall_time_s": round(wall, 4),
        "ops_per_s": round(STORE_OPS / wall),
    }


def bench_quality() -> dict:
    """scores/s through the QualityTracker across rotating paths."""
    stream = synthetic_stream(QUALITY_SCORES)
    keys = [f"path-{i}" for i in range(32)]

    def run_once() -> float:
        tracker = QualityTracker(QualityConfig())
        started = time.perf_counter()
        forecast = stream[0]
        for i, value in enumerate(stream):
            tracker.score(keys[i % len(keys)], "ma10", forecast, value)
            forecast = value
        return time.perf_counter() - started

    wall = min(run_once() for _ in range(REPEATS))
    return {
        "epochs": QUALITY_SCORES,
        "wall_time_s": round(wall, 4),
        "scores_per_s": round(QUALITY_SCORES / wall),
    }


def bench_access_log() -> dict:
    """records/s through the AccessLog, rotation included."""

    def run_once(directory: str) -> float:
        # Spans ride the singleton's event buffer now; drain so repeats
        # measure from the same starting state (and memory stays flat).
        get_telemetry().drain()
        log = AccessLog(Path(directory) / "access.jsonl", max_bytes=1024 * 1024)
        traces = []
        for _ in range(ACCESS_RECORDS):
            trace = log.begin()
            trace.lap("parse")
            trace.annotate(route="ingest", key="path-1")
            traces.append(trace)
        started = time.perf_counter()
        for trace in traces:
            log.record(trace, "POST", "/paths/path-1/samples", 200, 48, 391)
        wall = time.perf_counter() - started
        log.close()
        return wall

    with tempfile.TemporaryDirectory(prefix="serve-bench-") as directory:
        wall = min(run_once(directory) for _ in range(REPEATS))
    return {
        "epochs": ACCESS_RECORDS,
        "wall_time_s": round(wall, 4),
        "records_per_s": round(ACCESS_RECORDS / wall),
    }


async def _read_response(reader: asyncio.StreamReader) -> None:
    header = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in header.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":")[1])
    if length:
        await reader.readexactly(length)


async def _http_client(port: int, requests: int, offset: int) -> None:
    """Drive one keep-alive connection, pipelined in small windows.

    Pipelining (write a window of requests, then drain the responses)
    keeps the server's accept loop busy instead of measuring the event
    loop's per-round-trip latency — the point is server capacity.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    ingest_body = json.dumps({"samples": [42.5]}).encode()
    window = 16
    for start in range(0, requests, window):
        batch = min(window, requests - start)
        for i in range(start, start + batch):
            key = f"path-{(offset + i) % 32}"
            if i % 2 == 0:
                head = (
                    f"POST /paths/{key}/samples HTTP/1.1\r\nHost: b\r\n"
                    f"Content-Length: {len(ingest_body)}\r\n\r\n"
                ).encode()
                writer.write(head + ingest_body)
            else:
                writer.write(
                    f"GET /paths/{key}/predict HTTP/1.1\r\nHost: b\r\n\r\n".encode()
                )
        await writer.drain()
        for _ in range(batch):
            await _read_response(reader)
    writer.write(b"GET /healthz HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n")
    await writer.drain()
    await reader.read()
    writer.close()
    await writer.wait_closed()


async def _run_http_load(log_dir: str, trace_sample: float | None) -> float:
    # The fully-instrumented configuration: quality scoring (the store's
    # default tracker) plus per-request tracing into an access log —
    # request spans at trace_sample (None = the REPRO_TRACE_SAMPLE
    # default, i.e. every request).
    get_telemetry().drain()
    store = ShardedStateStore(specs=default_specs(["ma10", "ewma"]))
    app = ServeApp(store, label="serve-bench")
    access_log = AccessLog(
        Path(log_dir) / "access.jsonl", trace_sample=trace_sample
    )
    server = await serve_app(app.handle, port=0, access_log=access_log)
    port = server.sockets[0].getsockname()[1]
    per_client = HTTP_REQUESTS // HTTP_CONNECTIONS
    started = time.perf_counter()
    await asyncio.gather(
        *(
            _http_client(port, per_client, offset=c * per_client)
            for c in range(HTTP_CONNECTIONS)
        )
    )
    wall = time.perf_counter() - started
    server.close()
    await server.wait_closed()
    access_log.close()
    return wall


def _measure_http_pair() -> dict[str, dict]:
    """Measure traced and untraced http_load interleaved.

    The two configurations alternate within one pass (untraced, traced,
    untraced, traced, ...) so a host-speed swing lands on both equally;
    measuring them as back-to-back fixtures made the traced/untraced
    delta track the hypervisor, not the span code.
    """
    with tempfile.TemporaryDirectory(prefix="serve-bench-") as log_dir:
        untraced_walls, traced_walls = [], []
        for _ in range(REPEATS):
            untraced_walls.append(asyncio.run(_run_http_load(log_dir, 0.0)))
            traced_walls.append(asyncio.run(_run_http_load(log_dir, None)))
    get_telemetry().drain()

    def entry(wall: float) -> dict:
        return {
            "epochs": HTTP_REQUESTS,
            "wall_time_s": round(wall, 4),
            "requests_per_s": round(HTTP_REQUESTS / wall),
            "connections": HTTP_CONNECTIONS,
        }

    # Overhead from adjacent pairs: each traced run is ratioed against
    # the untraced run that just preceded it, so both sides of the
    # ratio saw the same host-speed window.  min-of-mins would compare
    # runs from different windows and report the hypervisor's swing
    # (routinely 30%+) as span cost.
    ratios = [t / u for u, t in zip(untraced_walls, traced_walls)]
    traced = entry(min(traced_walls))
    traced["overhead_frac"] = round(max(0.0, min(ratios) - 1.0), 4)
    return {
        "http_load": traced,
        "http_load_untraced": entry(min(untraced_walls)),
    }


_HTTP_PAIR: dict[str, dict] = {}


def bench_http_load(name: str = "http_load") -> dict:
    """End-to-end requests/s over keep-alive sockets, single process.

    Both HTTP fixtures come from one interleaved measurement; whichever
    is requested first runs the pair and the second reads the cache.
    """
    if not _HTTP_PAIR:
        _HTTP_PAIR.update(_measure_http_pair())
    return _HTTP_PAIR[name]


FIXTURES = {
    "streaming_ingest": bench_streaming_ingest,
    "store_ops": bench_store_ops,
    "http_load": bench_http_load,
    "http_load_untraced": lambda: bench_http_load("http_load_untraced"),
    "quality": bench_quality,
    "access_log": bench_access_log,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure serving-layer throughput and write a bench report."
    )
    parser.add_argument(
        "--output",
        default=str(OUTPUT),
        metavar="FILE",
        help=f"report path (default: {OUTPUT})",
    )
    parser.add_argument(
        "--fixtures",
        nargs="+",
        choices=sorted(FIXTURES),
        default=sorted(FIXTURES),
        metavar="NAME",
        help="subset of fixtures to run (default: all)",
    )
    args = parser.parse_args(argv)

    report = {
        "bench": "serve",
        "code_version": __version__,
        "recorded_unix": round(time.time(), 1),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "fixtures": {},
    }
    for name in sorted(args.fixtures):
        report["fixtures"][name] = FIXTURES[name]()
        entry = report["fixtures"][name]
        rate_units = (
            "samples_per_s", "ops_per_s", "requests_per_s",
            "scores_per_s", "records_per_s",
        )
        rate = next((entry[u] for u in rate_units if u in entry), 0)
        unit = next(
            (u for u in rate_units if u in entry), ""
        ).replace("_per_s", "/s")
        print(f"  {name}: {entry['wall_time_s']}s ({rate:,} {unit})")

    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    traced = report["fixtures"].get("http_load")
    untraced = report["fixtures"].get("http_load_untraced")
    if traced and traced["requests_per_s"] < HTTP_FLOOR_RPS:
        if untraced and untraced["requests_per_s"] >= HTTP_FLOOR_RPS:
            # The machine can reach the floor untraced; project what
            # its best window sustains with spans on (paired overhead)
            # before blaming tracing — the traced best-of may simply
            # have missed the fast window the untraced best-of caught.
            projected = round(
                untraced["requests_per_s"] / (1.0 + traced["overhead_frac"])
            )
            if projected < HTTP_FLOOR_RPS:
                print(
                    f"error: fully-traced http_load sustains at most "
                    f"{projected:,} requests/s "
                    f"({traced['overhead_frac']:.1%} span overhead on the "
                    f"{untraced['requests_per_s']:,} untraced rate), below "
                    f"the {HTTP_FLOOR_RPS:,} floor",
                    file=sys.stderr,
                )
                return 1
            print(
                f"note: traced http_load measured "
                f"{traced['requests_per_s']:,} requests/s but projects to "
                f"{projected:,} at the untraced run's host speed — floor ok",
                file=sys.stderr,
            )
        else:
            print(
                f"warning: http_load at {traced['requests_per_s']:,} "
                f"requests/s is below the {HTTP_FLOOR_RPS:,} floor, but so "
                "is the untraced load — machine too slow to attribute the "
                "miss to tracing",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
