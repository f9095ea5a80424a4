"""The end-to-end benchmark: campaign -> analyze -> serve, layer by layer.

Drives the shipped CLIs (``repro.cli.campaign``, ``repro.cli.analyze``,
``repro.cli.serve``) as subprocesses over four workloads, prints every
end-to-end metric named in the root ``BENCHMARK.json`` with its unit,
and checks that the outputs are correct.  ``--trace 1`` (or
``--traced``) instead re-runs each workload's CLIs through ``shim.py``,
alternating with untraced runs, and prints the per-layer metrics.

    python3 benchmarks/e2e/run.py --workload cold_pipeline --seed 3
    python3 benchmarks/e2e/run.py --smoke                # all four, tiny
    python3 benchmarks/e2e/run.py --traced --output report.json

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every cache, checkpoint and
output directory is set explicitly under ``--work-dir`` (default
``.e2e-work/`` in the checkout), which is removed again at exit; only
the report (and, when traced, its Chrome trace) stays.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import http.client
import json
import math
import os
import platform
import re
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SHIM = HERE / "shim.py"
CALIBRATION = HERE / "calibration.py"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("cold_pipeline", "warm_pipeline", "parallel_pipeline", "serve_replay")

#: The catalog every workload runs: all 35 May-2004 paths, one trace of
#: the paper's 150 epochs each (5,250 epochs).  The paper's 7 traces
#: take ~11 s per cold pipeline; a run must repeat the pipeline several
#: times for a median.
CATALOG = ("--traces", "1")
SMOKE_CATALOG = ("--paths", "3", "--traces", "1", "--epochs", "20")

#: Seed-0 sha256 of (campaign CSV, repro-analyze stdout) per catalog.
PINNED = {
    CATALOG: (
        "3b0a04434352dac9b87e7adee2d4fc6616affad8e3970fccf5cfa5743bc9227e",
        "c78717734897fb4c612c6c77b04c479a1dc678cf86e895c0cfb07e04bbc9cb4e",
    ),
    SMOKE_CATALOG: (
        "f45db9f8bb59365f1e5de5f19f14c4f7d531cd621ddab98a545877ca64f4062d",
        "09a2d286b6faab4f8f0768e9b4be584e17ed88ef00ed8d129a75feebe694de89",
    ),
}

#: What each calibration.py job takes on the 2-vCPU host the README's
#: numbers come from, at that host's full speed.  Every end-to-end time
#: is reported at this speed: scaled by its job's CALIBRATION_S over the
#: mean time of the calibration runs just before and after it.  The
#: pipelines and every set-up sample use the ``pipeline`` job; the
#: serve_replay passes use the ``serve`` job, since socket round trips
#: between two processes swing apart from CPU-bound work.
CALIBRATION_S = {"pipeline": 0.45, "serve": 0.5}

#: Set-up samples per run; the median of their scaled times is setup_s.
#: Imports and server starts share one pair of calibration runs; each
#: priming pass, as long as a cold rep, gets its own.
IMPORT_SAMPLES = 5
PRIMING_PASSES = 3
SERVER_STARTS = 5

#: serve_replay: keep-alive connections, and the most distinct path keys
#: the passes cycle through.  490 stays well under the server's default
#: 1024-path LRU cap (128 per shard), so no forecast state is evicted
#: and every key's offline twin stays exact.
CONNECTIONS = 2
MAX_KEYS = 490

#: serve_replay's work is fixed by --seconds, not cut off by a clock, so
#: the server's memory and the latency sample count do not depend on
#: host speed: 0.3 passes per second (6 passes, 210 keys and 63,000
#: requests at the default 20 s) take about --seconds, calibration runs
#: included, when the host runs at half its full speed.
PASSES_PER_SECOND = 0.3

#: A CLI process or server start still running after this is killed.
PROC_TIMEOUT_S = 150.0

#: Ratio metrics: name -> (shim function, numerator field over calls).
RATIOS = {
    "testbed.cache.hit.ratio": ("testbed.cache.load", "hits"),
    "analysis.evalcache.hit.ratio": ("analysis.evalcache.get", "hits"),
    "analysis.fb_eval.reuse.ratio": ("analysis.fb_eval.predict_epoch", "distinct"),
}


class BenchError(RuntimeError):
    """The benchmark cannot measure (as opposed to a failed check)."""


@dataclass
class Settings:
    seed: int
    seconds: float
    traced: bool
    smoke: bool
    work: Path
    t0: float = field(default_factory=perf_counter)
    #: wall time of every calibration run so far, per job.
    calibrations: dict[str, list[float]] = field(
        default_factory=lambda: {job: [] for job in CALIBRATION_S}
    )

    @property
    def catalog(self) -> tuple[str, ...]:
        return SMOKE_CATALOG if self.smoke else CATALOG

    def samples(self, n: int) -> int:
        """Set-up repetitions: one in smoke and traced runs."""
        return 1 if self.smoke or self.traced else n


@dataclass
class Proc:
    """One finished process: exit code, wall, CPU (incl. reaped children)."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    #: the shim's report, for a process run through it.
    trace: dict | None = None


@dataclass
class Sample:
    """What one op returned, and the factor that scales its times."""

    value: object
    #: CALIBRATION_S[job] over the mean calibration time around the op (1.0
    #: in traced runs, which do not calibrate).
    scale: float
    traced: bool


@dataclass
class Result:
    workload: str
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    #: (label, shim report) of every traced process.
    traced: list[tuple[str, dict]] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.errors.append(message)


def median(values) -> float:
    return statistics.median(list(values))


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def sha256(path: Path) -> str:
    if not path.is_file():
        return "missing"
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env(d: Path) -> dict[str, str]:
    """The CLIs' environment: every store under ``d``, telemetry at default."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_CACHE_DIR=str(d / "cache"),
        REPRO_CHECKPOINT_DIR=str(d / "ckpt"),
        REPRO_EVAL_CACHE_DIR=str(d / "evals"),
        TMPDIR=str(d),
    )
    return env


def wait(proc: subprocess.Popen) -> tuple[int, float, float]:
    """Reap ``proc``: (exit code, user+sys CPU s, max RSS MB)."""
    watchdog = threading.Timer(PROC_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def cli_argv(module: str, args, trace_file: Path | None) -> list[str]:
    head = ["-m", module] if trace_file is None else [str(SHIM), str(trace_file), module]
    return [sys.executable, *head, *(str(a) for a in args)]


def read_trace(trace_file: Path | None) -> dict | None:
    if trace_file is None or not trace_file.is_file():
        return None
    return json.loads(trace_file.read_text())


def run(argv: list[str], d: Path, tag: str) -> Proc:
    """Run a process to completion with stdout/stderr in ``d/tag.{out,err}``."""
    with open(d / f"{tag}.out", "wb") as out, open(d / f"{tag}.err", "wb") as err:
        started = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(d), cwd=ROOT)
    code, cpu, rss = wait(proc)
    return Proc(code, perf_counter() - started, cpu, rss)


def run_cli(module: str, args, d: Path, tag: str, traced: bool = False) -> Proc:
    """Run one CLI, through the shim when ``traced``."""
    trace_file = d / f"{tag}.layers.json" if traced else None
    proc = run(cli_argv(module, args, trace_file), d, tag)
    proc.trace = read_trace(trace_file)
    return proc


def calibrate(s: Settings, job: str) -> float:
    proc = run([sys.executable, str(CALIBRATION), job], s.work, "calibration")
    if proc.code != 0:
        raise BenchError(f"calibration.py {job} exited {proc.code}")
    s.calibrations[job].append(proc.wall_s)
    return proc.wall_s


def interleave(s: Settings, op, count: int | None = None,
               job: str = "pipeline") -> list[Sample]:
    """Run ``op(index, traced)`` ``count`` times, or until --seconds elapse.

    Untraced, a run of calibration ``job`` precedes the first op and
    follows each one, and every sample is scaled by the two around it.
    Traced, the timed ops alternate untraced/traced and stop on a whole
    pair, so every traced op has an adjacent untraced twin for the
    overhead ratio.
    """
    samples: list[Sample] = []
    deadline = perf_counter() + s.seconds
    before = None if s.traced else calibrate(s, job)
    i = 0
    while True:
        traced = s.traced and count is None and i % 2 == 1
        value = op(i, traced)
        scale = 1.0
        if before is not None:
            after = calibrate(s, job)
            scale = 2 * CALIBRATION_S[job] / (before + after)
            before = after
        samples.append(Sample(value, scale, traced))
        i += 1
        if count is not None:
            if i == count:
                return samples
        elif (not s.traced or i % 2 == 0) and (s.smoke or perf_counter() >= deadline):
            return samples


def bracket(s: Settings, op, count: int) -> list[Sample]:
    """Run ``op(index, False)`` ``count`` times between two calibration runs.

    For set-up samples much shorter than a calibration run, where one
    run around each would cost more than the samples themselves.
    """
    before = None if s.traced else calibrate(s, "pipeline")
    values = [op(i, False) for i in range(count)]
    scale = 1.0
    if before is not None:
        scale = 2 * CALIBRATION_S["pipeline"] / (before + calibrate(s, "pipeline"))
    return [Sample(value, scale, False) for value in values]


# ---------------------------------------------------------------------
# Pipelines: cold, warm, parallel
# ---------------------------------------------------------------------


@dataclass
class Rep:
    """One repro-campaign -> repro-analyze pass."""

    campaign: Proc
    analyze: Proc
    digests: tuple[str, str]
    epochs: int
    cache_hit: bool
    walks_computed: int | None

    @property
    def wall_s(self) -> float:
        return self.campaign.wall_s + self.analyze.wall_s

    @property
    def cpu_s(self) -> float:
        return self.campaign.cpu_s + self.analyze.cpu_s


def pipeline(s: Settings, d: Path, workers: int, traced: bool = False) -> Rep:
    d.mkdir(parents=True, exist_ok=True)
    csv = d / "may.csv"
    campaign = run_cli(
        "repro.cli.campaign",
        [*s.catalog, "--seed", s.seed, "--quiet", "--workers", workers, "-o", csv],
        d, "campaign", traced,
    )
    analyze = run_cli(
        "repro.cli.analyze", [csv, "--workers", workers], d, "analyze", traced
    )
    summary = (d / "analyze.out").read_text(errors="replace").split("\n", 1)[0]
    epochs = re.search(r"(\d+) epochs", summary)
    warm = re.search(r"warm phase: (\d+) evaluations computed", (d / "analyze.err").read_text())
    try:
        manifest = json.loads((d / "may.manifest.json").read_text())
        cache_hit = bool(manifest["cache"]["hit"])
    except (OSError, ValueError, KeyError):
        cache_hit = False
    return Rep(
        campaign,
        analyze,
        (sha256(csv), sha256(d / "analyze.out")),
        int(epochs.group(1)) if epochs else 0,
        cache_hit,
        int(warm.group(1)) if warm else None,
    )


def check_rep(res: Result, rep: Rep, reference: tuple[str, str], label: str,
              warm: bool = False) -> None:
    csv, out = rep.digests
    res.check(
        rep.campaign.code == 0 and csv == reference[0],
        f"{label}: repro-campaign exit {rep.campaign.code}, csv sha256 "
        f"{csv[:16]} (expected {reference[0][:16]})",
    )
    res.check(
        rep.analyze.code == 0 and out == reference[1],
        f"{label}: repro-analyze exit {rep.analyze.code}, stdout sha256 "
        f"{out[:16]} (expected {reference[1][:16]})",
    )
    if warm:
        res.check(rep.cache_hit, f"{label}: campaign was not a dataset-cache hit")
        res.check(
            rep.walks_computed == 0,
            f"{label}: warm analysis computed {rep.walks_computed} walks, expected 0",
        )


def pipeline_workload(s: Settings, name: str) -> Result:
    res = Result(name)
    workers = 2 if name == "parallel_pipeline" else 1
    warm = name == "warm_pipeline"
    reference = PINNED[s.catalog] if s.seed == 0 else None
    s.work.mkdir(parents=True, exist_ok=True)

    if warm:
        # Set-up is the priming cold pass that fills the stores.
        primed = [s.work / f"primed{i}" for i in range(s.samples(PRIMING_PASSES))]
        primes = interleave(s, lambda i, _: pipeline(s, primed[i], 1), len(primed))
        setup = [x.value.wall_s * x.scale for x in primes]
        reference = reference or primes[0].value.digests
        for i, x in enumerate(primes):
            check_rep(res, x.value, reference, f"priming pass {i}")
    else:
        # Set-up is importing the two CLIs in a fresh interpreter.
        argv = [sys.executable, "-c", "import repro.cli.campaign, repro.cli.analyze"]
        imports = bracket(
            s, lambda i, _: run(argv, s.work, f"import{i}"), s.samples(IMPORT_SAMPLES)
        )
        setup = [x.value.wall_s * x.scale for x in imports]
        for x in imports:
            res.check(x.value.code == 0, f"importing the CLIs exited {x.value.code}")

    def op(i: int, traced: bool) -> Rep:
        if warm:
            return pipeline(s, primed[i % len(primed)], workers, traced)
        d = s.work / f"rep{i}"
        rep = pipeline(s, d, workers, traced)
        shutil.rmtree(d)
        return rep

    samples = interleave(s, op)
    if reference is None:
        if name == "parallel_pipeline":
            ref = pipeline(s, s.work / "reference", 1)
            reference = ref.digests
            res.check(
                ref.campaign.code == 0 and ref.analyze.code == 0,
                "serial reference pipeline failed",
            )
        else:
            reference = samples[0].value.digests
    for i, x in enumerate(samples):
        check_rep(res, x.value, reference, f"rep {i}", warm)
        for stage, proc in (("campaign", x.value.campaign), ("analyze", x.value.analyze)):
            if proc.trace is not None:
                res.traced.append((f"{name} rep {i} {stage}", proc.trace))

    plain = [x for x in samples if not x.traced]
    epochs = plain[0].value.epochs or 1
    walls = [x.value.wall_s * x.scale for x in plain]
    raw = [x.value.wall_s for x in plain]
    res.details = {
        "epochs": epochs,
        "reps": len(plain),
        "setup_samples": len(setup),
        "calibration_s": median(s.calibrations["pipeline"]) if not s.traced else None,
        "raw_pipeline_s": {"median": median(raw), "min": min(raw), "max": max(raw)},
        "campaign_s": median(x.value.campaign.wall_s * x.scale for x in plain),
        "analyze_s": median(x.value.analyze.wall_s * x.scale for x in plain),
    }
    res.metrics = {
        "setup_s": median(setup),
        "latency_p50_ms": median(walls) * 1e3,
        "epochs_per_s": epochs / median(walls),
        "cpu_ms_per_epoch": median(x.value.cpu_s * x.scale for x in plain) / epochs * 1e3,
        "peak_rss_mb": median(
            max(x.value.campaign.rss_mb, x.value.analyze.rss_mb) for x in plain
        ),
    }
    if s.traced:
        traced = [x.value for x in samples if x.traced]
        res.layers = layer_metrics(
            [[rep.campaign.trace, rep.analyze.trace] for rep in traced],
            [rep.wall_s for rep in traced],
            {
                "trace_overhead_frac": median(
                    t.wall_s / u.value.wall_s for u, t in zip(plain, traced)
                ) - 1.0,
                "campaign_s": res.details["campaign_s"],
                "analyze_s": res.details["analyze_s"],
            },
        )
    return res


# ---------------------------------------------------------------------
# serve_replay
# ---------------------------------------------------------------------


class Server:
    """A ``repro-serve --port 0`` process, up once ``/healthz`` answers 200."""

    def __init__(self, d: Path, tag: str, traced: bool = False) -> None:
        self.trace_file = d / f"{tag}.layers.json" if traced else None
        with open(d / f"{tag}.err", "wb") as err:
            self.started = perf_counter()
            self.proc = subprocess.Popen(
                cli_argv("repro.cli.serve", ["--port", "0"], self.trace_file),
                stdout=subprocess.PIPE, stderr=err, env=child_env(d), cwd=ROOT,
            )
        try:
            self.port = self._await_banner()
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
            try:
                conn.request("GET", "/healthz")
                status = conn.getresponse().status
            finally:
                conn.close()
            if status != 200:
                raise BenchError(f"repro-serve /healthz answered {status}")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            raise
        self.setup_s = perf_counter() - self.started

    def _await_banner(self) -> int:
        # os.read, not readline: a buffered read could swallow the
        # banner while select() waits on an empty pipe.
        marker = "listening on http://"
        banner = ""
        deadline = perf_counter() + PROC_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while perf_counter() < deadline:
                if sel.select(timeout=1.0):
                    chunk = os.read(self.proc.stdout.fileno(), 4096).decode(errors="replace")
                    banner += chunk
                    tail = banner.partition(marker)[2]
                    if "\n" in tail:
                        return int(tail.split("\n", 1)[0].rsplit(":", 1)[1])
                    if chunk:
                        continue
                if self.proc.poll() is not None:
                    break
        raise BenchError(f"repro-serve did not start: {banner!r}")

    def stop(self) -> Proc:
        self.proc.send_signal(signal.SIGTERM)
        code, cpu, rss = wait(self.proc)
        wall = perf_counter() - self.started
        self.proc.stdout.close()
        return Proc(code, wall, cpu, rss, read_trace(self.trace_file))


@dataclass
class Replay:
    """What replaying passes of the dataset against one server did."""

    #: samples each key was sent (and acknowledged), in order.
    sent: dict[str, list[float]] = field(default_factory=dict)
    #: body of each key's last GET .../predict response.
    last_get: dict[str, bytes] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    requests: int = 0
    epochs: int = 0


@dataclass
class Pass:
    """One replay pass: its wall time, request latencies and epochs."""

    wall_s: float
    latencies: list[float]
    epochs: int


async def _exchange(reader, writer, request: bytes, rec: Replay,
                    latencies: list[float]) -> tuple[bool, bytes]:
    started = perf_counter()
    writer.write(request)
    head = await reader.readuntil(b"\r\n\r\n")
    at = head.index(b"Content-Length:") + 15
    body = await reader.readexactly(int(head[at:head.index(b"\r\n", at)]))
    latencies.append(perf_counter() - started)
    rec.requests += 1
    ok = head.startswith(b"HTTP/1.1 2")
    if not ok:
        status = head.split(b"\r\n", 1)[0].decode("latin-1")
        target = request.split(b" ", 2)[1].decode("latin-1")
        rec.failures.append(f"{target} -> {status}")
    return ok, body


async def _drive(port: int, steps, rec: Replay, latencies: list[float]) -> None:
    """One closed-loop connection: POST a sample, GET the forecast, repeat."""
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    except OSError as exc:
        rec.failures.append(f"connect: {exc!r}")
        return
    try:
        for key, value, post, get in steps:
            ok, _ = await _exchange(reader, writer, post, rec, latencies)
            if ok:
                rec.sent.setdefault(key, []).append(value)
            ok, body = await _exchange(reader, writer, get, rec, latencies)
            if ok:
                rec.last_get[key] = body
            rec.epochs += 1
    except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
        rec.failures.append(f"connection error: {exc!r}")
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


def replay_pass(port: int, traces, key_set: int, rec: Replay) -> Pass:
    """Replay every trace once, epoch by epoch, traces split over the connections."""
    schedules = [[] for _ in range(CONNECTIONS)]
    for epoch in range(max(len(values) for _, values in traces)):
        for ordinal, (name, values) in enumerate(traces):
            if epoch >= len(values):
                continue
            key = f"r{key_set}-{name}"
            body = json.dumps({"samples": [values[epoch]]}).encode()
            post = (
                f"POST /paths/{key}/samples HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode() + body
            get = f"GET /paths/{key}/predict HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
            schedules[ordinal % CONNECTIONS].append((key, values[epoch], post, get))
    latencies: list[float] = []

    async def both() -> None:
        await asyncio.gather(*(_drive(port, steps, rec, latencies) for steps in schedules))

    epochs = rec.epochs
    started = perf_counter()
    asyncio.run(both())
    return Pass(perf_counter() - started, latencies, rec.epochs - epochs)


def check_twins(res: Result, rec: Replay) -> None:
    """Each key's last forecasts must equal an offline twin's, bit for bit."""
    from repro.hb.streaming import StreamingPredictorState
    from repro.serve.state import default_specs

    specs = default_specs()
    for key, samples in rec.sent.items():
        states = {name: StreamingPredictorState(spec) for name, spec in specs.items()}
        for value in samples:
            for state in states.values():
                state.ingest(value)
        expected = {name: state.prediction() for name, state in states.items()}
        body = rec.last_get.get(key)
        served = json.loads(body)["predictions"] if body is not None else None
        res.check(served == expected, f"{key}: served {served} != offline twin {expected}")


def serve_workload(s: Settings, name: str) -> Result:
    res = Result(name)
    d = s.work
    d.mkdir(parents=True, exist_ok=True)
    gen = run_cli(
        "repro.cli.campaign",
        [*s.catalog, "--seed", s.seed, "--quiet", "--no-cache", "--no-checkpoint",
         "-o", d / "replay.csv"],
        d, "dataset",
    )
    if gen.code != 0:
        raise BenchError(f"generating the replay dataset exited {gen.code}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.testbed.io import load_dataset

    traces = [
        (f"{t.path_id}-t{t.trace_index}", [e.throughput_mbps for e in t.epochs])
        for t in load_dataset(d / "replay.csv").traces
    ]

    if s.traced:
        def op(i: int, traced: bool) -> tuple[Pass, Proc, Replay]:
            server = Server(d, f"pass{i}", traced)
            rec = Replay()
            try:
                done = replay_pass(server.port, traces, 0, rec)
            finally:
                proc = server.stop()
            return done, proc, rec

        samples = interleave(s, op)
        for i, x in enumerate(samples):
            done, proc, rec = x.value
            res.attempted += rec.requests
            res.errors += rec.failures
            res.check(proc.code == 0, f"pass {i}: repro-serve exited {proc.code}")
            check_twins(res, rec)
            if proc.trace is not None:
                res.traced.append((f"{name} pass {i} repro-serve", proc.trace))
        plain = [x.value for x in samples if not x.traced]
        traced = [x.value for x in samples if x.traced]
        res.layers = layer_metrics(
            [[proc.trace] for _, proc, _ in traced],
            [proc.wall_s for _, proc, _ in traced],
            {
                "trace_overhead_frac": median(
                    t[0].wall_s / u[0].wall_s for u, t in zip(plain, traced)
                ) - 1.0,
                "campaign_s": 0.0,
                "analyze_s": 0.0,
            },
        )
        res.details = {"passes": len(samples), "epochs_per_pass": plain[0][0].epochs}
        return res

    servers: list[Server] = []

    def start(i: int, _traced: bool) -> Server:
        # Only the last server started stays up for the replay.
        if servers:
            proc = servers.pop().stop()
            res.check(proc.code == 0, f"repro-serve exited {proc.code}")
        servers.append(Server(d, f"server{i}"))
        return servers[-1]

    try:
        starts = bracket(s, start, s.samples(SERVER_STARTS))
        rec = Replay()
        key_sets = max(1, MAX_KEYS // len(traces))
        passes = interleave(
            s,
            lambda i, _: replay_pass(servers[0].port, traces, i % key_sets, rec),
            1 if s.smoke else max(1, round(s.seconds * PASSES_PER_SECOND)),
            job="serve",
        )
        proc = servers.pop().stop()
    finally:
        for server in servers:
            server.stop()
    res.attempted += rec.requests
    res.errors += rec.failures
    res.check(proc.code == 0, f"repro-serve exited {proc.code}")
    check_twins(res, rec)

    latencies = sorted(t * x.scale for x in passes for t in x.value.latencies)
    raw = sorted(t for x in passes for t in x.value.latencies)
    scaled_wall = sum(x.value.wall_s * x.scale for x in passes)
    mean_scale = statistics.fmean(x.scale for x in passes)
    ok = rec.requests - len(rec.failures)
    res.details = {
        "passes": len(passes),
        "keys": len(rec.sent),
        "requests": rec.requests,
        "calibration_s": {job: median(t) for job, t in s.calibrations.items()},
        "serve_rps": ok / scaled_wall,
        "serve_p99_ms": nearest_rank(latencies, 0.99) * 1e3,
        "serve_p99.9_ms": nearest_rank(latencies, 0.999) * 1e3,
        "raw_serve_rps": ok / sum(x.value.wall_s for x in passes),
        "raw_serve_p50_ms": nearest_rank(raw, 0.5) * 1e3,
        "setup_samples": len(starts),
    }
    res.metrics = {
        "setup_s": median(x.value.setup_s * x.scale for x in starts),
        "latency_p50_ms": nearest_rank(latencies, 0.5) * 1e3,
        "epochs_per_s": rec.epochs / scaled_wall,
        "cpu_ms_per_epoch": proc.cpu_s * mean_scale / rec.epochs * 1e3,
        "peak_rss_mb": proc.rss_mb,
    }
    return res


# ---------------------------------------------------------------------
# Per-layer metrics and the report
# ---------------------------------------------------------------------


def layer_metrics(docs_per_op, walls: list[float], extra: dict[str, float]) -> dict[str, float]:
    """Per-op averages of the shim's aggregates for every per-layer metric.

    ``docs_per_op`` holds, for each traced op (pipeline rep or serve
    pass), the shim reports of its processes; ``walls`` the op's wall
    time as seen from outside, so ``unattributed_s`` is what no wrapped
    layer accounts for.
    """
    totals: dict[str, dict[str, float]] = {}
    for docs in docs_per_op:
        for doc in docs:
            for fn, stat in (doc or {}).get("functions", {}).items():
                agg = totals.setdefault(fn, {})
                for key, value in stat.items():
                    agg[key] = agg.get(key, 0) + value
    n = len(docs_per_op)

    def get(fn: str, key: str) -> float:
        return totals.get(fn, {}).get(key, 0)

    values = dict(extra)
    values["wall_s"] = sum(walls) / n
    values["unattributed_s"] = (sum(walls) - sum(get(fn, "self_s") for fn in totals)) / n
    engine_s = get("fastpath.run_fluid_trace", "self_s")
    values["fastpath.epochs_per_s"] = (
        get("fastpath.run_fluid_trace", "items") / engine_s if engine_s else 0.0
    )
    for metric, (fn, key) in RATIOS.items():
        calls = get(fn, "calls")
        values[metric] = get(fn, key) / calls if calls else 0.0
    out = {}
    for metric in load_spec()["per_layer"]:
        name = metric["name"]
        if name not in values:
            fn, _, key = name.rpartition(".")
            if key not in ("calls", "self_s", "bytes"):
                raise BenchError(f"no rule derives per-layer metric {name!r}")
            values[name] = get(fn, key) / n
        out[name] = values[name]
    return out


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def filesystem(path: Path) -> str:
    """The type of the filesystem ``path`` lives on (e.g. tmpfs, ext4)."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    target, best, fstype = str(path.resolve()), "", "unknown"
    for line in mounts:
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, fstype = mount, parts[2]
    return fstype


def header(s: Settings, workloads, work_root: Path) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    fstype = filesystem(work_root)
    return {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "work_dir": str(work_root),
        "work_dir_fs": fstype,
        "tmpfs": fstype == "tmpfs",
        "seed": s.seed,
        "seconds": s.seconds,
        "trace": int(s.traced),
        "smoke": s.smoke,
        "catalog": "may2004 " + " ".join(s.catalog),
        "calibration_ref_s": CALIBRATION_S,
        "workloads": list(workloads),
    }


def chrome_trace(results: list[Result], t0: float) -> dict:
    """The coarse spans of every traced process as Chrome trace events."""
    events = []
    pid = 0
    for res in results:
        for label, doc in res.traced:
            pid += 1
            events.append(
                {"ph": "M", "name": "process_name", "pid": pid, "tid": 1,
                 "args": {"name": label}}
            )
            for name, start, dur in doc.get("spans", ()):
                events.append(
                    {"ph": "X", "name": name, "cat": res.workload, "pid": pid, "tid": 1,
                     "ts": max(0.0, (start - t0) * 1e6), "dur": dur * 1e6}
                )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def print_result(res: Result, units: dict[str, str]) -> None:
    print(f"[{res.workload}] failed {len(res.errors)}/{res.attempted}")
    for name, value in {**res.metrics, **res.layers}.items():
        print(f"  {name:<44} {value:>14.6g} {units.get(name, '')}")
    for name, value in res.details.items():
        print(f"  {name}: {value}")
    for error in res.errors[:20]:
        print(f"  FAILED: {error}")


RUNNERS = {
    "cold_pipeline": pipeline_workload,
    "warm_pipeline": pipeline_workload,
    "parallel_pipeline": pipeline_workload,
    "serve_replay": serve_workload,
}


def build_parser(default_seconds: float) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=WORKLOADS, default=None,
        help="run one workload (default: all four, one after another)",
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    parser.add_argument(
        "--seconds", type=float, default=default_seconds,
        help=f"measure each workload this long (default {default_seconds:g})",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: report per-layer metrics from runs through shim.py",
    )
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny catalog, one rep per workload (a self-test, not a measurement)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="report JSON (default: WORK_DIR/report.json); a traced run "
        "writes its Chrome trace next to it as *.chrome.json",
    )
    parser.add_argument(
        "--work-dir", type=Path, default=ROOT / ".e2e-work",
        help="where every store and output goes (default: .e2e-work in the checkout)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro").is_dir() or not SPEC.is_file():
        print(
            f"error: {SRC / 'repro'} or {SPEC} is missing; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    spec = load_spec()
    args = build_parser(spec["run_seconds"]).parse_args(argv)
    work_root = args.work_dir.resolve()
    run_dir = work_root / f"run-{os.getpid()}"
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    base = Settings(args.seed, args.seconds, bool(args.trace), args.smoke, run_dir)
    kind = "per_layer" if base.traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    results = []
    try:
        for name in workloads:
            s = Settings(base.seed, base.seconds, base.traced, base.smoke,
                         run_dir / name, base.t0)
            results.append(RUNNERS[name](s, name))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    report = {
        "header": header(base, workloads, work_root),
        "workloads": {
            res.workload: {
                "attempted": res.attempted,
                "failed": len(res.errors),
                "errors": res.errors,
                "end_to_end": res.metrics,
                "per_layer": res.layers,
                "details": res.details,
            }
            for res in results
        },
    }
    output = args.output or work_root / "report.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2) + "\n")
    if base.traced:
        chrome = output.with_name(output.stem + ".chrome.json")
        chrome.write_text(json.dumps(chrome_trace(results, base.t0)) + "\n")

    print(" ".join(f"{k}={v}" for k, v in report["header"].items()))
    for res in results:
        print_result(res, units)
    print(f"report -> {output}")

    metrics = {}
    for res in results:
        values = res.layers if base.traced else res.metrics
        prefix = "" if args.workload else f"{res.workload}."
        for m in spec[kind]:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    failed = sum(len(res.errors) for res in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(res.attempted for res in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
