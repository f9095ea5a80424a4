"""The fault-tolerant engine that runs per-trace jobs, serially or over a pool.

Both fan-outs of the pipeline run on :func:`run_jobs`: the campaign
(:func:`run_campaign`, one job per path, one unit per trace) and the
HB warm phase of ``repro-analyze``
(:func:`repro.analysis.parallel.warm_eval_cache`, one job per trace).
A :class:`Unit` is one ``(path_id, trace)`` pair plus the payload its
caller's work function needs.  Whatever the caller, the engine gives:

* **one unit body** — :func:`_run_unit` runs every attempt, in a worker
  process and in the serial path alike: a ``trace`` span, the
  crash-injection hook (:func:`maybe_inject_fault`), and a drained
  telemetry collector, so a failed attempt's partial telemetry is
  discarded and only a successful attempt's snapshot is kept;
* **fault tolerance** — a failed attempt is retried with capped
  exponential backoff (:class:`RetryPolicy`), a job over its timeout has
  its workers terminated, a crashed worker (``BrokenProcessPool``)
  triggers a pool rebuild, and repeated rebuilds degrade gracefully to
  serial in-process execution;
* **planned order** — results, and each unit's telemetry snapshot, come
  back in the caller's planned order whatever the scheduling, and worker
  spans are re-parented under the run's root span, so a parallel run's
  results, counters and span tree equal the serial run's.

When a unit fails permanently (retries exhausted), outstanding jobs are
cancelled and an :class:`~repro.core.errors.ExecutionError` naming the
failing ``(path_id, trace)`` is raised with the worker exception as its
``__cause__``, after a terminal ``<name>.aborted`` event.  Counters and
events are named after the caller: ``campaign.retries``,
``analysis.pool_rebuilds`` and so on (``docs/robustness.md``).

:func:`run_campaign` adds what only the campaign needs.  Each
(path, trace) pair draws from its own named RNG stream, so a trace
simulated in a worker, retried, or reloaded from a
:class:`~repro.testbed.checkpoint.CheckpointStore` (``resume=True``) is
bit-identical to the same trace in an uninterrupted serial campaign.
Progress is reported per finished trace through an optional callback
receiving :class:`CampaignProgress` snapshots, which the CLI renders
with :func:`repro.obs.render.progress_line`; every snapshot is also
published as the ``campaign.*`` progress gauges, reset at entry so an
aborted run can never leak stale progress into the next one.

Crash injection (tests, ``make resume-smoke`` and ``make
analyze-parity``) is driven by two environment variables — see
:func:`maybe_inject_fault`.
"""

from __future__ import annotations

import os
import time
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.core.errors import ConfigurationError, ExecutionError
from repro.core.workers import resolve_workers
from repro.obs import get_telemetry
from repro.testbed.campaign import Campaign, CampaignSettings, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - types only: the pool path, numpy
    from concurrent.futures import ProcessPoolExecutor

    from repro.paths.records import Dataset, Trace
    from repro.testbed.checkpoint import CheckpointStore


@dataclass(frozen=True)
class CampaignProgress:
    """A progress snapshot emitted after every completed trace.

    Attributes:
        traces_done: traces finished so far (checkpoint-resumed traces
            count as done from the start).
        traces_total: traces the campaign will run in total.
        epochs_done: epochs contained in the finished traces.
        epochs_total: epochs the campaign will simulate in total.
        elapsed_s: wall-clock seconds since the campaign started.
    """

    traces_done: int
    traces_total: int
    epochs_done: int
    epochs_total: int
    elapsed_s: float

    @property
    def epochs_per_s(self) -> float:
        """Simulation throughput so far (0.0 before any time elapsed)."""
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.epochs_done / self.elapsed_s

    @property
    def eta_s(self) -> float:
        """Estimated seconds to completion at the current rate."""
        rate = self.epochs_per_s
        if rate <= 0.0:
            return float("inf")
        return (self.epochs_total - self.epochs_done) / rate

    @property
    def done(self) -> bool:
        """Whether every trace has finished."""
        return self.traces_done >= self.traces_total


ProgressCallback = Callable[[CampaignProgress], None]


#: Crash-injection spec: ``"<path_id>/<trace>:<mode>[:<count>]"`` entries
#: separated by ``;``.  A target of ``*`` matches every unit.  Modes:
#: ``raise`` (the unit raises), ``exit`` (the process dies via
#: ``os._exit`` — a worker crash in parallel mode, a hard kill in serial
#: mode), ``hang`` (the unit sleeps 60 s, tripping the job timeout), and
#: ``nap`` (not a fault: the unit sleeps ``<count>`` seconds — a float —
#: on every attempt, for tests that need jobs of a known duration).
#: With ``REPRO_FAULT_DIR`` set, each crash entry triggers at most
#: ``count`` times across all processes (claimed through ``O_EXCL``
#: marker files); without it, the entry triggers every time.
ENV_FAULT_SPEC = "REPRO_FAULT_SPEC"

#: Directory for cross-process fault trigger accounting (see above).
ENV_FAULT_DIR = "REPRO_FAULT_DIR"

#: How long an injected ``hang`` fault sleeps.
_HANG_FAULT_S = 60.0


def maybe_inject_fault(path_id: str, trace_index: int) -> None:
    """Crash-injection hook, run at the start of every unit attempt.

    A no-op unless ``REPRO_FAULT_SPEC`` is set; exists so tests and the
    ``make resume-smoke``/``make analyze-parity`` targets can exercise
    the retry, pool-rebuild, timeout, and resume paths against real
    worker processes.
    """
    spec = os.environ.get(ENV_FAULT_SPEC, "").strip()
    if not spec:
        return
    target = f"{path_id}/{trace_index}"
    fault_dir = os.environ.get(ENV_FAULT_DIR, "").strip()
    for entry in spec.split(";"):
        parts = entry.strip().split(":")
        if len(parts) < 2 or parts[0] not in (target, "*"):
            continue
        mode = parts[1]
        if mode == "nap":
            # A deterministic slowdown, not a fault: every attempt
            # sleeps, so tests can give jobs a known duration.
            time.sleep(float(parts[2]) if len(parts) > 2 else 0.1)
            return
        count = int(parts[2]) if len(parts) > 2 else 1
        if fault_dir and not _claim_fault_token(fault_dir, target, mode, count):
            continue
        if mode == "raise":
            raise RuntimeError(f"injected fault for job {target}")
        if mode == "exit":
            os._exit(17)
        if mode == "hang":
            time.sleep(_HANG_FAULT_S)
            return
        raise ConfigurationError(f"unknown fault mode {mode!r} in {entry!r}")


def _claim_fault_token(fault_dir: str, target: str, mode: str, count: int) -> bool:
    """Atomically claim one of ``count`` trigger tokens for a fault."""
    os.makedirs(fault_dir, exist_ok=True)
    safe = target.replace("/", "-")
    for n in range(count):
        marker = os.path.join(fault_dir, f"{safe}.{mode}.{n}")
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            return True
        except FileExistsError:
            continue
    return False


class Unit(NamedTuple):
    """One work unit: the (path, trace) it covers and its payload.

    ``path_id`` and ``trace`` name the unit in fault specs, spans,
    failure events and errors; ``payload`` is what the caller's work
    function needs, pickled to a worker with the unit.
    """

    path_id: str
    trace: int
    payload: Any


class ChunkUnitError(ExecutionError):
    """One unit of a multi-unit job failed in a worker.

    Identifies the failing ``(path_id, trace_index)`` so the parent can
    attribute the attempt to the right unit; the original worker
    exception is summarized in ``cause_repr`` (the live exception
    object cannot cross the process boundary as a ``__cause__``).

    All constructor arguments are passed to ``Exception.__init__`` so
    the instance pickles cleanly back to the parent.
    """

    def __init__(self, path_id: str, trace_index: int, cause_repr: str) -> None:
        super().__init__(path_id, trace_index, cause_repr)
        self.path_id = path_id
        self.trace_index = trace_index
        self.cause_repr = cause_repr

    def __str__(self) -> str:
        return (
            f"unit (path {self.path_id!r}, trace {self.trace_index}) of a "
            f"multi-unit job failed: {self.cause_repr}"
        )


#: ``(work, shared)`` installed once per worker process by
#: :func:`_init_worker` instead of being pickled into every job.
_WORKER_STATE: tuple | None = None


def _init_worker(work: Callable[[Any, Unit], Any], shared: Any) -> None:
    """Pool initializer: receive the work function and shared state once.

    Jobs afterwards carry only their units, so a campaign's catalog, TCP
    parameter sets and settings are pickled once per worker process, not
    once per job.
    """
    global _WORKER_STATE
    _WORKER_STATE = (work, shared)


def _run_unit(
    work: Callable[[Any, Unit], Any], shared: Any, unit: Unit
) -> tuple[Any, dict[str, Any]]:
    """One attempt at one unit — the body of the serial path and the workers.

    The attempt records into a drained collector and returns its
    snapshot with the result; the collector's earlier contents are
    restored either way, so a failed attempt's partial telemetry is
    discarded, in-process exactly as in a crashed worker.  The ``trace``
    span nests under the run's root span wherever the span context is
    present (in-process, and in workers forked while the root span is
    open); a worker without it records the root of a private trace,
    which the parent re-parents at merge time.  The sample key is the
    same everywhere, so every path samples identical units.
    """
    telemetry = get_telemetry()
    held = telemetry.drain()
    try:
        with telemetry.span(
            "trace",
            sample_key=f"{unit.path_id}/{unit.trace}",
            path=unit.path_id,
            trace=unit.trace,
        ):
            maybe_inject_fault(unit.path_id, unit.trace)
            result = work(shared, unit)
    finally:
        snapshot = telemetry.drain()
        telemetry.merge(held)
    return result, snapshot


def _run_job(units: tuple[Unit, ...]) -> list[tuple[Any, dict[str, Any]]]:
    """Worker entry point: run one job's units in order.

    Returns one ``(result, telemetry snapshot)`` per unit.  A failing
    unit of a multi-unit job is wrapped in :class:`ChunkUnitError` to
    name it; a single-unit job lets the original exception propagate
    unchanged.
    """
    assert _WORKER_STATE is not None, "pool initializer did not run"
    work, shared = _WORKER_STATE
    results = []
    for unit in units:
        try:
            results.append(_run_unit(work, shared, unit))
        except Exception as exc:
            if len(units) == 1:
                raise
            raise ChunkUnitError(unit.path_id, unit.trace, repr(exc)) from exc
    return results


class _Engine:
    """State of one :func:`run_jobs` invocation.

    Units are addressed by their position in planned order (the jobs'
    units, flattened); a job is the list of its units' positions.
    """

    def __init__(
        self,
        name: str,
        work: Callable[[Any, Unit], Any],
        shared: Any,
        jobs: Sequence[Sequence[Unit]],
        retry: RetryPolicy,
        on_complete: Callable[[int, Any], None] | None,
    ) -> None:
        self.name = name
        self.work = work
        self.shared = shared
        self.retry = retry
        self.on_complete = on_complete
        self.telemetry = get_telemetry()
        self.units: list[Unit] = []
        self.jobs: list[list[int]] = []
        for job in jobs:
            start = len(self.units)
            self.units.extend(job)
            self.jobs.append(list(range(start, len(self.units))))
        self.results: list[Any] = [None] * len(self.units)
        self.snapshots: list[dict[str, Any] | None] = [None] * len(self.units)
        self.merged = 0  # snapshots merged so far, a prefix in planned order
        self.root: Any = None  # the run's root span, set by run_jobs
        self.attempts: dict[int, int] = {}
        self.done = 0

    def complete(self, index: int, result: Any, snapshot: dict[str, Any]) -> None:
        self.results[index] = result
        self.snapshots[index] = snapshot
        self.done += 1
        # Merge in planned order, not completion order, so the merged
        # events' line order does not depend on scheduling; a snapshot
        # waits only for units planned before it (in a serial run, none).
        snapshots = self.snapshots
        while self.merged < len(snapshots) and snapshots[self.merged] is not None:
            self.merge(snapshots[self.merged])
            snapshots[self.merged] = None
            self.merged += 1
        if self.on_complete is not None:
            self.on_complete(index, result)

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Merge a unit's telemetry, its spans re-parented under the root."""
        trace_id = getattr(self.root, "trace_id", None)
        if trace_id is not None:
            from repro.obs.spans import reparent_spans

            reparent_spans(snapshot.get("events", ()), trace_id, self.root.span_id)
        self.telemetry.merge(snapshot)

    # -- failure accounting --------------------------------------------

    def retry_or_abort(self, index: int, kind: str, exc: BaseException | None) -> None:
        """Count a failed attempt, then sleep for the backoff or abort.

        Raises:
            ExecutionError: when the unit has exhausted its retries.
        """
        name, telemetry = self.name, self.telemetry
        unit = self.units[index]
        attempt = self.attempts.get(index, 0) + 1
        self.attempts[index] = attempt
        telemetry.counter(f"{name}.job_failures").inc()
        telemetry.emit(
            f"{name}.job_failure",
            path=unit.path_id,
            trace=unit.trace,
            attempt=attempt,
            failure=kind,
            error=repr(exc) if exc else kind,
        )
        if attempt > self.retry.max_retries:
            telemetry.emit(
                f"{name}.aborted",
                path=unit.path_id,
                trace=unit.trace,
                attempts=attempt,
                failure=kind,
                traces_done=self.done,
            )
            raise ExecutionError(
                f"{name} job (path {unit.path_id!r}, trace {unit.trace}) "
                f"failed permanently after {attempt} attempt(s) [{kind}]"
                + (f": {exc!r}" if exc is not None else "")
            ) from exc
        backoff = self.retry.backoff_for(attempt)
        telemetry.counter(f"{name}.retries").inc()
        telemetry.emit(
            f"{name}.retry",
            path=unit.path_id,
            trace=unit.trace,
            attempt=attempt,
            backoff_s=backoff,
        )
        if backoff > 0:
            time.sleep(backoff)

    def _unit_index(self, error: ChunkUnitError, job: list[int]) -> int:
        """Map a worker-side unit failure back to its position."""
        for index in job:
            unit = self.units[index]
            if (unit.path_id, unit.trace) == (error.path_id, error.trace_index):
                return index
        return job[0]  # stale identity; blame the job head

    # -- execution paths -----------------------------------------------

    def run_serial(self, indices: Sequence[int]) -> None:
        """Run units in-process, one at a time, with the same retries.

        Unit by unit, not job by job: each unit completes (and the
        campaign checkpoints it) before the next starts, so a failure
        later in a path's job loses nothing already simulated.
        """
        for index in indices:
            while True:
                try:
                    result, snapshot = _run_unit(
                        self.work, self.shared, self.units[index]
                    )
                except ExecutionError:
                    raise
                except Exception as exc:
                    self.retry_or_abort(index, "error", exc)
                else:
                    break
            self.complete(index, result, snapshot)

    def _new_pool(self, n_workers: int, n_jobs: int) -> ProcessPoolExecutor:
        # The pool machinery (and ``multiprocessing`` with it) loads here,
        # on the pool path only: serial runs never import it.
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=min(n_workers, max(n_jobs, 1)),
            initializer=_init_worker,
            initargs=(self.work, self.shared),
        )

    def run_parallel(self, jobs: list[list[int]], n_workers: int) -> None:
        """Run jobs in a worker pool, surviving crashes and hangs.

        In-flight submissions are capped at the worker count, so a
        submitted job is picked up by a free worker (nearly)
        immediately: ``dispatched_at`` approximates the job's actual
        start, and the job timeout measures running time rather than
        queue wait (one budget per job).  Retried and not-yet-dispatched
        jobs sit in ``queue`` and are submitted only at the top of the
        loop, where a ``BrokenProcessPool`` raised by ``submit`` itself
        routes into the same rebuild machinery as a crash surfaced by a
        future.  A failed job is retried whole: its units are
        recomputed, which is always correct because each unit rebuilds
        its state from its payload.
        """
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        timeout = self.retry.job_timeout_s
        rebuilds = 0
        pool = self._new_pool(n_workers, len(jobs))
        queue: deque[list[int]] = deque(jobs)
        pending: dict[Any, list[int]] = {}
        dispatched_at: dict[Any, float] = {}

        def restart(resubmit: list[list[int]], hung: bool = False) -> bool:
            """Replace the pool for ``resubmit``; ``False`` = degraded."""
            nonlocal pool, rebuilds, queue, pending, dispatched_at
            if hung:
                _terminate_pool(pool)
            else:
                pool.shutdown(wait=False, cancel_futures=True)
            rebuilds += 1
            self.telemetry.counter(f"{self.name}.pool_rebuilds").inc()
            queue, pending, dispatched_at = deque(sorted(resubmit)), {}, {}
            pool = None
            if rebuilds <= self.retry.max_pool_rebuilds:
                try:
                    pool = self._new_pool(n_workers, len(resubmit))
                except OSError:  # pragma: no cover - fd/memory limits
                    pass
            if pool is None:
                self.telemetry.counter(f"{self.name}.degraded").inc()
                self.telemetry.emit(
                    f"{self.name}.degraded",
                    remaining=len(resubmit),
                    reason="pool_rebuild_limit",
                )
                self.run_serial([index for job in queue for index in job])
                return False
            self.telemetry.emit(f"{self.name}.pool_rebuild", rebuild=rebuilds)
            return True

        try:
            while pending or queue:
                # Top up in-flight jobs to the worker count.
                submit_broke_pool = False
                while queue and len(pending) < n_workers:
                    job = queue.popleft()
                    try:
                        future = pool.submit(
                            _run_job, tuple(self.units[index] for index in job)
                        )
                    except BrokenProcessPool:
                        queue.appendleft(job)
                        submit_broke_pool = True
                        break
                    pending[future] = job
                    dispatched_at[future] = time.perf_counter()
                if submit_broke_pool and not pending:
                    # Nothing in flight to surface the crash through
                    # ``future.result()``; rebuild directly.  No unit
                    # takes attempt-count blame (none was running), and
                    # the rebuild cap bounds a pool that keeps breaking.
                    if not restart(list(queue)):
                        return
                    continue
                # With futures still pending after a failed submit, fall
                # through: those futures are dead too, and wait()
                # surfaces BrokenProcessPool via the crash branch below.
                poll_s = None
                if timeout is not None and dispatched_at:
                    # Wake often enough to notice the earliest deadline.
                    oldest = min(dispatched_at.values())
                    poll_s = max(0.05, timeout - (time.perf_counter() - oldest))
                finished, _ = wait(
                    set(pending), timeout=poll_s, return_when=FIRST_COMPLETED
                )
                if not finished:
                    # Only in-flight (dispatched) jobs can expire; a
                    # queued job's clock has not started.
                    now = time.perf_counter()
                    expired = [
                        future
                        for future in pending
                        if now - dispatched_at[future] >= (timeout or float("inf"))
                    ]
                    if not expired:
                        continue
                    # A hung worker cannot be cancelled through the
                    # futures API; terminate the pool and rebuild it.
                    try:
                        for future in expired:
                            # The job head takes the blame: which unit
                            # hung is unknowable from outside.
                            self.retry_or_abort(pending[future][0], "timeout", None)
                    except ExecutionError:
                        _terminate_pool(pool)
                        raise
                    if not restart([*pending.values(), *queue], hung=True):
                        return
                    continue
                for future in finished:
                    job = pending.pop(future)
                    dispatched_at.pop(future, None)
                    try:
                        results = future.result()
                    except BrokenProcessPool:
                        # Every pending future on this pool is dead; the
                        # first job surfaced takes the blame (the true
                        # culprit is unknowable), the rebuild cap bounds
                        # the damage either way.
                        self.retry_or_abort(job[0], "worker_crash", None)
                        if not restart([job, *pending.values(), *queue]):
                            return
                        break
                    except ChunkUnitError as exc:
                        self.retry_or_abort(self._unit_index(exc, job), "error", exc)
                        # Resubmit at the top of the loop: submitting
                        # here could raise BrokenProcessPool past the
                        # rebuild machinery.
                        queue.append(job)
                    except ExecutionError:
                        raise
                    except Exception as exc:
                        self.retry_or_abort(job[0], "error", exc)
                        queue.append(job)
                    else:
                        for index, (result, snapshot) in zip(job, results):
                            self.complete(index, result, snapshot)
        finally:
            # Cancels jobs still queued, so a dead run does not keep
            # burning CPU behind a raise.
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Kill a pool whose workers may be hung.

    ``shutdown`` alone would block behind (or leak) a hung worker;
    terminating the processes is the only way to reclaim them.  Worker
    handles live in a private attribute, so degrade to a plain shutdown
    if the interpreter does not expose it.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except OSError:  # pragma: no cover - already gone
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def run_jobs(
    name: str,
    work: Callable[[Any, Unit], Any],
    shared: Any,
    jobs: Sequence[Sequence[Unit]],
    *,
    n_workers: int = 1,
    retry: RetryPolicy | None = None,
    on_complete: Callable[[int, Any], None] | None = None,
    **span_tags: Any,
) -> list[Any]:
    """Run every unit of ``jobs`` through ``work``, serially or over a pool.

    Args:
        name: the caller (``"campaign"``, ``"analysis"``): the name of
            the run's root span and the prefix of its counters and
            events.
        work: ``work(shared, unit) -> result``, a module-level function
            (workers receive it by reference).
        shared: what every unit needs, shipped once per worker process.
        jobs: the units, grouped into jobs, in planned order.  A job is
            dispatched to one worker and retried whole.
        n_workers: resolved worker count; 1, or a single unit, runs
            serially in-process.
        retry: retry/backoff/timeout policy (default: :class:`RetryPolicy`).
        on_complete: called in this process as
            ``on_complete(position, result)`` after each unit completes,
            ``position`` being the unit's place in planned order.
        span_tags: tags of the root span.  They must not depend on the
            worker count, or the parity guarantee (parallel tree ==
            serial tree) would break.

    Returns:
        Every unit's result, in planned order.

    Raises:
        ExecutionError: when a unit fails permanently; outstanding jobs
            are cancelled and the failing ``(path_id, trace)`` is named.
    """
    engine = _Engine(name, work, shared, jobs, retry or RetryPolicy(), on_complete)
    with engine.telemetry.span(name, **span_tags) as engine.root:
        try:
            if n_workers == 1 or len(engine.units) == 1:
                engine.run_serial(range(len(engine.units)))
            else:
                engine.run_parallel(engine.jobs, n_workers)
        finally:
            # An aborted run keeps the telemetry of every unit it
            # completed, including those past the failed one.
            for snapshot in engine.snapshots:
                if snapshot is not None:
                    engine.merge(snapshot)
    return engine.results


# -- the campaign ------------------------------------------------------


def _simulate_trace(shared: tuple, unit: Unit) -> Trace:
    """Campaign work: simulate one (path, trace) unit.

    ``shared`` is ``(catalog, seed, label, tcp, small_tcp, settings)``
    and the payload the unit's catalog index.  Every attempt builds a
    fresh single-path campaign: ``RngStreams.get`` caches generators per
    campaign instance, so retrying through a used campaign would resume
    from the RNG state the failed attempt consumed.  A fresh campaign
    re-derives the ``path/traceN`` streams from the seed, so the trace
    is bit-identical wherever, and however often, it ran.
    """
    catalog, seed, label, tcp, small_tcp, settings = shared
    config = catalog[unit.payload]
    campaign = Campaign([config], seed=seed, label=label, tcp=tcp, small_tcp=small_tcp)
    with get_telemetry().timer("campaign.trace_s"):
        return campaign.run_trace(config, unit.trace, settings)


class _Progress:
    """Campaign progress: callback snapshots and gauges from one count."""

    def __init__(
        self, callback: ProgressCallback | None, traces_total: int, epochs_per_trace: int
    ) -> None:
        self.callback = callback
        self.traces_total = traces_total
        self.epochs_per_trace = epochs_per_trace
        self.done = 0
        self.started = time.perf_counter()
        # Zero the gauges at entry: without this, an aborted run's last
        # values would survive into the next in-process run's manifest.
        self._publish()

    def _publish(self) -> CampaignProgress:
        snapshot = CampaignProgress(
            traces_done=self.done,
            traces_total=self.traces_total,
            epochs_done=self.done * self.epochs_per_trace,
            epochs_total=self.traces_total * self.epochs_per_trace,
            elapsed_s=time.perf_counter() - self.started,
        )
        telemetry = get_telemetry()
        for field in ("traces_done", "traces_total", "epochs_done", "epochs_total"):
            telemetry.gauge(f"campaign.{field}").set(getattr(snapshot, field))
        return snapshot

    def advance(self, traces: int = 1) -> None:
        """Count finished traces; the live display and the recorded
        gauges derive from the same snapshot, so they cannot disagree."""
        self.done += traces
        snapshot = self._publish()
        if self.callback is not None:
            self.callback(snapshot)


def run_campaign(
    campaign: Campaign,
    settings: CampaignSettings,
    n_workers: int = 1,
    progress: ProgressCallback | None = None,
    *,
    retry: RetryPolicy | None = None,
    checkpoint: "CheckpointStore | None" = None,
    run_key: str | None = None,
    resume: bool = False,
) -> Dataset:
    """Execute ``campaign`` with ``settings``, optionally in parallel.

    The engine gets one job per path, holding that path's traces still
    to simulate.

    Args:
        campaign: the campaign to run.
        settings: campaign knobs (traces per path, epochs per trace, ...).
        n_workers: worker processes; 1 runs serially in-process, 0 uses
            all CPUs.
        progress: called after every finished trace with a
            :class:`CampaignProgress` snapshot.
        retry: retry/backoff/timeout policy (default: a
            :class:`RetryPolicy` with two retries and no job timeout).
        checkpoint: when given, every finished trace is persisted here
            under ``run_key``, and the store is cleared once the
            campaign completes.
        run_key: checkpoint namespace; defaults to the campaign's
            content fingerprint
            (:func:`~repro.testbed.cache.campaign_cache_key`), so
            checkpoints never cross campaigns.
        resume: skip (path, trace) pairs already checkpointed under
            ``run_key``, loading their traces from disk instead of
            re-simulating.  Requires ``checkpoint``.

    Returns:
        The dataset, with traces in catalog x trace-index order — the
        same order (and the same bits) as an uninterrupted serial
        ``Campaign.run``, whether traces were simulated here, retried,
        or resumed from checkpoints.

    Raises:
        ExecutionError: when a job fails permanently; outstanding jobs
            are cancelled and the failing ``(path_id, trace_index)`` is
            named in the message.
    """
    n_workers = resolve_workers(n_workers)
    if checkpoint is not None and run_key is None:
        from repro.testbed.cache import campaign_cache_key

        run_key = campaign_cache_key(campaign, settings)
    telemetry = get_telemetry()
    catalog = campaign.catalog
    pairs = [
        (catalog_index, trace_index)
        for catalog_index in range(len(catalog))
        for trace_index in range(settings.n_traces)
    ]
    traces: list[Trace | None] = [None] * len(pairs)
    tracker = _Progress(progress, len(pairs), settings.epochs_per_trace)
    if resume and checkpoint is not None:
        for index, (catalog_index, trace_index) in enumerate(pairs):
            trace = checkpoint.load_trace(
                run_key, catalog[catalog_index].path_id, trace_index
            )
            if trace is not None and len(trace) == settings.epochs_per_trace:
                traces[index] = trace
        resumed = len(pairs) - traces.count(None)
        if resumed:
            telemetry.counter("campaign.traces_resumed").inc(resumed)
            telemetry.emit("campaign.resumed", traces=resumed, total=len(pairs))
            tracker.advance(resumed)
    remaining = [index for index, trace in enumerate(traces) if trace is None]
    telemetry.counter("campaign.traces_attempted").inc(len(remaining))

    def complete(position: int, trace: Trace) -> None:
        traces[remaining[position]] = trace
        if checkpoint is not None:
            checkpoint.store_trace(run_key, trace)
        tracker.advance()

    if remaining:
        jobs: dict[int, list[Unit]] = {}
        for index in remaining:
            catalog_index, trace_index = pairs[index]
            jobs.setdefault(catalog_index, []).append(
                Unit(catalog[catalog_index].path_id, trace_index, catalog_index)
            )
        shared = (
            catalog,
            campaign.seed,
            campaign.label,
            campaign.tcp,
            campaign.small_tcp,
            settings,
        )
        run_jobs(
            "campaign",
            _simulate_trace,
            shared,
            list(jobs.values()),
            n_workers=n_workers,
            retry=retry,
            on_complete=complete,
            label=campaign.label,
            paths=len(catalog),
            traces=settings.n_traces,
            epochs=settings.epochs_per_trace,
        )

    from repro.paths.records import Dataset

    dataset = Dataset(label=campaign.label, traces=traces)
    if checkpoint is not None:
        # The campaign is whole; the crash-recovery copies are done.
        checkpoint.discard(run_key)
    return dataset
