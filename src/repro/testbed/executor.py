"""Fault-tolerant parallel campaign execution over (path, trace) units.

The campaign's unit of independence is the (path, trace) pair: each one
draws from its own named RNG stream
(``RngStreams.get(f"{path_id}/trace{i}")``), so a trace simulated alone
in a worker process is bit-identical to the same trace simulated inside
a serial campaign (see ``tests/testbed/test_campaign.py::
test_subset_reproducibility``).  The executor exploits that twice over:

* **parallelism** — traces fan out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` and reassemble in
  catalog order, so the parallel dataset equals the serial one
  regardless of scheduling;
* **fault tolerance** — every finished trace is checkpointed to a
  :class:`~repro.testbed.checkpoint.CheckpointStore` (when one is
  given), a failed or hung job is retried with capped exponential
  backoff (:class:`RetryPolicy`), a crashed worker
  (``BrokenProcessPool``) triggers a pool rebuild, repeated rebuild
  failures degrade gracefully to serial in-process execution, and
  ``resume=True`` skips already-checkpointed traces — reassembling a
  dataset bit-identical to an uninterrupted run.

When a job fails permanently (retries exhausted), outstanding jobs are
cancelled and an :class:`~repro.core.errors.ExecutionError` naming the
failing ``(path_id, trace_index)`` is raised with the worker exception
as its ``__cause__``; a terminal ``campaign.aborted`` event is emitted
and the ``campaign.*`` progress gauges — which are reset at entry so an
aborted run can never leak stale progress into the next one — keep
whatever progress was truthfully made.

Progress is reported per finished trace through an optional callback
receiving :class:`CampaignProgress` snapshots — the CLI renders these
with :func:`repro.obs.render.progress_line`.  Every snapshot is also
published to the metrics registry (``campaign.traces_done`` /
``campaign.epochs_done`` gauges), so progress displays and telemetry
derive from the same numbers and cannot drift apart.  Rendering
progress by printing inside the callback is deprecated: keep callbacks
side-effect-light and let the obs layer own the formatting.

Telemetry collected inside worker processes (phase timers, per-trace
events) is drained per job and merged back into the parent's
collector in job order, so a parallel campaign's telemetry matches the
serial one's.  Failed attempts' partial telemetry is discarded with the
attempt; only the successful attempt of each job is merged.  The serial
path gives every attempt the same isolation — a fresh single-path
campaign (fresh RNG streams) and a drained telemetry collector — so a
serially retried trace is bit-identical to, and reports the same
telemetry as, an uninterrupted run.  Retries,
failures, rebuilds, and resumed traces are themselves counted
(``campaign.retries`` / ``campaign.job_failures`` /
``campaign.pool_rebuilds`` / ``campaign.traces_resumed``) and surface
in the run manifest.

Crash injection (tests and the ``make resume-smoke`` target) is driven
by two environment variables — see :func:`maybe_inject_fault`.
"""

from __future__ import annotations

import os
import time
from collections import deque
from collections.abc import Callable
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.errors import ConfigurationError, ExecutionError
from repro.obs import get_telemetry
from repro.obs.spans import reparent_spans
from repro.paths.records import Dataset, Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.testbed.campaign import Campaign, CampaignSettings
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


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor responds to failing, crashing, or hung jobs.

    Attributes:
        max_retries: extra attempts granted to one job after its first
            failure; ``0`` aborts on the first failure.
        backoff_s: sleep before the first retry; each further retry of
            the same job doubles it.
        backoff_cap_s: upper bound on any single backoff sleep.
        job_timeout_s: wall-clock budget for one parallel job measured
            from dispatch to the pool.  The executor caps in-flight
            submissions at the worker count, so a dispatched job starts
            (nearly) immediately and the budget covers running time,
            not queue wait — a queued job's clock has not started.  A
            job over budget is treated as hung: its workers are
            terminated, the pool is rebuilt, and the job is retried.
            ``None`` disables the watchdog.  Serial execution ignores
            it (there is no second process to enforce it from).
        max_pool_rebuilds: pool rebuilds tolerated (after worker
            crashes or timeouts) before the executor gives up on
            process parallelism and degrades to serial in-process
            execution of the remaining jobs.
    """

    max_retries: int = 2
    backoff_s: float = 0.5
    backoff_cap_s: float = 8.0
    job_timeout_s: float | None = None
    max_pool_rebuilds: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise ConfigurationError("backoff durations must be >= 0")
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise ConfigurationError(
                f"job_timeout_s must be positive, got {self.job_timeout_s}"
            )
        if self.max_pool_rebuilds < 0:
            raise ConfigurationError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )

    def backoff_for(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), capped."""
        if attempt < 1:
            return 0.0
        return min(self.backoff_cap_s, self.backoff_s * (2.0 ** (attempt - 1)))


def resolve_workers(n_workers: int) -> int:
    """Normalize a worker-count request.

    ``0`` (or any non-positive value) means "use all CPUs".

    Raises:
        ConfigurationError: for non-integer values.
    """
    if not isinstance(n_workers, int) or isinstance(n_workers, bool):
        raise ConfigurationError(
            f"n_workers must be an int, got {type(n_workers).__name__}"
        )
    if n_workers <= 0:
        return os.cpu_count() or 1
    return n_workers


#: Crash-injection spec: ``"<path_id>/<trace>:<mode>[:<count>]"`` entries
#: separated by ``;``.  A target of ``*`` matches every job.  Modes:
#: ``raise`` (the job raises), ``exit`` (the process dies via
#: ``os._exit`` — a worker crash in parallel mode, a hard kill in serial
#: mode), ``hang`` (the job sleeps 60 s, tripping the job timeout), and
#: ``nap`` (not a fault: the job sleeps ``<count>`` seconds — a float —
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
    """Crash-injection hook, run at the start of every job attempt.

    A no-op unless ``REPRO_FAULT_SPEC`` is set; exists so tests and the
    ``make resume-smoke`` target can exercise the retry, pool-rebuild,
    timeout, and resume paths against real worker processes.
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


#: Campaign parameters shipped once per worker process by
#: :func:`_init_worker` instead of being pickled into every job:
#: ``(catalog, seed, label, tcp, small_tcp, settings)``.
_WORKER_STATE: tuple | None = None


def _init_worker(catalog, seed, label, tcp, small_tcp, settings) -> None:
    """Pool initializer: receive the campaign parameters one time.

    Runs once in each worker process when the pool spawns it.  Jobs
    afterwards carry only ``(catalog_index, trace_index)`` pairs, so
    dispatching a job no longer pickles the catalog, TCP parameter
    sets, and settings over and over.
    """
    global _WORKER_STATE
    _WORKER_STATE = (catalog, seed, label, tcp, small_tcp, settings)


class ChunkUnitError(ExecutionError):
    """One unit of a multi-unit chunk failed in a worker.

    Identifies the failing ``(path_id, trace_index)`` so the parent can
    attribute the attempt to the right job; the original worker
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
            f"chunk unit (path {self.path_id!r}, trace {self.trace_index}) "
            f"failed: {self.cause_repr}"
        )


def _run_chunk_job(units: tuple) -> list[tuple[Trace, dict[str, Any]]]:
    """Worker entry point: simulate a chunk of (path, trace) units.

    ``units`` is a tuple of ``(catalog_index, trace_index)`` pairs
    resolved against the catalog installed by :func:`_init_worker`.
    Each unit rebuilds a fresh single-path campaign; the named RNG
    streams guarantee every trace matches the serial campaign's copy
    regardless of which worker ran it or how units were chunked.

    Returns one ``(trace, telemetry_snapshot)`` per unit, in order.
    Telemetry is drained per unit, so the parent can merge snapshots in
    job order whatever the chunking.  A failing unit in a multi-unit
    chunk is wrapped in :class:`ChunkUnitError` to identify it; a
    single-unit chunk lets the original exception propagate unchanged.
    """
    from repro.testbed.campaign import Campaign

    assert _WORKER_STATE is not None, "pool initializer did not run"
    catalog, seed, label, tcp, small_tcp, settings = _WORKER_STATE
    telemetry = get_telemetry()
    results = []
    for catalog_index, trace_index in units:
        config = catalog[catalog_index]
        telemetry.drain()  # leftovers from a crashed/failed prior unit
        try:
            # The unit span starts a fresh trace here (workers inherit
            # no span context); the parent re-parents it under the
            # campaign span at merge time.  The sample key matches the
            # serial path's, so both sample identical units.
            with telemetry.span(
                "trace",
                sample_key=f"{config.path_id}/{trace_index}",
                path=config.path_id,
                trace=trace_index,
            ):
                maybe_inject_fault(config.path_id, trace_index)
                campaign = Campaign(
                    [config], seed=seed, label=label, tcp=tcp, small_tcp=small_tcp
                )
                with telemetry.timer("campaign.trace_s"):
                    trace = campaign.run_trace(config, trace_index, settings)
        except Exception as exc:
            if len(units) == 1:
                raise
            raise ChunkUnitError(config.path_id, trace_index, repr(exc)) from exc
        results.append((trace, telemetry.drain()))
    return results


class _CampaignRun:
    """State and helpers shared by the serial and parallel paths of one
    :func:`run_campaign` invocation."""

    def __init__(
        self,
        campaign: "Campaign",
        settings: "CampaignSettings",
        retry: RetryPolicy,
        progress: ProgressCallback | None,
        checkpoint: "CheckpointStore | None",
        run_key: str | None,
        chunk_size: int = 1,
    ) -> None:
        if chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self.campaign = campaign
        self.settings = settings
        self.retry = retry
        self.progress = progress
        self.checkpoint = checkpoint
        self.run_key = run_key or ""
        self.chunk_size = chunk_size
        self.telemetry = get_telemetry()
        self.jobs = [
            (config, trace_index)
            for config in campaign.catalog
            for trace_index in range(settings.n_traces)
        ]
        #: The worker-side identity of ``jobs[i]``: indices into the
        #: catalog shipped once per worker by the pool initializer.
        self.units = [
            (catalog_index, trace_index)
            for catalog_index in range(len(campaign.catalog))
            for trace_index in range(settings.n_traces)
        ]
        self.epochs_total = len(self.jobs) * settings.epochs_per_trace
        self.traces: list[Trace | None] = [None] * len(self.jobs)
        self.snapshots: list[dict[str, Any] | None] = [None] * len(self.jobs)
        self.attempts: dict[int, int] = {}
        self.done_count = 0
        self.started = time.perf_counter()

    # -- progress ------------------------------------------------------

    def reset_gauges(self) -> None:
        """Zero the campaign progress gauges at run entry.

        Without this, an aborted run's last gauge values survive into
        the next in-process run (and its manifest), so ``repro-obs
        compare`` would read stale progress.
        """
        telemetry = self.telemetry
        telemetry.gauge("campaign.traces_done").set(0)
        telemetry.gauge("campaign.epochs_done").set(0)
        telemetry.gauge("campaign.traces_total").set(len(self.jobs))
        telemetry.gauge("campaign.epochs_total").set(self.epochs_total)

    def report(self) -> None:
        snapshot = CampaignProgress(
            traces_done=self.done_count,
            traces_total=len(self.jobs),
            epochs_done=self.done_count * self.settings.epochs_per_trace,
            epochs_total=self.epochs_total,
            elapsed_s=time.perf_counter() - self.started,
        )
        # Progress and telemetry derive from the same snapshot, so the
        # live display and the recorded gauges cannot disagree.
        telemetry = self.telemetry
        telemetry.gauge("campaign.traces_done").set(snapshot.traces_done)
        telemetry.gauge("campaign.traces_total").set(snapshot.traces_total)
        telemetry.gauge("campaign.epochs_done").set(snapshot.epochs_done)
        telemetry.gauge("campaign.epochs_total").set(snapshot.epochs_total)
        if self.progress is not None:
            self.progress(snapshot)

    # -- checkpoint / resume -------------------------------------------

    def resume_completed(self) -> None:
        """Load checkpointed traces; leaves the rest for execution."""
        if self.checkpoint is None:
            return
        resumed = 0
        for index, (config, trace_index) in enumerate(self.jobs):
            trace = self.checkpoint.load_trace(
                self.run_key, config.path_id, trace_index
            )
            if trace is None or len(trace) != self.settings.epochs_per_trace:
                continue
            self.traces[index] = trace
            resumed += 1
        if resumed:
            self.telemetry.counter("campaign.traces_resumed").inc(resumed)
            self.telemetry.emit(
                "campaign.resumed", traces=resumed, total=len(self.jobs)
            )
            self.done_count = resumed
            self.report()

    def complete(self, index: int, trace: Trace) -> None:
        """Record one finished trace: checkpoint it, bump progress."""
        self.traces[index] = trace
        if self.checkpoint is not None:
            self.checkpoint.store_trace(self.run_key, trace)
        self.done_count += 1
        self.report()

    # -- failure accounting --------------------------------------------

    def record_failure(self, index: int, kind: str, error: str) -> int:
        """Count one failed attempt; returns the new attempt number."""
        attempt = self.attempts.get(index, 0) + 1
        self.attempts[index] = attempt
        config, trace_index = self.jobs[index]
        self.telemetry.counter("campaign.job_failures").inc()
        self.telemetry.emit(
            "campaign.job_failure",
            path=config.path_id,
            trace=trace_index,
            attempt=attempt,
            failure=kind,
            error=error,
        )
        return attempt

    def retry_or_abort(self, index: int, kind: str, exc: BaseException | None) -> None:
        """After a failed attempt: sleep for the backoff, or abort.

        Raises:
            ExecutionError: when the job has exhausted its retries.
        """
        attempt = self.record_failure(index, kind, repr(exc) if exc else kind)
        config, trace_index = self.jobs[index]
        if attempt > self.retry.max_retries:
            self.abort(index, kind, exc)
        backoff = self.retry.backoff_for(attempt)
        self.telemetry.counter("campaign.retries").inc()
        self.telemetry.emit(
            "campaign.retry",
            path=config.path_id,
            trace=trace_index,
            attempt=attempt,
            backoff_s=backoff,
        )
        if backoff > 0:
            time.sleep(backoff)

    def abort(self, index: int, kind: str, exc: BaseException | None) -> None:
        """Emit the terminal ``campaign.aborted`` event and raise."""
        config, trace_index = self.jobs[index]
        attempts = self.attempts.get(index, 0)
        self.telemetry.emit(
            "campaign.aborted",
            path=config.path_id,
            trace=trace_index,
            attempts=attempts,
            failure=kind,
            traces_done=self.done_count,
        )
        raise ExecutionError(
            f"campaign job (path {config.path_id!r}, trace {trace_index}) "
            f"failed permanently after {attempts} attempt(s) [{kind}]"
            + (f": {exc!r}" if exc is not None else "")
        ) from exc

    # -- execution paths -----------------------------------------------

    def run_serial(self, indices: list[int]) -> None:
        """Run jobs in-process, with the same retry/backoff semantics.

        Mirrors the worker path (:func:`_run_trace_job`) on both axes of
        attempt isolation:

        * **RNG** — every attempt rebuilds a fresh single-path campaign,
          because ``RngStreams.get`` caches generators per campaign
          instance: retrying through the parent campaign would resume
          from the RNG state the failed attempt already consumed,
          silently producing a different trace than an uninterrupted
          run.  A fresh campaign re-derives the ``path/traceN`` stream
          from the seed, so the retried trace is bit-identical.
        * **telemetry** — each attempt collects into a drained
          collector and is merged back only on success, so a failed
          attempt's partial timers/events are discarded exactly as a
          crashed worker's are.
        """
        from repro.testbed.campaign import Campaign

        campaign, settings = self.campaign, self.settings
        seed = campaign.streams.seed
        for index in indices:
            config, trace_index = self.jobs[index]
            while True:
                held = self.telemetry.drain()
                try:
                    # The unit span nests under the campaign span (the
                    # context survives the drain above); its event lands
                    # in the attempt's collector, so a failed attempt's
                    # span is discarded with the rest — exactly one
                    # span survives per completed unit, as with workers.
                    with self.telemetry.span(
                        "trace",
                        sample_key=f"{config.path_id}/{trace_index}",
                        path=config.path_id,
                        trace=trace_index,
                    ):
                        maybe_inject_fault(config.path_id, trace_index)
                        attempt_campaign = Campaign(
                            [config],
                            seed=seed,
                            label=campaign.label,
                            tcp=campaign.tcp,
                            small_tcp=campaign.small_tcp,
                        )
                        with self.telemetry.timer("campaign.trace_s"):
                            trace = attempt_campaign.run_trace(
                                config, trace_index, settings
                            )
                except ExecutionError:
                    self.telemetry.drain()
                    self.telemetry.merge(held)
                    raise
                except Exception as exc:
                    # Discard the failed attempt's partial telemetry,
                    # restore what the campaign had collected before it.
                    self.telemetry.drain()
                    self.telemetry.merge(held)
                    self.retry_or_abort(index, "error", exc)
                else:
                    snapshot = self.telemetry.drain()
                    self.telemetry.merge(held)
                    self.telemetry.merge(snapshot)
                    break
            self.complete(index, trace)

    def _pool_init(self) -> tuple:
        """The ``(initializer, initargs)`` every pool is built with.

        Ships the campaign parameters (catalog, seed, label, TCP
        parameter sets, settings) once per worker process; jobs then
        carry only ``(catalog_index, trace_index)`` pairs.
        """
        campaign = self.campaign
        return _init_worker, (
            campaign.catalog,
            campaign.streams.seed,
            campaign.label,
            campaign.tcp,
            campaign.small_tcp,
            self.settings,
        )

    def _job_index(self, error: ChunkUnitError, chunk: list[int]) -> int:
        """Map a worker-side unit failure back to its job index."""
        for index in chunk:
            config, trace_index = self.jobs[index]
            if (
                config.path_id == error.path_id
                and trace_index == error.trace_index
            ):
                return index
        return chunk[0]  # stale identity; blame the chunk head

    def run_parallel(self, indices: list[int], n_workers: int) -> None:
        """Run jobs in a worker pool, surviving crashes and hangs.

        Jobs are dispatched in chunks of up to ``chunk_size`` units per
        future (default 1), against workers that received the campaign
        parameters once at pool start.  In-flight submissions are
        capped at the pool's worker count, so a submitted chunk is
        picked up by a free worker (nearly) immediately:
        ``dispatched_at`` approximates the chunk's actual start, and
        the job timeout measures running time rather than queue wait
        (one budget per dispatched *chunk*, so scale ``job_timeout_s``
        with ``chunk_size``).  Retries and not-yet-dispatched jobs sit
        in ``queue`` and are submitted only at the top of the loop,
        where a ``BrokenProcessPool`` raised by ``submit`` itself
        routes into the same rebuild machinery as a crash surfaced by a
        future.

        A failing unit inside a multi-unit chunk takes the attempt
        blame (identified via :class:`ChunkUnitError`); the whole chunk
        is requeued, which is correct — every unit rebuilds its
        campaign from the seed — just mildly wasteful, which is the
        chunking trade-off.
        """
        retry = self.retry
        chunk_size = self.chunk_size
        initializer, initargs = self._pool_init()

        rebuilds = 0
        cap = min(n_workers, len(indices))
        pool: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=cap, initializer=initializer, initargs=initargs
        )
        queue: deque[int] = deque(indices)
        pending: dict[Any, list[int]] = {}
        dispatched_at: dict[Any, float] = {}

        def pending_indices() -> list[int]:
            return [index for chunk in pending.values() for index in chunk]

        def replace_pool(resubmit: list[int]) -> bool:
            """Install a fresh pool for ``resubmit``; ``False`` = degrade."""
            nonlocal pool, rebuilds, cap, queue, pending, dispatched_at
            pool, rebuilds = self._rebuild_pool(rebuilds, n_workers, len(resubmit))
            pending = {}
            dispatched_at = {}
            if pool is None:
                return False
            cap = min(n_workers, len(resubmit))
            queue = deque(resubmit)
            return True

        try:
            while pending or queue:
                # Top up in-flight chunks to the worker count.
                submit_broke_pool = False
                while queue and len(pending) < cap:
                    chunk = [
                        queue.popleft()
                        for _ in range(min(chunk_size, len(queue)))
                    ]
                    try:
                        future = pool.submit(
                            _run_chunk_job,
                            tuple(self.units[index] for index in chunk),
                        )
                    except BrokenProcessPool:
                        queue.extendleft(reversed(chunk))
                        submit_broke_pool = True
                        break
                    pending[future] = chunk
                    dispatched_at[future] = time.perf_counter()
                if submit_broke_pool and not pending:
                    # Nothing in flight to surface the crash through
                    # ``future.result()``; rebuild directly.  No job
                    # takes attempt-count blame (none was running), and
                    # the rebuild cap bounds a pool that keeps breaking.
                    resubmit = sorted(queue)
                    pool.shutdown(wait=False, cancel_futures=True)
                    if not replace_pool(resubmit):
                        self._degrade_to_serial(resubmit)
                        return
                    continue
                # With futures still pending after a failed submit, fall
                # through: those futures are dead too, and wait()
                # surfaces BrokenProcessPool via the crash branch below.
                poll_s = None
                if retry.job_timeout_s is not None and dispatched_at:
                    # Wake often enough to notice the earliest deadline.
                    oldest = min(dispatched_at.values())
                    poll_s = max(
                        0.05,
                        retry.job_timeout_s - (time.perf_counter() - oldest),
                    )
                finished, _ = wait(
                    set(pending), timeout=poll_s, return_when=FIRST_COMPLETED
                )
                if not finished:
                    # Only in-flight (dispatched) chunks can expire; a
                    # queued job's clock has not started.
                    expired = [
                        future
                        for future in pending
                        if time.perf_counter() - dispatched_at[future]
                        >= (retry.job_timeout_s or float("inf"))
                    ]
                    if not expired:
                        continue
                    # A hung worker cannot be cancelled through the
                    # futures API; terminate the pool and rebuild it.
                    try:
                        for future in expired:
                            # The chunk head takes the blame: which unit
                            # hung is unknowable from outside.
                            self.retry_or_abort(
                                pending[future][0], "timeout", None
                            )
                    except ExecutionError:
                        _terminate_pool(pool)
                        raise
                    resubmit = sorted([*pending_indices(), *queue])
                    _terminate_pool(pool)
                    if not replace_pool(resubmit):
                        self._degrade_to_serial(resubmit)
                        return
                    continue
                pool_broken = False
                for future in finished:
                    chunk = pending.pop(future)
                    dispatched_at.pop(future, None)
                    try:
                        results = future.result()
                    except BrokenProcessPool:
                        # Every pending future on this pool is dead; the
                        # first chunk surfaced takes the blame (the true
                        # culprit is unknowable), the rebuild cap bounds
                        # the damage either way.
                        self.retry_or_abort(chunk[0], "worker_crash", None)
                        resubmit = sorted({*chunk, *pending_indices(), *queue})
                        pool.shutdown(wait=False, cancel_futures=True)
                        if not replace_pool(resubmit):
                            self._degrade_to_serial(resubmit)
                            return
                        pool_broken = True
                        break
                    except ChunkUnitError as exc:
                        try:
                            self.retry_or_abort(
                                self._job_index(exc, chunk), "error", exc
                            )
                        except ExecutionError:
                            pool.shutdown(wait=False, cancel_futures=True)
                            raise
                        queue.extend(chunk)
                    except ExecutionError:
                        raise
                    except Exception as exc:
                        try:
                            self.retry_or_abort(chunk[0], "error", exc)
                        except ExecutionError:
                            # Cancel jobs still queued so a dead campaign
                            # does not keep burning CPU behind the raise.
                            pool.shutdown(wait=False, cancel_futures=True)
                            raise
                        # Defer the resubmission to the top of the loop:
                        # submitting here could raise BrokenProcessPool
                        # past the rebuild machinery.
                        queue.extend(chunk)
                    else:
                        for index, (trace, snapshot) in zip(chunk, results):
                            self.snapshots[index] = snapshot
                            self.complete(index, trace)
                if pool_broken:
                    continue
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _rebuild_pool(
        self, rebuilds: int, n_workers: int, n_jobs: int
    ) -> tuple[ProcessPoolExecutor | None, int]:
        """Build a replacement pool, or ``None`` to degrade to serial."""
        rebuilds += 1
        self.telemetry.counter("campaign.pool_rebuilds").inc()
        if rebuilds > self.retry.max_pool_rebuilds:
            return None, rebuilds
        initializer, initargs = self._pool_init()
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(n_workers, max(n_jobs, 1)),
                initializer=initializer,
                initargs=initargs,
            )
        except OSError:  # pragma: no cover - fork failure (fd/memory limits)
            return None, rebuilds
        self.telemetry.emit("campaign.pool_rebuild", rebuild=rebuilds)
        return pool, rebuilds

    def _degrade_to_serial(self, indices: list[int]) -> None:
        """Last resort: finish the remaining jobs in-process."""
        self.telemetry.counter("campaign.degraded").inc()
        self.telemetry.emit(
            "campaign.degraded", remaining=len(indices), reason="pool_rebuild_limit"
        )
        self.run_serial(indices)


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


def run_campaign(
    campaign: "Campaign",
    settings: "CampaignSettings",
    n_workers: int = 1,
    progress: ProgressCallback | None = None,
    *,
    retry: RetryPolicy | None = None,
    checkpoint: "CheckpointStore | None" = None,
    run_key: str | None = None,
    resume: bool = False,
    chunk_size: int | None = None,
) -> Dataset:
    """Execute ``campaign`` with ``settings``, optionally in parallel.

    Args:
        campaign: the campaign to run.
        settings: campaign knobs (traces per path, epochs per trace, ...).
        n_workers: worker processes; 1 runs serially in-process, 0 uses
            all CPUs.
        progress: called after every finished trace with a
            :class:`CampaignProgress` snapshot.
        retry: retry/backoff/timeout policy (default: a
            :class:`RetryPolicy` with two retries and no job timeout).
        chunk_size: (path, trace) units dispatched per parallel job.
            ``None`` (the default) resolves to ``settings.n_traces`` —
            one job per path, since a trace's wall time is small enough
            that per-unit dispatch overhead would dominate.  Explicit
            values override (1 keeps per-unit retry/timeout
            granularity); the result is bit-identical for every chunk
            size.  Serial execution ignores it.
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
    retry = retry or RetryPolicy()
    if chunk_size is None:
        chunk_size = settings.n_traces
    if checkpoint is not None and run_key is None:
        from repro.testbed.cache import campaign_cache_key

        run_key = campaign_cache_key(campaign, settings)

    run = _CampaignRun(
        campaign, settings, retry, progress, checkpoint, run_key, chunk_size
    )
    run.reset_gauges()
    if resume:
        run.resume_completed()
    remaining = [i for i, trace in enumerate(run.traces) if trace is None]
    run.telemetry.counter("campaign.traces_attempted").inc(len(remaining))

    if remaining:
        # The campaign span is the root of the run's trace; unit spans
        # hang under it — directly (serial: the context is ambient) or
        # via re-parenting (parallel: workers' spans come back as roots
        # of private traces).  Tags must not depend on worker count or
        # chunking, or the parity guarantee (parallel tree == serial
        # tree) would break.
        with run.telemetry.span(
            "campaign",
            label=campaign.label,
            paths=len(campaign.catalog),
            traces=settings.n_traces,
            epochs=settings.epochs_per_trace,
        ) as campaign_span:
            if n_workers == 1 or len(remaining) == 1:
                run.run_serial(remaining)
            else:
                run.run_parallel(remaining, n_workers)
            # Merge worker telemetry in job order (not completion order)
            # so the merged events.jsonl line order is independent of
            # scheduling.  Resumed/serial traces contribute no snapshot.
            trace_id = getattr(campaign_span, "trace_id", None)
            for snapshot in run.snapshots:
                if snapshot is not None:
                    if trace_id is not None:
                        reparent_spans(
                            snapshot.get("events", ()),
                            trace_id,
                            campaign_span.span_id,
                        )
                    run.telemetry.merge(snapshot)

    dataset = Dataset(label=campaign.label)
    for trace in run.traces:
        assert trace is not None  # every job completed, resumed, or raised
        dataset.traces.append(trace)
    if checkpoint is not None:
        # The campaign is whole; the crash-recovery copies are done.
        checkpoint.discard(run.run_key)
    return dataset
