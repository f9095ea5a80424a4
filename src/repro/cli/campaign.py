"""``repro-campaign``: run a measurement campaign and save the dataset.

Campaigns are cached on disk by content (catalog, seed, settings, and
the source of the modules that simulate and write them): re-running the
same invocation writes the stored CSV bytes instead of re-simulating,
without loading numpy or the engine.  Set ``REPRO_CACHE_DIR`` (or
``--cache-dir``) to relocate the cache, or ``--no-cache`` to bypass it.

Every run also records telemetry (phase timings, cache hit/miss,
simulation counters) and writes it as sidecars of the output —
``X.manifest.json`` + ``X.events.jsonl`` — which ``repro-obs`` renders;
set ``REPRO_OBS=0`` to turn telemetry off entirely.

Campaigns are fault tolerant: every finished (path, trace) pair is
checkpointed (under ``$REPRO_CHECKPOINT_DIR`` or ``--checkpoint-dir``),
failed or hung jobs are retried with capped exponential backoff, and a
run that still dies can be continued with ``--resume`` — only the
missing traces are simulated, and the reassembled dataset is
bit-identical to an uninterrupted run.  See ``docs/robustness.md``.

Examples::

    repro-campaign --catalog may2004 --traces 2 --epochs 60 -o may.csv
    repro-campaign --catalog march2006 --seed 7 -o march.csv
    repro-campaign --catalog may2004 --paths 10 --quiet -o small.csv
    repro-campaign --workers 8 -o full.csv         # parallel simulation
    repro-campaign --workers 0 --no-cache -o f.csv # all CPUs, force re-run
    repro-campaign --workers 8 --resume -o f.csv   # continue a dead run
    repro-obs summary may.csv                      # inspect the telemetry
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from repro.cli import store_dir_error
from repro.core.cachekey import stable_fingerprint
from repro.core.errors import ConfigurationError, ExecutionError
from repro.obs import RunRecorder, get_telemetry
from repro.paths.config import expanded_catalog, march_2006_catalog, may_2004_catalog
from repro.testbed.cache import ENV_CACHE_DIR, DatasetCache, campaign_cache_key
from repro.testbed.campaign import Campaign, CampaignSettings, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - types only: a cache hit loads no engine
    from repro.testbed.executor import CampaignProgress

CATALOGS = {
    "may2004": may_2004_catalog,
    "march2006": march_2006_catalog,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Run a TCP-throughput measurement campaign and save it as CSV.",
    )
    parser.add_argument(
        "--catalog",
        choices=sorted(CATALOGS),
        default="may2004",
        help="path catalog to measure (default: may2004)",
    )
    parser.add_argument(
        "--paths",
        type=int,
        default=None,
        metavar="N",
        help="measure N paths: below the catalog size a stratified "
        "sample, above it the catalog is expanded with independent "
        "clones (e.g. --paths 1000)",
    )
    parser.add_argument("--traces", type=int, default=7, help="traces per path")
    parser.add_argument(
        "--epochs", type=int, default=150, help="epochs per trace"
    )
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="transfer duration (default: 50 s; march2006 default: 120 s)",
    )
    parser.add_argument(
        "--no-small-window",
        action="store_true",
        help="skip the W=20KB companion transfers",
    )
    parser.add_argument(
        "-w",
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for trace simulation; 0 = all CPUs "
        "(default: 1; results are bit-identical for any worker count)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the campaign under cProfile and write the stats "
        "next to the dataset as OUTPUT.pstats (inspect with "
        "'python -m pstats')",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always re-simulate, and do not store the result in the cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="dataset cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/datasets)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip traces already checkpointed by a previous (crashed) run "
        "of this exact campaign; the result is bit-identical to an "
        "uninterrupted run",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="retries per failed/hung/crashed job before aborting (default: 2)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="initial retry backoff, doubled per retry and capped at 8 s "
        "(default: 0.5)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="treat a parallel job running longer than this as hung: kill "
        "its worker and retry it (default: no timeout)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="per-trace checkpoint directory (default: $REPRO_CHECKPOINT_DIR "
        "or ~/.cache/repro/checkpoints)",
    )
    parser.add_argument(
        "--no-checkpoint",
        action="store_true",
        help="do not checkpoint finished traces (a crash loses all progress)",
    )
    parser.add_argument(
        "-o", "--output", required=True, metavar="FILE", help="output CSV path"
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress all progress, summary, and telemetry output",
    )
    return parser


#: The option behind each setting a bad value is rejected for, by the
#: name the setting's ConfigurationError opens with.
_OPTIONS = {
    "n_paths": "--paths",
    "n_traces": "--traces",
    "epochs_per_trace": "--epochs",
    "transfer_duration_s": "--duration",
    "max_retries": "--max-retries",
    "backoff": "--retry-backoff",
    "job_timeout_s": "--job-timeout",
}


def _configure(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> tuple[list, CampaignSettings, RetryPolicy]:
    """The catalog, settings and retry policy the options ask for.

    A bad value is a ``parser.error`` naming its option (exit status 2),
    raised before anything is looked up, simulated or written.
    """
    try:
        catalog = CATALOGS[args.catalog]()
        if args.paths is not None:
            catalog = expanded_catalog(catalog, args.paths)
        is_2006 = args.catalog == "march2006"
        duration = (
            args.duration if args.duration is not None else (120.0 if is_2006 else 50.0)
        )
        settings = CampaignSettings(
            n_traces=args.traces,
            epochs_per_trace=args.epochs,
            transfer_duration_s=duration,
            run_small_window=not args.no_small_window and not is_2006,
            checkpoint_fractions=(0.25, 0.5, 1.0) if is_2006 else (),
        )
        retry = RetryPolicy(
            max_retries=args.max_retries,
            backoff_s=args.retry_backoff,
            job_timeout_s=args.job_timeout,
        )
    except ConfigurationError as exc:
        message = str(exc)
        option = next(
            (flag for name, flag in _OPTIONS.items() if message.startswith(name)), None
        )
        parser.error(f"argument {option}: {message}" if option else message)
    return catalog, settings, retry


def _print_progress(snapshot: CampaignProgress) -> None:
    """Render one live progress line (carriage-return overwritten)."""
    from repro.obs.render import progress_line

    sys.stderr.write("\r" + progress_line(snapshot))
    if snapshot.done:
        sys.stderr.write("\n")
    sys.stderr.flush()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        catalog, settings, retry = _configure(parser, args)
        cache = None if args.no_cache else DatasetCache(args.cache_dir)
        if cache is not None:
            # Made before the lookup; it may also be the output's directory
            # (--cache-dir out/cache -o out/ds.csv).
            error = store_dir_error(
                cache.root, "--cache-dir", args.cache_dir, ENV_CACHE_DIR
            )
            if error:
                parser.error(error)
    except SystemExit as exc:
        # parse_args/parser.error exit; keep main() returning an int so it
        # stays callable programmatically (and from tests).
        return int(exc.code or 0)

    campaign = Campaign(catalog, seed=args.seed, label=args.catalog)
    run_key = campaign_cache_key(campaign, settings)
    cache_key = "" if cache is None else run_key
    recorder = RunRecorder(
        label=args.catalog,
        seed=args.seed,
        catalog_hash=stable_fingerprint(catalog),
        cache_key=cache_key,
        settings=dataclasses.asdict(settings),
        workers=args.workers,
    ).start()

    progress = None if args.quiet else _print_progress
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    entry = None if cache is None else cache.lookup(run_key)
    checkpoint = error = None
    if entry is None and not args.no_checkpoint:
        # Only a miss simulates, so only it loads the checkpoint store
        # (and the engine, which Campaign.run imports).
        from repro.testbed.checkpoint import ENV_CHECKPOINT_DIR, CheckpointStore

        checkpoint = CheckpointStore(args.checkpoint_dir)
        error = store_dir_error(
            checkpoint.root, "--checkpoint-dir", args.checkpoint_dir, ENV_CHECKPOINT_DIR
        )
    # The stores' directories are made first, as either may be the
    # output's; then a missing output directory is found before anything
    # is simulated.
    out_dir = Path(args.output).parent
    if error is None and not out_dir.is_dir():
        error = f"argument -o/--output: directory {out_dir} does not exist"
    if error is not None:
        if profiler is not None:
            profiler.disable()
        print(f"repro-campaign: error: {error}", file=sys.stderr)
        return 2
    try:
        if entry is None:
            dataset = campaign.run(
                settings,
                n_workers=args.workers,
                progress=progress,
                retry=retry,
                checkpoint=checkpoint,
                run_key=run_key,
                resume=args.resume,
            )
    except ExecutionError as exc:
        # The campaign is dead, but its telemetry (retries, failures,
        # the campaign.aborted event) is still worth a manifest — and
        # the checkpoints written so far make `--resume` possible.
        recorder.finish(n_paths=len(catalog))
        if get_telemetry().enabled:
            recorder.write(args.output)
        sys.stderr.write(f"\ncampaign aborted: {exc}\n")
        if checkpoint is not None:
            sys.stderr.write(
                "completed traces are checkpointed; re-run with --resume "
                "to continue from them\n"
            )
        return 1
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(f"{args.output}.pstats")
    # The output write is part of the run; only the sidecars, which
    # carry the wall time, are written after it is stamped.
    hit = entry is not None
    if hit:
        # The entry's CSV was read whole, CRC-checked, before this write.
        with open(args.output, "wb") as handle:
            handle.write(entry.csv)
        summary, n_traces, n_epochs = entry.summary(), entry.n_traces, entry.n_epochs
    else:
        from repro.testbed.io import save_dataset

        csv = save_dataset(dataset, args.output)
        if cache is not None:
            with get_telemetry().timer("cache.store_s"):
                cache.store(run_key, dataset, csv)
        summary, n_traces, n_epochs = (
            dataset.summary(),
            len(dataset.traces),
            dataset.n_epochs,
        )
    manifest = recorder.finish(
        cache_hit=hit, n_paths=len(catalog), n_traces=n_traces, n_epochs=n_epochs
    )
    elapsed = manifest["wall_time_s"]

    telemetry_note = ""
    if get_telemetry().enabled:
        manifest_path, _events_path = recorder.write(args.output)
        if cache is not None and not hit:
            # Leave a copy next to the cache entry too, so the telemetry
            # of the run that populated an entry travels with it.
            recorder.write(cache.path_for(cache_key))
        telemetry_note = f"telemetry -> {manifest_path}"

    if not args.quiet:
        print(summary)
        if hit:
            print(f"cache hit, loaded in {elapsed:.1f}s -> {args.output}")
        else:
            print(
                f"simulated in {elapsed:.1f}s "
                f"(workers={args.workers}) -> {args.output}"
            )
        if telemetry_note:
            print(telemetry_note)
        if profiler is not None:
            print(f"profile -> {args.output}.pstats")
    return 0


if __name__ == "__main__":
    sys.exit(main())
