"""``make analyze-parity``: prove the analysis pipeline output-identical.

Builds one campaign dataset, then runs ``repro-analyze`` on it: a cold
run at one worker (the reference), a cold run at each further requested
worker count (each against a fresh evaluation-cache directory), a cold
run at two workers whose first job kills its worker process
(``REPRO_FAULT_SPEC="<first trace's path>/0:exit:1"``), a warm rerun
against the reference's now-populated cache, and a rerun after that
cache's pack was overwritten with garbage.  Every run's rendered stdout
must be *byte-identical* to the reference.  Each cold run must leave
exactly one pack file; the crashed run's analysis manifest must report
at least one ``analysis.pool_rebuilds``; the warm rerun must have
computed nothing (every HB walk comes out of the pack) and its analysis
manifest must count no LSO detection (``hb.level_shifts`` and
``hb.outliers_discarded`` absent or 0: no figure re-segments a trace);
the damaged-pack rerun must have recomputed every walk and left the
damaged pack as ``*.corrupt``.

Runs that agree with each other can still agree on a changed output, so
the reference itself is checked against :data:`PINNED`, the stdout
sha256 recorded for a grid before any change to the analysis code.  A
grid without a pin is only checked for agreement.

The default invocation is the full default catalog (may2004, 35 paths x
7 traces x 150 epochs, seed 0).  ``--paths/--traces/--epochs`` shrink
the dataset for quick iteration; the reduced grid is what ``make test``
runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.obs.recorder import analysis_sidecar_paths  # noqa: E402
from repro.paths.config import expanded_catalog, may_2004_catalog  # noqa: E402
from repro.testbed.campaign import Campaign, CampaignSettings  # noqa: E402
from repro.testbed.io import save_dataset  # noqa: E402

#: repro-analyze stdout sha256 per (paths, traces, epochs, seed) grid;
#: ``paths`` None is the full catalog.  An intended output change must
#: update these, with the EXPERIMENTS.md verdicts re-checked.
PINNED = {
    (6, 2, 60, 0): "45165cba5bb9a502bb3220cb9f1e0231c3cf5bd773827f30769ff67b91359c0f",
    (None, 7, 150, 0): "a5f84704c7c71996edeeacfa7cca093a2d0021eed4dfa3cd80ae25bec4fee1fc",
}


def run_analyze(
    dataset: Path, cache_dir: Path, workers: int, **extra_env: str
) -> tuple[str, str, str]:
    """One ``repro-analyze`` subprocess; returns (stdout sha256, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC)
    env["REPRO_EVAL_CACHE_DIR"] = str(cache_dir)
    env.update(extra_env)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli.analyze",
            str(dataset),
            "--workers",
            str(workers),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    return digest, proc.stdout, proc.stderr


def warm_counts(stderr: str) -> tuple[int, int] | None:
    """(computed, cached) evaluations, parsed from the warm-phase note."""
    match = re.search(r"warm phase: (\d+) evaluations computed, (\d+) cached", stderr)
    return (int(match.group(1)), int(match.group(2))) if match else None


def counter(manifest_path: Path, name: str) -> int:
    """A counter's value in an analysis manifest (0 when absent)."""
    manifest = json.loads(manifest_path.read_text())
    return sum(e["value"] for e in manifest.get("counters", ()) if e["name"] == name)


def one_pack(cache_dir: Path) -> tuple[bool, str]:
    """Whether a cold run left exactly one pack (and nothing else)."""
    names = sorted(p.name for p in cache_dir.iterdir())
    ok = len(names) == 1 and names[0].endswith(".npz")
    return ok, "" if ok else f"  CACHE DIR HOLDS {names}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff repro-analyze output across workers and cache state."
    )
    parser.add_argument(
        "--paths", type=int, default=None, metavar="N",
        help="restrict/expand the catalog to N paths (default: all)",
    )
    parser.add_argument(
        "--traces", type=int, default=7, metavar="N",
        help="traces per path (default: 7, the paper's)",
    )
    parser.add_argument(
        "--epochs", type=int, default=150, metavar="N",
        help="epochs per trace (default: 150, the paper's)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    parser.add_argument(
        "--workers", type=int, nargs="+", default=[2, 4], metavar="N",
        help="worker counts compared against the one-worker reference "
        "(default: 2 4)",
    )
    args = parser.parse_args(argv)

    catalog = may_2004_catalog()
    if args.paths is not None:
        catalog = expanded_catalog(catalog, args.paths)
    settings = CampaignSettings(n_traces=args.traces, epochs_per_trace=args.epochs)
    print(
        f"analyze-parity may2004: {len(catalog)} paths x {args.traces} traces "
        f"x {args.epochs} epochs, seed {args.seed}"
    )

    failed = False
    with tempfile.TemporaryDirectory(prefix="analyze-parity-") as tmp:
        workdir = Path(tmp)
        dataset = workdir / "parity.csv"
        campaign_dataset = Campaign(catalog, seed=args.seed).run(settings)
        save_dataset(campaign_dataset, dataset)

        warm_cache = workdir / "cache-w1"
        reference, _, stderr = run_analyze(dataset, warm_cache, 1)
        pinned = PINNED.get((args.paths, args.traces, args.epochs, args.seed))
        if pinned is None:
            note = "(no pin for this grid)"
        else:
            note = "ok" if reference == pinned else f"MISMATCH pinned {pinned}"
            failed = reference != pinned
        packed, pack_note = one_pack(warm_cache)
        print(f"  workers=1        {reference}  {note}{pack_note}")
        failed = failed or not packed
        counts = warm_counts(stderr)
        planned = sum(counts) if counts else None

        for n_workers in args.workers:
            cache_dir = workdir / f"cache-w{n_workers}"
            digest, _, _ = run_analyze(dataset, cache_dir, n_workers)
            match = digest == reference
            packed, pack_note = one_pack(cache_dir)
            print(
                f"  workers={n_workers}        {digest}  "
                f"{'ok' if match else 'MISMATCH'}{pack_note}"
            )
            failed = failed or not match or not packed

        # A worker dies on the first trace's job; the engine must rebuild
        # its pool and still produce the reference output.
        target = f"{campaign_dataset.traces[0].path_id}/0"
        digest, _, _ = run_analyze(
            dataset,
            workdir / "cache-crash",
            2,
            REPRO_FAULT_SPEC=f"{target}:exit:1",
            REPRO_FAULT_DIR=str(workdir / "faults"),
        )
        manifest_path, _ = analysis_sidecar_paths(dataset)
        rebuilds = counter(manifest_path, "analysis.pool_rebuilds")
        match = digest == reference
        print(
            f"  workers=2 (exit) {digest}  {'ok' if match else 'MISMATCH'}"
            f"{'' if rebuilds else f'  NO POOL REBUILD AFTER {target}:exit'}"
        )
        failed = failed or not match or not rebuilds

        digest, _, stderr = run_analyze(dataset, warm_cache, 1)
        counts = warm_counts(stderr)
        cached_ok = counts is not None and counts[0] == 0
        detections = {
            name: counter(manifest_path, name)
            for name in ("hb.level_shifts", "hb.outliers_discarded")
        }
        rescanned = any(detections.values())
        match = digest == reference
        print(
            f"  workers=1 (warm) {digest}  "
            f"{'ok' if match else 'MISMATCH'}"
            f"{'' if cached_ok else f'  RECOMPUTED {counts} (computed, cached)'}"
            f"{f'  LSO RE-RUN {detections}' if rescanned else ''}"
        )
        failed = failed or not match or not cached_ok or rescanned

        packs = list(warm_cache.glob("*.npz"))
        for pack in packs:
            pack.write_bytes(b"garbage, not a pack")
        digest, _, stderr = run_analyze(dataset, warm_cache, 1)
        counts = warm_counts(stderr)
        recomputed = counts == (planned, 0)
        quarantined = bool(packs) and all(
            pack.with_name(pack.name + ".corrupt").is_file() for pack in packs
        )
        match = digest == reference
        notes = "" if recomputed else f"  {counts} (computed, cached), not all {planned} computed"
        notes += "" if quarantined else "  DAMAGED PACK NOT QUARANTINED"
        print(f"  workers=1 (bad)  {digest}  {'ok' if match else 'MISMATCH'}{notes}")
        failed = failed or not match or not recomputed or not quarantined

    if failed:
        print(
            "analyze-parity FAILED: runs disagree, drift from the pin, a "
            "crashed worker's pool was not rebuilt, the warm run re-ran LSO "
            "detection, or the cache misbehaved",
            file=sys.stderr,
        )
        return 1
    print(
        "analyze-parity OK: all runs byte-identical, one pack per cold run, "
        "crashed worker's pool rebuilt, warm run fully cached with no LSO "
        "detection, damaged pack recomputed"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
