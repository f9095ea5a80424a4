"""``make analyze-parity``: prove the analysis pipeline output-identical.

Builds one campaign dataset, then runs ``repro-analyze`` on it: a cold
run at one worker (the reference), a cold run at each further requested
worker count (each against a fresh evaluation-cache directory), and a
warm rerun against the reference's now-populated cache.  Every run's
rendered stdout must be *byte-identical* to the reference, and the warm
rerun must have computed nothing: every HB walk must come out of the
cache.

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


def run_analyze(dataset: Path, cache_dir: Path, workers: int) -> tuple[str, str, str]:
    """One ``repro-analyze`` subprocess; returns (stdout sha256, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC)
    env["REPRO_EVAL_CACHE_DIR"] = str(cache_dir)
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


def warm_computed(stderr: str) -> int | None:
    """Evaluations the run computed fresh, parsed from the warm-phase note."""
    match = re.search(r"warm phase: (\d+) evaluations computed", stderr)
    return int(match.group(1)) if match else None


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
        save_dataset(
            Campaign(catalog, seed=args.seed).run(settings), dataset
        )

        warm_cache = workdir / "cache-w1"
        reference, _, _ = run_analyze(dataset, warm_cache, 1)
        pinned = PINNED.get((args.paths, args.traces, args.epochs, args.seed))
        if pinned is None:
            note = "(no pin for this grid)"
        else:
            note = "ok" if reference == pinned else f"MISMATCH pinned {pinned}"
            failed = reference != pinned
        print(f"  workers=1        {reference}  {note}")

        for n_workers in args.workers:
            cache_dir = workdir / f"cache-w{n_workers}"
            digest, _, _ = run_analyze(dataset, cache_dir, n_workers)
            match = digest == reference
            print(
                f"  workers={n_workers}        {digest}  "
                f"{'ok' if match else 'MISMATCH'}"
            )
            failed = failed or not match

        digest, _, stderr = run_analyze(dataset, warm_cache, 1)
        computed = warm_computed(stderr)
        cached_ok = computed == 0
        match = digest == reference
        print(
            f"  workers=1 (warm) {digest}  "
            f"{'ok' if match else 'MISMATCH'}"
            f"{'' if cached_ok else f'  RECOMPUTED {computed} UNITS'}"
        )
        failed = failed or not match or not cached_ok

    if failed:
        print("analyze-parity FAILED: runs disagree or drift from the pin", file=sys.stderr)
        return 1
    print("analyze-parity OK: all runs byte-identical, warm run fully cached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
