"""``make vector-parity``: the fluid engine's pinned-digest gate.

Runs the same campaign on the fluid engine at each requested worker
count, saves every run through the CSV writer, and compares sha256
digests.  Any mismatch exits 1 and names the run.

On the default grid — the full default catalog (may2004, 35 paths x 7
traces x 150 epochs, seed 0) — every digest must equal
:data:`PINNED_SHA256`, the digest the engine and the per-epoch
reference loop (``tests/fastpath/oracle.py``) both produce.  The
oracle comparison itself runs in ``tests/fastpath/test_vector.py``.
``--paths/--traces/--epochs``
(or another catalog or seed) shrink the campaign for quick iteration;
on such a reduced grid there is no pin, and every worker count must
reproduce the first one's digest.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.paths.config import (  # noqa: E402
    expanded_catalog,
    march_2006_catalog,
    may_2004_catalog,
)
from repro.testbed.campaign import Campaign, CampaignSettings  # noqa: E402
from repro.testbed.io import save_dataset  # noqa: E402

CATALOGS = {
    "may2004": may_2004_catalog,
    "march2006": march_2006_catalog,
}

#: sha256 of the default grid's campaign CSV; the same value as
#: ``DEFAULT_CATALOG_SHA256`` in ``tests/fastpath/test_vector.py``.
PINNED_SHA256 = "3487ff2c0fa965927088df86f6ea7709283d9dfeea54dd88ffbde4e376fd097b"

#: (catalog, paths, traces, epochs, seed) of the default grid.
DEFAULT_GRID = ("may2004", None, 7, 150, 0)


def campaign_digest(
    n_workers: int,
    catalog,
    settings: CampaignSettings,
    seed: int,
    workdir: Path,
) -> str:
    """Run the campaign at ``n_workers`` and hash its CSV bytes."""
    dataset = Campaign(catalog, seed=seed).run(settings, n_workers=n_workers)
    path = workdir / f"w{n_workers}.csv"
    save_dataset(dataset, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Check the fluid engine's CSV digests across worker counts."
    )
    parser.add_argument(
        "--catalog",
        choices=sorted(CATALOGS),
        default="may2004",
        help="path catalog (default: may2004)",
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
        "--workers",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        metavar="N",
        help="worker counts to run (default: 1 2 4)",
    )
    args = parser.parse_args(argv)

    catalog = CATALOGS[args.catalog]()
    if args.paths is not None:
        catalog = expanded_catalog(catalog, args.paths)
    is_2006 = args.catalog == "march2006"
    settings = CampaignSettings(
        n_traces=args.traces,
        epochs_per_trace=args.epochs,
        transfer_duration_s=120.0 if is_2006 else 50.0,
        run_small_window=not is_2006,
        checkpoint_fractions=(0.25, 0.5, 1.0) if is_2006 else (),
    )
    grid = (args.catalog, args.paths, args.traces, args.epochs, args.seed)
    reference = PINNED_SHA256 if grid == DEFAULT_GRID else None
    shape = (
        f"{args.catalog}: {len(catalog)} paths x {args.traces} traces "
        f"x {args.epochs} epochs, seed {args.seed}"
    )
    print(f"vector-parity {shape}")
    print(f"  pinned     {reference or '(none: reduced grid)'}")

    failed = False
    with tempfile.TemporaryDirectory(prefix="vector-parity-") as tmp:
        for n_workers in args.workers:
            digest = campaign_digest(
                n_workers, catalog, settings, args.seed, Path(tmp)
            )
            reference = reference or digest
            match = digest == reference
            verdict = "ok" if match else "MISMATCH"
            print(f"  workers={n_workers}  {digest}  {verdict}")
            failed = failed or not match
    if failed:
        print("vector-parity FAILED: CSV digests disagree", file=sys.stderr)
        return 1
    print("vector-parity OK (CSV sha256 identical for every run)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
