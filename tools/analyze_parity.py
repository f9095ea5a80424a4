"""``make analyze-parity``: prove the analysis pipeline output-identical.

Builds one campaign dataset, then runs ``repro-analyze`` on it: a cold
run at one worker (the reference), a cold run at each further requested
worker count (each against a fresh evaluation-cache directory), a cold
run at two workers whose first job kills its worker process
(``REPRO_FAULT_SPEC="<first trace's path>/0:exit:1"``), a rerun against
the reference's now-populated cache, served from its stored report; a
warm rerun with that report deleted; a rerun after the pack and columns
entry were overwritten with garbage, and one after the first member
header of the pack named an unsupported compression method and that of
the columns entry set the encrypted flag (each with the report deleted
first); a rerun after the report was overwritten with garbage, and one
after it was cut off mid-document; and a rerun by a copy of the source
whose CSV parser (``repro/testbed/io.py``) carries one more comment.
Every run's rendered stdout must be *byte-identical* to the reference.
Each cold run must leave exactly one pack file, one columns entry and
one report, and its analysis manifest must say the dataset was parsed
(``analysis.loaded_from: "csv"``); the crashed run's manifest must
report at least one ``analysis.pool_rebuilds``; the report rerun must
have been served from it (``"report"``) with nothing computed; the warm
rerun must have read the columns entry (``"columns"``), computed nothing
(every HB walk comes out of the pack) and counted no LSO detection
(``hb.level_shifts`` and ``hb.outliers_discarded`` absent or 0: no
figure re-segments a trace); each damaged rerun must have parsed the CSV
again, recomputed every walk and left both damaged files, byte for
byte, as ``*.corrupt``; each damaged-report rerun must have read the
columns entry, computed nothing, counted one ``evalcache.corrupt``, left
the damaged report as ``*.corrupt`` and written it again; the
edited-parser rerun must have missed the report (its key covers every
source file), parsed the CSV again (the entry's key covers the parser's
source) and computed nothing (the pack's does not).  Finally a copy of
the dataset with one cell made ``nan`` in its last row must be refused
(exit 2) twice, leaving no file in the cache: a failed load stores
nothing to be served later.

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
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
for _path in (_SRC, _ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.obs.recorder import analysis_sidecar_paths  # noqa: E402
from repro.paths.config import expanded_catalog, may_2004_catalog  # noqa: E402
from repro.testbed.campaign import Campaign, CampaignSettings  # noqa: E402
from repro.testbed.io import save_dataset  # noqa: E402
from tests.testbed.entry_damage import encrypted_flag, unsupported_method  # noqa: E402

#: repro-analyze stdout sha256 per (paths, traces, epochs, seed) grid;
#: ``paths`` None is the full catalog.  An intended output change must
#: update these, with the EXPERIMENTS.md verdicts re-checked.
PINNED = {
    (6, 2, 60, 0): "45165cba5bb9a502bb3220cb9f1e0231c3cf5bd773827f30769ff67b91359c0f",
    (None, 7, 150, 0): "a5f84704c7c71996edeeacfa7cca093a2d0021eed4dfa3cd80ae25bec4fee1fc",
}


def run_analyze(
    dataset: Path, cache_dir: Path, workers: int, src: Path = _SRC, **extra_env: str
) -> tuple[str, str, str]:
    """One ``repro-analyze`` subprocess, run from the source tree ``src``;
    returns (stdout sha256, stdout, stderr)."""
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli.analyze",
            str(dataset),
            "--workers",
            str(workers),
        ],
        env=analyze_env(cache_dir, src, **extra_env),
        capture_output=True,
        text=True,
        check=True,
    )
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    return digest, proc.stdout, proc.stderr


def analyze_env(cache_dir: Path, src: Path = _SRC, **extra_env: str) -> dict[str, str]:
    """The environment of a ``repro-analyze`` run from ``src`` over ``cache_dir``."""
    return {
        **os.environ,
        "PYTHONPATH": str(src),
        "REPRO_EVAL_CACHE_DIR": str(cache_dir),
        **extra_env,
    }


def warm_counts(stderr: str) -> tuple[int, int] | None:
    """(computed, cached) evaluations, parsed from the warm-phase note."""
    match = re.search(r"warm phase: (\d+) evaluations computed, (\d+) cached", stderr)
    return (int(match.group(1)), int(match.group(2))) if match else None


def counter(manifest_path: Path, name: str) -> int:
    """A counter's value in an analysis manifest (0 when absent)."""
    manifest = json.loads(manifest_path.read_text())
    return sum(e["value"] for e in manifest.get("counters", ()) if e["name"] == name)


def loaded_from(manifest_path: Path) -> str | None:
    """What an analysis manifest says the dataset was read from."""
    manifest = json.loads(manifest_path.read_text())
    return manifest.get("analysis", {}).get("loaded_from")


def one_pack(cache_dir: Path, manifest_path: Path) -> tuple[bool, str]:
    """Whether a cold run left exactly one pack, one columns entry and
    one report (and nothing else), having parsed the CSV."""
    names = sorted(p.name for p in cache_dir.iterdir())
    entries = [name for name in names if name.endswith(".columns.npz")]
    packs = [name for name in names if name.endswith(".npz") and name not in entries]
    reports = [name for name in names if name.endswith(".report.json")]
    source = loaded_from(manifest_path)
    ok = (
        len(names) == 3
        and len(entries) == len(packs) == len(reports) == 1
        and source == "csv"
    )
    return ok, "" if ok else f"  CACHE DIR HOLDS {names}, LOADED FROM {source}"


def forget_report(cache_dir: Path) -> None:
    """Delete the stored report: the next run loads, walks and renders."""
    for report in cache_dir.glob("*.report.json"):
        report.unlink()


def garbage(path: Path) -> None:
    path.write_bytes(b"garbage, not an entry")


def truncated(path: Path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def damaged_rerun(
    dataset: Path, cache_dir: Path, planned: int | None, reference: str, damage: dict
) -> tuple[bool, str]:
    """Damage the pack and the columns entry in ``cache_dir`` (``damage``
    maps ``"pack"`` and ``"columns"`` to a function of the path), rerun,
    and check: the reference output, every walk recomputed, the CSV
    parsed, and each damaged file quarantined as it was left."""
    forget_report(cache_dir)
    damaged = {}
    for path in cache_dir.glob("*.npz"):
        damage["columns" if path.name.endswith(".columns.npz") else "pack"](path)
        damaged[path] = path.read_bytes()
    digest, _, stderr = run_analyze(dataset, cache_dir, 1)
    manifest_path, _ = analysis_sidecar_paths(dataset)
    counts = warm_counts(stderr)
    recomputed = counts == (planned, 0)
    parsed = loaded_from(manifest_path) == "csv"
    kept = [path.with_name(path.name + ".corrupt") for path in damaged]
    quarantined = len(damaged) == 2 and all(
        corrupt.is_file() and corrupt.read_bytes() == data
        for corrupt, data in zip(kept, damaged.values())
    )
    match = digest == reference
    notes = "" if recomputed else f"  {counts} (computed, cached), not all {planned} computed"
    notes += "" if parsed else "  DAMAGED COLUMNS READ"
    notes += "" if quarantined else f"  {len(damaged)} FILES, NOT ALL QUARANTINED"
    ok = match and recomputed and parsed and quarantined
    return ok, f"{digest}  {'ok' if match else 'MISMATCH'}{notes}"


def damaged_report_rerun(
    dataset: Path, cache_dir: Path, walks: int | None, reference: str, damage
) -> tuple[bool, str]:
    """Damage the report in ``cache_dir`` with ``damage``, rerun, and
    check: the reference output, read from the columns entry with every
    walk taken from the pack, one ``evalcache.corrupt``, the damaged
    report quarantined as it was left and a report written again."""
    (report,) = cache_dir.glob("*.report.json")
    damage(report)
    data = report.read_bytes()
    digest, _, stderr = run_analyze(dataset, cache_dir, 1)
    manifest_path, _ = analysis_sidecar_paths(dataset)
    counts = warm_counts(stderr)
    cached = counts == (0, walks)
    source = loaded_from(manifest_path)
    corrupt = report.with_name(report.name + ".corrupt")
    quarantined = (
        counter(manifest_path, "evalcache.corrupt") == 1
        and corrupt.read_bytes() == data
        and report.is_file()
    )
    match = digest == reference
    notes = "" if cached else f"  {counts} (computed, cached), not 0 and {walks}"
    notes += "" if source == "columns" else f"  LOADED FROM {source}"
    notes += "" if quarantined else "  REPORT NOT QUARANTINED AND REWRITTEN"
    ok = match and cached and source == "columns" and quarantined
    return ok, f"{digest}  {'ok' if match else 'MISMATCH'}{notes}"


def with_edited_parser(workdir: Path) -> Path:
    """A copy of the source tree whose CSV parser carries one more comment."""
    src = workdir / "src-edited"
    shutil.copytree(
        _SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
    )
    parser = src / "repro" / "testbed" / "io.py"
    parser.write_text(parser.read_text() + "\n# edited\n")
    return src


def with_nan_in_last_row(dataset: Path, workdir: Path) -> Path:
    """A copy of ``dataset`` whose last row's ``ahat_mbps`` is ``nan``: it
    parses up to that row, then fails."""
    lines = dataset.read_text().splitlines(keepends=True)
    at = lines[1].split(",").index("ahat_mbps")
    fields = lines[-1].split(",")
    fields[at] = "nan"
    lines[-1] = ",".join(fields)
    bad = workdir / "bad.csv"
    bad.write_text("".join(lines))
    return bad


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

        manifest_path, _ = analysis_sidecar_paths(dataset)
        warm_cache = workdir / "cache-w1"
        reference, _, stderr = run_analyze(dataset, warm_cache, 1)
        pinned = PINNED.get((args.paths, args.traces, args.epochs, args.seed))
        if pinned is None:
            note = "(no pin for this grid)"
        else:
            note = "ok" if reference == pinned else f"MISMATCH pinned {pinned}"
            failed = reference != pinned
        packed, pack_note = one_pack(warm_cache, manifest_path)
        print(f"  workers=1        {reference}  {note}{pack_note}")
        failed = failed or not packed
        counts = warm_counts(stderr)
        planned = sum(counts) if counts else None

        for n_workers in args.workers:
            cache_dir = workdir / f"cache-w{n_workers}"
            digest, _, _ = run_analyze(dataset, cache_dir, n_workers)
            match = digest == reference
            packed, pack_note = one_pack(cache_dir, manifest_path)
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
        rebuilds = counter(manifest_path, "analysis.pool_rebuilds")
        match = digest == reference
        print(
            f"  workers=2 (exit) {digest}  {'ok' if match else 'MISMATCH'}"
            f"{'' if rebuilds else f'  NO POOL REBUILD AFTER {target}:exit'}"
        )
        failed = failed or not match or not rebuilds

        # The same inputs again: the stored report answers, as it was.
        digest, _, stderr = run_analyze(dataset, warm_cache, 1)
        counts = warm_counts(stderr)
        served = counts == (0, planned) and loaded_from(manifest_path) == "report"
        match = digest == reference
        print(
            f"  workers=1 (rpt)  {digest}  {'ok' if match else 'MISMATCH'}"
            f"{'' if served else f'  NOT SERVED FROM THE REPORT {counts}'}"
        )
        failed = failed or not match or not served

        # Without the report: the columns entry and the pack answer.
        forget_report(warm_cache)
        digest, _, stderr = run_analyze(dataset, warm_cache, 1)
        counts = warm_counts(stderr)
        cached_ok = counts is not None and counts[0] == 0
        detections = {
            name: counter(manifest_path, name)
            for name in ("hb.level_shifts", "hb.outliers_discarded")
        }
        rescanned = any(detections.values())
        columns = loaded_from(manifest_path) == "columns"
        match = digest == reference
        print(
            f"  workers=1 (warm) {digest}  "
            f"{'ok' if match else 'MISMATCH'}"
            f"{'' if cached_ok else f'  RECOMPUTED {counts} (computed, cached)'}"
            f"{f'  LSO RE-RUN {detections}' if rescanned else ''}"
            f"{'' if columns else '  CSV PARSED AGAIN'}"
        )
        failed = failed or not match or not cached_ok or rescanned or not columns

        # The pack and the columns entry, both overwritten with garbage;
        # then the fresh ones, each with a first member header that no
        # zip reader can read.
        for label, damage in (
            ("bad", {"pack": garbage, "columns": garbage}),
            ("hdr", {"pack": unsupported_method, "columns": encrypted_flag}),
        ):
            ok, line = damaged_rerun(dataset, warm_cache, planned, reference, damage)
            print(f"  workers=1 ({label})  {line}")
            failed = failed or not ok

        # The report, overwritten with garbage, then cut off mid-document.
        for label, damage in (("rpt-bad", garbage), ("rpt-cut", truncated)):
            ok, line = damaged_report_rerun(
                dataset, warm_cache, planned, reference, damage
            )
            print(f"  workers=1 ({label}) {line}")
            failed = failed or not ok

        # An edited parser must not read the report or the entry the old
        # code wrote; the pack's key does not cover the parser, so no walk
        # is computed.
        edited_src = with_edited_parser(workdir)
        digest, _, stderr = run_analyze(dataset, warm_cache, 1, src=edited_src)
        counts = warm_counts(stderr)
        cached_ok = counts is not None and counts[0] == 0
        source = loaded_from(manifest_path)
        parsed = source == "csv"
        match = digest == reference
        notes = "" if cached_ok else f"  RECOMPUTED {counts} (computed, cached)"
        notes += "" if parsed else f"  STALE {source.upper()} READ BY AN EDITED PARSER"
        print(f"  workers=1 (edit) {digest}  {'ok' if match else 'MISMATCH'}{notes}")
        failed = failed or not match or not cached_ok or not parsed

        # A CSV that fails to load is refused, every time: no entry of it.
        bad = with_nan_in_last_row(dataset, workdir)
        before = {p.name for p in warm_cache.iterdir()}
        codes = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli.analyze", str(bad)],
                env=analyze_env(warm_cache),
                capture_output=True,
            )
            codes.append(proc.returncode)
        stored = sorted({p.name for p in warm_cache.iterdir()} - before)
        refused = codes == [2, 2] and not stored
        print(
            f"  unloadable CSV   exit {codes}"
            f"{'  ok' if refused else f'  NOT REFUSED, CACHE GAINED {stored}'}"
        )
        failed = failed or not refused

    if failed:
        print(
            "analyze-parity FAILED: runs disagree, drift from the pin, a "
            "crashed worker's pool was not rebuilt, the rerun was not served "
            "from its report, the warm run re-ran LSO detection or parsed the "
            "CSV, or the cache misbehaved",
            file=sys.stderr,
        )
        return 1
    print(
        "analyze-parity OK: all runs byte-identical, one pack, one columns "
        "entry and one report per cold run, crashed worker's pool rebuilt, "
        "rerun served from its report, warm run fully cached with no LSO "
        "detection and no CSV parse, damaged files recomputed, damaged "
        "reports quarantined and rewritten, edited parser parsed again, "
        "unloadable CSV stored nothing"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
