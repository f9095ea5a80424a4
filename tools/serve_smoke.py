"""End-to-end smoke test for repro-serve (``make serve-smoke``).

Boots the real CLI as a subprocess on an ephemeral port, drives it over
HTTP, and checks the full lifecycle the unit tests can't cover from
inside one process:

1. ingest a short trace and read back a forecast that exactly matches
   an offline StreamingPredictorState fed the same samples;
2. read ``/paths/{key}/quality`` and check the online error series is
   bit-identical to a twin QualityTracker replaying the same stream
   (the walk-forward parity the quality layer promises), and that
   ``repro-obs quality <url>`` renders it against the live server;
3. every response carries an ``X-Request-Id`` and every request lands
   in the JSONL access log with phase timings;
4. SIGTERM → clean exit (code 0), snapshot (``snapshot_version`` 2)
   and manifest written, the manifest carrying the quality section;
5. restart from the snapshot → the restored forecast is bit-identical;
6. restart once more with ``hw`` added, so it starts fresh beside the
   restored predictors, and POST a batch holding a level shift and an
   outlier → every predictor's forecast equals a standalone twin's, and
   the manifest counts each detection once per path kernel
   (``hb.level_shifts``, ``hb.outliers_discarded``): the restored
   ``ma10`` and ``ewma`` share one kernel, the fresh ``hw`` has its own;
7. served equals evaluated: a fresh server at the default predictors
   takes a series with a level shift and outliers one sample per POST,
   and the ``hw`` forecasts read after each are the walk-forward
   predictions the figures compute for HW-LSO
   (``evaluate_predictor(series, hb_eval.with_lso(hb_eval.hw()))``), bit
   for bit, ``None`` where the walk has NaN.

Exits non-zero with a one-line reason on any failure.  Artifacts land
in --workdir (default .serve-smoke/).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import selectors
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.analysis import hb_eval  # noqa: E402
from repro.core.timeseries import TimeSeries  # noqa: E402
from repro.hb.evaluate import evaluate_predictor  # noqa: E402
from repro.hb.streaming import (  # noqa: E402
    DEFAULT_SERVE_PREDICTORS,
    SERVE_PREDICTORS,
    StreamingPredictorState,
)
from repro.obs.quality import QualityConfig, QualityTracker  # noqa: E402
from repro.serve.state import default_specs  # noqa: E402

SAMPLES = [42.0, 44.5, 41.8, 43.2, 150.0, 42.6, 43.9, 42.1, 44.0, 43.3]
PREDICTORS = ["ma10", "ewma"]
#: Posted after the second restart: an outlier, then a level shift.
SHIFT_BATCH = [43.0, 44.1, 180.0, 42.8, 88.0, 90.5, 89.2, 91.0, 88.7, 90.1]
#: Posted one sample at a time in step 7: 44 samples, a level shift at
#: sample 22 and an outlier on each side of it.
WALK = [
    40.0 * (1.0 + 0.02 * ((7 * k) % 5 - 2)) * (2.1 if k >= 22 else 1.0)
    for k in range(44)
]
WALK[9] *= 3.5
WALK[31] *= 0.3
START_TIMEOUT_S = 20.0
STOP_TIMEOUT_S = 20.0

#: X-Request-Id of every response received (order of arrival).
request_ids: list[str] = []


def fail(reason: str) -> None:
    print(f"serve-smoke: FAIL: {reason}", file=sys.stderr)
    sys.exit(1)


def spawn(
    workdir: Path, predictors: list[str] = PREDICTORS
) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli.serve",
            "--port",
            "0",
            "--predictors",
            ",".join(predictors),
            "--snapshot",
            str(workdir / "state.json"),
            "--manifest",
            str(workdir / "manifest.json"),
            "--access-log",
            str(workdir / "access.jsonl"),
            "--label",
            "serve-smoke",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    # The port is ephemeral: parse it from the startup banner, with a
    # deadline so a broken server can't hang the smoke run.  Read raw
    # chunks with os.read — a buffered readline() can swallow a line
    # *past* the one it returns (e.g. the restore notice and the banner
    # arriving in one pipe chunk), leaving select() waiting on an fd
    # that is empty while the banner sits in the Python-side buffer.
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    deadline = time.monotonic() + START_TIMEOUT_S
    banner = ""
    marker = "listening on http://"
    while time.monotonic() < deadline:
        if not sel.select(timeout=0.2):
            if proc.poll() is not None:
                fail(f"server exited during startup: {banner!r}")
            continue
        chunk = os.read(proc.stdout.fileno(), 4096).decode(errors="replace")
        if not chunk:
            if proc.poll() is not None:
                fail(f"server exited during startup: {banner!r}")
            continue
        banner += chunk
        if marker in banner:
            tail = banner.split(marker, 1)[1]
            if "\n" in tail:
                port = int(tail.split("\n", 1)[0].rsplit(":", 1)[1])
                return proc, port
    proc.kill()
    fail(f"no startup banner within {START_TIMEOUT_S}s (got {banner!r})")
    raise AssertionError  # unreachable


def http(port: int, method: str, path: str, body: dict | None = None) -> dict:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        method=method,
        data=json.dumps(body).encode() if body is not None else None,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            request_id = response.headers.get("X-Request-Id")
            if not request_id:
                fail(f"{method} {path} response lacks an X-Request-Id header")
            request_ids.append(request_id)
            return json.loads(response.read())
    except urllib.error.HTTPError as exc:
        fail(f"{method} {path} -> HTTP {exc.code}: {exc.read()!r}")
        raise AssertionError  # unreachable


def quality_twin() -> QualityTracker:
    """Replay SAMPLES through a twin tracker in the store's scoring order."""
    tracker = QualityTracker(QualityConfig())
    for name, spec in default_specs(PREDICTORS).items():
        state = StreamingPredictorState(spec)
        last = state.prediction()
        for value in SAMPLES:
            previous = last
            last = state.ingest(value)
            tracker.score(
                "smoke-path",
                name,
                previous,
                value,
                level_shifts=state.n_level_shifts,
            )
    return tracker


def run_obs_quality(port: int) -> None:
    """``repro-obs quality <url>`` must render against the live server."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli.obs",
            "quality",
            f"http://127.0.0.1:{port}",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )
    if result.returncode != 0:
        fail(f"repro-obs quality exited {result.returncode}: {result.stderr!r}")
    if "quality:" not in result.stdout:
        fail(f"repro-obs quality output unexpected: {result.stdout!r}")
    print("serve-smoke: repro-obs quality renders the live server")


def check_access_log(workdir: Path) -> None:
    """Every response we received must be one JSONL record with phases."""
    log_path = workdir / "access.jsonl"
    if not log_path.exists():
        fail("access log was not written")
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    by_id = {record["id"]: record for record in records}
    missing = [rid for rid in request_ids if rid not in by_id]
    if missing:
        fail(f"responses missing from the access log: {missing}")
    for rid in request_ids:
        if not by_id[rid].get("phases"):
            fail(f"access record lacks phase laps: {by_id[rid]}")
    print(f"serve-smoke: access log holds all {len(request_ids)} traced requests")


def manifest_counter(manifest: dict, name: str) -> int:
    return sum(c["value"] for c in manifest.get("counters", ()) if c["name"] == name)


def check_grown_restart(workdir: Path) -> None:
    """Restart with ``hw`` added and feed a shift: twins and kernel counts."""
    grown = [*PREDICTORS, "hw"]
    twins = {
        name: StreamingPredictorState(spec)
        for name, spec in default_specs(grown).items()
    }
    for name in PREDICTORS:  # restored from the snapshot; hw starts fresh
        for value in SAMPLES:
            twins[name].ingest(value)
    # One kernel per distinct state: the restored one (ma10 and ewma) and
    # hw's own.
    kernels = [twins["ma10"].diagnostics(), twins["hw"].diagnostics()]
    for value in SHIFT_BATCH:
        for twin in twins.values():
            twin.ingest(value)
    after = [twins["ma10"].diagnostics(), twins["hw"].diagnostics()]
    expected = {}
    for counter, key in (
        ("hb.level_shifts", "n_level_shifts"),
        ("hb.outliers_discarded", "n_outliers"),
    ):
        found = [b[key] - a[key] for a, b in zip(kernels, after)]
        if min(found) < 1:
            fail(f"the shift batch must give each kernel a {key} detection")
        expected[counter] = sum(found)

    proc, port = spawn(workdir, grown)
    try:
        doc = http(port, "POST", "/paths/smoke-path/samples", {"samples": SHIFT_BATCH})
        if doc["accepted"] != len(SHIFT_BATCH):
            fail(f"expected {len(SHIFT_BATCH)} accepted samples, got {doc}")
        for name, twin in twins.items():
            doc = http(port, "GET", f"/paths/smoke-path/predict?predictor={name}")
            if doc["prediction"] != twin.prediction():
                fail(
                    f"{name} forecast {doc['prediction']!r} after the grown "
                    f"restart != standalone twin {twin.prediction()!r}"
                )
    finally:
        stop(proc)
    manifest = json.loads((workdir / "manifest.json").read_text())
    counted = {name: manifest_counter(manifest, name) for name in expected}
    if counted != expected:
        fail(f"manifest counts {counted}, one per path-kernel detection is {expected}")
    print(
        "serve-smoke: a grown restart matches standalone twins; detections "
        f"counted once per path kernel ({counted})"
    )


def check_served_equals_evaluated(workdir: Path) -> None:
    """The served ``hw`` forecasts are the figures' HW-LSO walk, bit for bit."""
    walk = evaluate_predictor(
        TimeSeries.from_values(WALK, name="walk"), hb_eval.with_lso(hb_eval.hw())
    ).predictions
    expected = [None if math.isnan(p) else float(p) for p in walk]
    served = [None]  # before the first sample the path does not exist
    workdir.mkdir(parents=True, exist_ok=True)
    proc, port = spawn(workdir, list(DEFAULT_SERVE_PREDICTORS))
    try:
        for value in WALK[:-1]:
            http(port, "POST", "/paths/walk-path/samples", {"samples": [value]})
            doc = http(port, "GET", "/paths/walk-path/predict?predictor=hw")
            served.append(doc["prediction"])
        info = http(port, "GET", "/paths/walk-path")["predictors"]["hw"]
    finally:
        stop(proc)
    if served != expected:
        first = next(k for k, (a, b) in enumerate(zip(served, expected)) if a != b)
        fail(
            f"served hw forecast {first} is {served[first]!r}; the figures' "
            f"HW-LSO walk predicts {expected[first]!r}"
        )
    if info["n_level_shifts"] < 1 or info["n_outliers"] < 1:
        fail(f"the walk must hold a level shift and an outlier: {info}")
    print(
        f"serve-smoke: {len(WALK) - 1} served hw forecasts equal the figures' "
        f"HW-LSO walk ({info['n_level_shifts']} level shift(s), "
        f"{info['n_outliers']} outlier(s))"
    )


def stop(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail(f"server did not exit within {STOP_TIMEOUT_S}s of SIGTERM")
    if proc.returncode != 0:
        fail(f"server exited with code {proc.returncode}: {proc.stdout.read()!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=".serve-smoke", metavar="DIR")
    args = parser.parse_args()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    # Offline twin: the CLI serves each --predictors name's spec in the
    # shared name table, so feed the same spec the same trace.
    twin = StreamingPredictorState(SERVE_PREDICTORS["ma10"])
    for value in SAMPLES:
        twin.ingest(value)
    expected = twin.prediction()

    proc, port = spawn(workdir)
    try:
        doc = http(port, "POST", "/paths/smoke-path/samples", {"samples": SAMPLES})
        if doc["accepted"] != len(SAMPLES):
            fail(f"expected {len(SAMPLES)} accepted samples, got {doc}")
        doc = http(port, "GET", "/paths/smoke-path/predict?predictor=ma10")
        if doc["prediction"] != expected:
            fail(f"online forecast {doc['prediction']!r} != offline {expected!r}")
        health = http(port, "GET", "/healthz")
        if health["paths"] != 1:
            fail(f"expected 1 tracked path, got {health}")
        print(f"serve-smoke: ingest+predict ok (forecast {expected:.4f} Mbps)")

        twin_quality = quality_twin()
        doc = http(port, "GET", "/paths/smoke-path/quality")
        if doc["predictors"] != twin_quality.path_summary("smoke-path"):
            fail(
                "online quality series diverges from the offline replay: "
                f"{doc['predictors']}"
            )
        print("serve-smoke: /quality matches the offline twin bit-for-bit")
        run_obs_quality(port)
    finally:
        stop(proc)

    snapshot = workdir / "state.json"
    manifest = workdir / "manifest.json"
    if not snapshot.exists():
        fail("snapshot file was not written on shutdown")
    version = json.loads(snapshot.read_text()).get("snapshot_version")
    if version != 2:
        fail(f"snapshot file carries snapshot_version {version!r}, expected 2")
    if not manifest.exists():
        fail("manifest file was not written on shutdown")
    doc = json.loads(manifest.read_text())
    if doc.get("kind") != "serve":
        fail(f"manifest kind is {doc.get('kind')!r}, expected 'serve'")
    manifest_totals = (doc.get("quality") or {}).get("totals")
    expected_totals = quality_twin().summary()["totals"]
    if manifest_totals != expected_totals:
        fail(
            f"manifest quality totals {manifest_totals} != "
            f"offline replay {expected_totals}"
        )
    print("serve-smoke: shutdown wrote snapshot + manifest with quality totals")

    proc, port = spawn(workdir)
    try:
        doc = http(port, "GET", "/paths/smoke-path/predict?predictor=ma10")
        if doc["prediction"] != expected:
            fail(f"restored forecast {doc['prediction']!r} != offline {expected!r}")
        print("serve-smoke: snapshot restore is bit-identical")
    finally:
        stop(proc)

    check_grown_restart(workdir)
    check_access_log(workdir)
    check_served_equals_evaluated(workdir / "walk")
    print("serve-smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
