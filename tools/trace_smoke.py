"""End-to-end smoke test for span tracing (``make trace-smoke``).

Drives the full tracing pipeline through the real CLIs, as subprocesses:

1. run a tiny campaign with ``repro-campaign`` and check its events
   sidecar carries a single-rooted span tree (campaign → trace units);
2. ``repro-obs trace --format chrome`` on the dataset must produce a
   Chrome trace-event document that passes
   :func:`repro.obs.traceview.validate_chrome_trace`, and the text view
   must include a non-empty critical-path table;
3. boot ``repro-serve`` with an access log, ingest + predict, and pull
   ``repro-obs trace`` against the live server's ``/trace`` endpoint;
4. SIGTERM the server and render the trace again from the manifest the
   shutdown wrote — the offline path over the events sidecar.

Exits non-zero with a one-line reason on any failure.  Artifacts land
in --workdir (default .trace-smoke/).
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.obs.recorder import read_events, resolve_manifest  # noqa: E402
from repro.obs.traceview import (  # noqa: E402
    build_traces,
    critical_path,
    validate_chrome_trace,
)

START_TIMEOUT_S = 20.0
STOP_TIMEOUT_S = 20.0


def fail(reason: str) -> None:
    print(f"trace-smoke: FAIL: {reason}", file=sys.stderr)
    sys.exit(1)


def cli_env(workdir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(workdir / "cache")
    env["REPRO_CHECKPOINT_DIR"] = str(workdir / "checkpoints")
    env.pop("REPRO_OBS", None)
    env.pop("REPRO_TRACE_SAMPLE", None)
    return env


def run_cli(workdir: Path, *argv: str) -> str:
    result = subprocess.run(
        [sys.executable, "-m", *argv],
        capture_output=True,
        text=True,
        env=cli_env(workdir),
        timeout=120,
    )
    if result.returncode != 0:
        fail(
            f"{argv[0]} {' '.join(argv[1:3])} exited {result.returncode}: "
            f"{result.stderr!r}"
        )
    return result.stdout


def check_chrome_file(path: Path, expect_span: str) -> dict:
    doc = json.loads(path.read_text())
    problems = validate_chrome_trace(doc)
    if problems:
        fail(f"{path.name}: invalid Chrome trace: {problems[:3]}")
    names = {
        e.get("name") for e in doc["traceEvents"] if e.get("ph") == "X"
    }
    if expect_span not in names:
        fail(f"{path.name}: no {expect_span!r} span among {sorted(names)}")
    return doc


def campaign_leg(workdir: Path) -> None:
    dataset = workdir / "smoke.csv"
    run_cli(
        workdir, "repro.cli.campaign",
        "--paths", "2", "--traces", "1", "--epochs", "4",
        "--seed", "0", "--quiet", "-o", str(dataset),
    )

    events = read_events(resolve_manifest(dataset))
    spans = [e for e in events if e.get("kind") == "span"]
    if not spans:
        fail("campaign events sidecar holds no spans")
    traces = build_traces(events)
    if len(traces) != 1:
        fail(f"expected one campaign trace, got {len(traces)}")
    (roots,) = traces.values()
    if [r.name for r in roots] != ["campaign"]:
        fail(f"expected a single campaign root, got {[r.name for r in roots]}")
    chain = critical_path(roots)
    if len(chain) < 2:
        fail(f"critical path too shallow: {[n.name for n in chain]}")
    print(
        f"trace-smoke: campaign tree ok ({len(spans)} spans, critical path "
        f"{' > '.join(n.name for n in chain)})"
    )

    chrome = workdir / "campaign_trace.json"
    run_cli(
        workdir, "repro.cli.obs", "trace", str(dataset),
        "--format", "chrome", "-o", str(chrome),
    )
    check_chrome_file(chrome, "campaign")
    text = run_cli(workdir, "repro.cli.obs", "trace", str(dataset))
    if "critical path across" not in text:
        fail("text trace view lacks the critical-path table")
    print("trace-smoke: repro-obs trace renders the campaign (text + chrome)")


def spawn_server(workdir: Path) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli.serve",
            "--port", "0",
            "--predictors", "ma5",
            "--manifest", str(workdir / "serve.manifest.json"),
            "--access-log", str(workdir / "access.jsonl"),
            "--label", "trace-smoke",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=cli_env(workdir),
    )
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
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def serve_leg(workdir: Path) -> None:
    proc, port = spawn_server(workdir)
    try:
        http(
            port, "POST", "/paths/smoke/samples",
            {"samples": [42.0, 44.5, 41.8, 43.2, 42.6]},
        )
        http(port, "GET", "/paths/smoke/predict?predictor=ma5")

        doc = http(port, "GET", "/trace")
        if not doc.get("enabled") or not doc.get("spans"):
            fail(f"live /trace endpoint returned {doc}")
        chrome = workdir / "serve_trace.json"
        run_cli(
            workdir, "repro.cli.obs", "trace", f"http://127.0.0.1:{port}",
            "--format", "chrome", "-o", str(chrome),
        )
        check_chrome_file(chrome, "request")
        print("trace-smoke: live /trace endpoint ok (chrome export valid)")
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            fail(f"server did not exit within {STOP_TIMEOUT_S}s of SIGTERM")
        if proc.returncode != 0:
            fail(f"server exited {proc.returncode}: {proc.stdout.read()!r}")

    manifest = workdir / "serve.manifest.json"
    if not manifest.exists():
        fail("shutdown did not write the serve manifest")
    text = run_cli(workdir, "repro.cli.obs", "trace", str(manifest))
    if "request" not in text or "critical path across" not in text:
        fail(f"manifest trace view unexpected: {text[:200]!r}")
    chrome = workdir / "serve_manifest_trace.json"
    run_cli(
        workdir, "repro.cli.obs", "trace", str(manifest),
        "--format", "chrome", "-o", str(chrome),
    )
    check_chrome_file(chrome, "request")
    print("trace-smoke: manifest replay renders the request spans")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=".trace-smoke", metavar="DIR")
    args = parser.parse_args()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    campaign_leg(workdir)
    serve_leg(workdir)
    print("trace-smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
