"""Per-request tracing: request ids, phase laps, the JSONL access log.

Unit tests of :mod:`repro.serve.accesslog` plus end-to-end tests over a
live server with the access log attached.
"""

import asyncio
import json

import pytest

from repro.hb.streaming import SERVE_PREDICTORS
from repro.obs.telemetry import ENV_OBS, get_telemetry
from repro.serve.accesslog import AccessLog, RequestTrace
from repro.serve.app import ServeApp
from repro.serve.http import serve_app
from repro.serve.state import ShardedStateStore


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    monkeypatch.delenv(ENV_OBS, raising=False)
    get_telemetry().reset()
    yield
    get_telemetry().reset()


def fill_trace(trace):
    trace.lap("parse")
    trace.annotate(route="ingest", key="p1")
    trace.lap("render")
    return trace


class TestAccessLogUnit:
    def test_record_shape(self, tmp_path):
        log = AccessLog(tmp_path / "access.jsonl")
        trace = fill_trace(log.begin())
        log.record(trace, "POST", "/paths/p1/samples", 200, 48, 391)
        log.close()
        lines = (tmp_path / "access.jsonl").read_text().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["id"] == trace.request_id
        assert entry["method"] == "POST"
        assert entry["status"] == 200
        assert entry["route"] == "ingest"
        assert entry["key"] == "p1"
        assert set(entry["phases"]) == {"parse", "render"}
        assert entry["elapsed_s"] >= 0
        assert entry["bytes_in"] == 48 and entry["bytes_out"] == 391

    def test_ids_unique_and_ordered(self, tmp_path):
        log = AccessLog(tmp_path / "a.jsonl")
        ids = [log.begin().request_id for _ in range(100)]
        assert len(set(ids)) == 100
        assert ids == sorted(ids)  # zero-padded sequence numbers

    def test_rotation_bounds_disk(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(path, max_bytes=4096)
        for _ in range(100):
            log.record(fill_trace(log.begin()), "GET", "/healthz", 200, 0, 100)
        log.close()
        assert log.n_rotations >= 1
        rotated = path.with_name(path.name + ".1")
        assert rotated.is_file()
        assert path.stat().st_size <= 4096
        assert rotated.stat().st_size <= 4096
        # Every line in both files is a complete JSON record.
        for file in (path, rotated):
            for line in file.read_text().splitlines():
                json.loads(line)

    def test_stdout_mode(self, capsys, tmp_path):
        log = AccessLog("-")
        log.record(fill_trace(log.begin()), "GET", "/healthz", 200, 0, 10)
        entry = json.loads(capsys.readouterr().out)
        assert entry["path"] == "/healthz"
        assert log.path is None

    def test_counts_records(self, tmp_path):
        log = AccessLog(tmp_path / "a.jsonl")
        log.record(fill_trace(log.begin()), "GET", "/x", 200, 0, 10)
        log.record(fill_trace(log.begin()), "GET", "/x", 200, 0, 10)
        assert log.n_records == 2
        assert get_telemetry().counter("serve.access_log_records").value == 2

    def test_enabled_tracks_kill_switch(self, tmp_path, monkeypatch):
        log = AccessLog(tmp_path / "a.jsonl")
        assert log.enabled
        monkeypatch.setenv(ENV_OBS, "0")
        assert not log.enabled

    def test_rejects_tiny_max_bytes(self, tmp_path):
        with pytest.raises(ValueError):
            AccessLog(tmp_path / "a.jsonl", max_bytes=100)

    def test_close_idempotent(self, tmp_path):
        log = AccessLog(tmp_path / "a.jsonl")
        log.record(fill_trace(log.begin()), "GET", "/x", 200, 0, 10)
        log.close()
        log.close()

    def test_trace_annotate_and_laps(self):
        trace = RequestTrace("abc-1")
        trace.lap("parse")
        trace.annotate(route="ingest")
        trace.annotate(key="p1")
        assert trace.fields == {"route": "ingest", "key": "p1"}
        assert "parse" in trace.clock.phases


def serve_scenario(coro_factory, access_log):
    """Run coro_factory(port) against a live traced server."""

    async def runner():
        store = ShardedStateStore(
            specs={"ma5": SERVE_PREDICTORS["ma5"]},
            n_shards=1,
            max_paths_per_shard=8,
        )
        app = ServeApp(store, label="test-serve")
        server = await serve_app(app.handle, port=0, access_log=access_log)
        port = server.sockets[0].getsockname()[1]
        try:
            return await coro_factory(port)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(runner())


async def send(port, method, path, body=None):
    payload = json.dumps(body).encode() if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    )
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(head.encode() + payload)
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = data.partition(b"\r\n\r\n")
    headers = {}
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(head.split(b" ")[1]), headers, body


class TestTracedServer:
    def test_request_id_header_and_log_record(self, tmp_path):
        log_path = tmp_path / "access.jsonl"
        access_log = AccessLog(log_path)

        async def scenario(port):
            results = []
            results.append(
                await send(
                    port, "POST", "/paths/p1/samples",
                    {"samples": [10.0, 10.5, 9.8, 10.2, 10.1]},
                )
            )
            results.append(
                await send(port, "GET", "/paths/p1/predict?predictor=ma5")
            )
            results.append(await send(port, "GET", "/paths/ghost/predict"))
            return results

        results = serve_scenario(scenario, access_log)
        access_log.close()

        ids = []
        for status, headers, _ in results:
            assert "x-request-id" in headers
            ids.append(headers["x-request-id"])
        assert len(set(ids)) == 3

        records = [
            json.loads(line) for line in log_path.read_text().splitlines()
        ]
        assert [r["id"] for r in records] == ids
        ingest, predict, missing = records
        assert ingest["route"] == "ingest" and ingest["key"] == "p1"
        assert {"parse", "store", "ingest", "render"} <= set(ingest["phases"])
        assert ingest["bytes_in"] > 0
        assert predict["route"] == "predict_hb"
        assert {"parse", "store", "predict", "render"} <= set(predict["phases"])
        # Error responses are recorded too, with the error annotated.
        assert missing["status"] == 404
        assert "ghost" in missing["error"]

    def test_kill_switch_disables_tracing(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_OBS, "0")
        log_path = tmp_path / "access.jsonl"
        access_log = AccessLog(log_path)

        async def scenario(port):
            return await send(port, "GET", "/healthz")

        status, headers, _ = serve_scenario(scenario, access_log)
        access_log.close()
        assert status == 200
        assert "x-request-id" not in headers
        assert not log_path.exists()
        assert access_log.n_records == 0


def span_events():
    return [
        e for e in get_telemetry().events if e.get("kind") == "span"
    ]


class TestRequestSpans:
    """Sampled requests emit a span tree whose trace id is the request id."""

    def test_record_emits_request_span_tree(self, tmp_path):
        log = AccessLog(tmp_path / "a.jsonl")
        trace = fill_trace(log.begin())
        assert trace.sampled
        log.record(trace, "POST", "/paths/p1/samples", 200, 48, 391)
        events = span_events()
        root = [e for e in events if e["name"] == "request"][0]
        assert root["trace_id"] == trace.request_id
        assert root["parent_id"] is None
        assert root["method"] == "POST"
        assert root["status"] == 200
        assert root["route"] == "ingest"
        children = {
            e["name"] for e in events if e["parent_id"] == root["span_id"]
        }
        assert children == {"parse", "render"}

    def test_zero_sample_rate_logs_but_does_not_span(self, tmp_path):
        log = AccessLog(tmp_path / "a.jsonl", trace_sample=0.0)
        trace = fill_trace(log.begin())
        assert not trace.sampled
        log.record(trace, "GET", "/x", 200, 0, 10)
        log.close()
        assert span_events() == []
        # The access-log line itself is not sampled away.
        assert len((tmp_path / "a.jsonl").read_text().splitlines()) == 1

    def test_fractional_rate_is_deterministic_per_request_id(self, tmp_path):
        log = AccessLog(tmp_path / "a.jsonl", trace_sample=0.5)
        decisions = [log.begin().sampled for _ in range(200)]
        assert any(decisions) and not all(decisions)
        from repro.obs.spans import sample_decision

        log2 = AccessLog(tmp_path / "b.jsonl", trace_sample=0.5)
        for _ in range(200):
            trace = log2.begin()
            assert trace.sampled == sample_decision(trace.request_id, 0.5)

    def test_env_rate_is_the_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0")
        log = AccessLog(tmp_path / "a.jsonl")
        assert log.trace_sample == 0.0
        monkeypatch.delenv("REPRO_TRACE_SAMPLE")
        assert AccessLog(tmp_path / "b.jsonl").trace_sample == 1.0

    def test_explicit_rate_clamped(self, tmp_path):
        assert AccessLog(tmp_path / "a.jsonl", trace_sample=7.0).trace_sample == 1.0
        assert AccessLog(tmp_path / "b.jsonl", trace_sample=-1.0).trace_sample == 0.0


class TestTraceEndpoint:
    def test_live_trace_endpoint_serves_ring(self, tmp_path, monkeypatch):
        from repro.obs import spans as spans_mod

        monkeypatch.setattr(spans_mod, "_RING", None)
        spans_mod.install_span_ring()
        access_log = AccessLog(tmp_path / "access.jsonl")

        async def scenario(port):
            status, headers, _ = await send(
                port, "POST", "/paths/p1/samples",
                {"samples": [10.0, 10.5, 9.8, 10.2, 10.1]},
            )
            request_id = headers["x-request-id"]
            all_spans = await send(port, "GET", "/trace")
            one = await send(port, "GET", f"/trace?trace={request_id}")
            limited = await send(port, "GET", "/trace?limit=2")
            bad = await send(port, "GET", "/trace?limit=banana")
            return request_id, all_spans, one, limited, bad

        request_id, all_spans, one, limited, bad = serve_scenario(
            scenario, access_log
        )
        access_log.close()

        status, _, body = all_spans
        assert status == 200
        doc = json.loads(body)
        assert doc["enabled"] is True
        names = {s["name"] for s in doc["spans"]}
        assert "request" in names and "ingest" in names

        status, _, body = one
        assert status == 200
        doc = json.loads(body)
        assert doc["spans"]
        assert all(s["trace_id"] == request_id for s in doc["spans"])
        roots = [s for s in doc["spans"] if s["parent_id"] is None]
        assert [s["name"] for s in roots] == ["request"]

        status, _, body = limited
        assert status == 200
        assert len(json.loads(body)["spans"]) == 2

        status, _, _ = bad
        assert status == 400

    def test_trace_endpoint_without_ring_reports_disabled(
        self, tmp_path, monkeypatch
    ):
        from repro.obs import spans as spans_mod

        monkeypatch.setattr(spans_mod, "_RING", None)
        access_log = AccessLog(tmp_path / "access.jsonl")

        async def scenario(port):
            return await send(port, "GET", "/trace")

        status, _, body = serve_scenario(scenario, access_log)
        access_log.close()
        assert status == 200
        doc = json.loads(body)
        assert doc == {"enabled": False, "spans": []}

    def test_trace_endpoint_rejects_post(self, tmp_path, monkeypatch):
        from repro.obs import spans as spans_mod

        monkeypatch.setattr(spans_mod, "_RING", None)
        access_log = AccessLog(tmp_path / "access.jsonl")

        async def scenario(port):
            return await send(port, "POST", "/trace", {})

        status, _, _ = serve_scenario(scenario, access_log)
        access_log.close()
        assert status == 405
