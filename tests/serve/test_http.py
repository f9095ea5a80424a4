"""The HTTP layer and ServeApp routes, end to end over real sockets.

No pytest-asyncio: each test runs its own event loop via a small
harness that boots the server on an ephemeral port, issues raw
HTTP/1.1 requests, and shuts down.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formulas.fb_predictor import MODEL_VARIANTS, FormulaBasedPredictor
from repro.formulas.params import PathEstimates, TcpParameters
from repro.hb.streaming import SERVE_PREDICTORS
from repro.serve.app import ServeApp
from repro.serve.http import (
    MAX_BODY_BYTES,
    HttpError,
    HttpRequest,
    render_response,
    serve_app,
)
from repro.serve.state import ShardedStateStore


def make_app():
    store = ShardedStateStore(
        specs={
            "ma5": SERVE_PREDICTORS["ma5"],
            "ewma": SERVE_PREDICTORS["ewma"],
        },
        n_shards=2,
        max_paths_per_shard=8,
    )
    return ServeApp(store, label="test-serve")


async def raw_exchange(port, payload):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    return data


async def request(port, method, path, body=None, headers=""):
    payload = b""
    if body is not None:
        payload = json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(payload)}\r\n{headers}Connection: close\r\n\r\n"
    )
    data = await raw_exchange(port, head.encode() + payload)
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ")[1])
    return status, json.loads(body) if body.startswith(b"{") else body


def with_server(coro_factory):
    """Run coro_factory(app, port) against a live server."""

    async def runner():
        app = make_app()
        server = await serve_app(app.handle, port=0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await coro_factory(app, port)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(runner())


class TestRoutes:
    def test_healthz(self):
        async def scenario(app, port):
            return await request(port, "GET", "/healthz")

        status, doc = with_server(scenario)
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["paths"] == 0

    def test_ingest_then_predict(self):
        async def scenario(app, port):
            status, doc = await request(
                port,
                "POST",
                "/paths/p1/samples",
                {"samples": [10.0, 10.5, 9.8, 10.2, 10.1]},
            )
            assert status == 200 and doc["accepted"] == 5
            return await request(port, "GET", "/paths/p1/predict?predictor=ma5")

        status, doc = with_server(scenario)
        assert status == 200
        assert doc["predictor"] == "ma5"
        assert doc["prediction"] == pytest.approx(10.12)
        assert doc["ready"] is True

    def test_predict_all_predictors(self):
        async def scenario(app, port):
            await request(port, "POST", "/paths/p1/samples", {"sample": 10.0})
            return await request(port, "GET", "/paths/p1/predict")

        status, doc = with_server(scenario)
        assert status == 200
        assert sorted(doc["predictions"]) == ["ewma", "ma5"]
        assert doc["predictions"]["ewma"] == 10.0  # Ewma min_history is 1

    def test_invalid_samples_flagged_not_rejected(self):
        async def scenario(app, port):
            return await request(
                port, "POST", "/paths/p1/samples", {"samples": [10.0, 0.0, -4.0]}
            )

        status, doc = with_server(scenario)
        assert status == 200
        assert doc["accepted"] == 1
        assert doc["invalid"] == 2

    def test_path_info(self):
        async def scenario(app, port):
            await request(port, "POST", "/paths/p1/samples", {"samples": [10, 11]})
            return await request(port, "GET", "/paths/p1")

        status, doc = with_server(scenario)
        assert status == 200
        assert doc["predictors"]["ma5"]["n_observed"] == 2

    def test_predict_fb(self):
        async def scenario(app, port):
            return await request(
                port, "POST", "/predict/fb", {"rtt_ms": 45, "loss": 0.002}
            )

        status, doc = with_server(scenario)
        assert status == 200
        assert doc["predicted_mbps"] > 0
        assert doc["model"] == "pftk"
        assert doc["lossless"] is False

    def test_metrics_exposition(self):
        async def scenario(app, port):
            await request(port, "POST", "/paths/p1/samples", {"samples": [10.0]})
            return await request(port, "GET", "/metrics")

        status, body = with_server(scenario)
        assert status == 200
        text = body.decode() if isinstance(body, bytes) else json.dumps(body)
        assert 'kind="serve"' in text
        assert text.rstrip().endswith("# EOF")

    def test_quality_summary_route(self):
        async def scenario(app, port):
            await request(
                port, "POST", "/paths/p1/samples", {"samples": [10.0, 11.0, 10.5]}
            )
            return await request(port, "GET", "/quality?paths=1")

        status, doc = with_server(scenario)
        assert status == 200
        assert doc["enabled"] is True
        assert doc["totals"]["paths"] == 1
        assert doc["totals"]["scored"] > 0
        assert "ewma" in doc["predictors"]
        assert "p1" in doc["paths"]

    def test_quality_summary_omits_paths_by_default(self):
        async def scenario(app, port):
            await request(port, "POST", "/paths/p1/samples", {"samples": [10.0]})
            return await request(port, "GET", "/quality")

        status, doc = with_server(scenario)
        assert status == 200 and "paths" not in doc

    def test_path_quality_route(self):
        async def scenario(app, port):
            await request(
                port, "POST", "/paths/p1/samples", {"samples": [10.0, 11.0]}
            )
            return await request(port, "GET", "/paths/p1/quality")

        status, doc = with_server(scenario)
        assert status == 200
        assert doc["key"] == "p1" and doc["enabled"] is True
        assert doc["predictors"]["ewma"]["scored"] >= 1

    def test_path_quality_unknown_path_404(self):
        async def scenario(app, port):
            return await request(port, "GET", "/paths/ghost/quality")

        status, doc = with_server(scenario)
        assert status == 404

    def test_quality_disabled_store(self):
        async def scenario(app, port):
            app.store.quality = None
            return await request(port, "GET", "/quality")

        status, doc = with_server(scenario)
        assert status == 200 and doc == {"enabled": False}

    def test_quality_routes_disabled_under_kill_switch(self, monkeypatch):
        # REPRO_OBS=0 must read as "layer off", not an empty tracker.
        monkeypatch.setenv("REPRO_OBS", "0")

        async def scenario(app, port):
            await request(port, "POST", "/paths/p1/samples", {"samples": [10.0]})
            summary = await request(port, "GET", "/quality")
            per_path = await request(port, "GET", "/paths/p1/quality")
            return summary, per_path

        (status, doc), (path_status, path_doc) = with_server(scenario)
        assert status == 200 and doc == {"enabled": False}
        assert path_status == 200
        assert path_doc["enabled"] is False and path_doc["predictors"] == {}


class TestErrorResponses:
    def test_unknown_route_404(self):
        async def scenario(app, port):
            return await request(port, "GET", "/nope")

        status, doc = with_server(scenario)
        assert status == 404 and "error" in doc

    def test_wrong_method_405(self):
        async def scenario(app, port):
            return await request(port, "GET", "/predict/fb")

        status, doc = with_server(scenario)
        assert status == 405

    def test_unknown_path_key_404(self):
        async def scenario(app, port):
            return await request(port, "GET", "/paths/ghost/predict")

        status, doc = with_server(scenario)
        assert status == 404

    def test_unknown_predictor_400(self):
        async def scenario(app, port):
            await request(port, "POST", "/paths/p1/samples", {"samples": [10.0]})
            return await request(port, "GET", "/paths/p1/predict?predictor=zz")

        status, doc = with_server(scenario)
        assert status == 400 and "zz" in doc["error"]

    def test_fb_validation_matches_cli(self):
        async def scenario(app, port):
            return await request(
                port, "POST", "/predict/fb", {"rtt_ms": -1, "loss": 1.5}
            )

        status, doc = with_server(scenario)
        assert status == 400
        assert "rtt_ms must be a positive number" in doc["error"]
        assert "loss must be in [0, 1)" in doc["error"]

    def test_fb_lossless_requires_availbw(self):
        async def scenario(app, port):
            return await request(port, "POST", "/predict/fb", {"rtt_ms": 45, "loss": 0})

        status, doc = with_server(scenario)
        assert status == 400 and "availbw" in doc["error"]

    def test_malformed_json_body_400(self):
        async def scenario(app, port):
            payload = b"{not json"
            head = (
                f"POST /paths/p1/samples HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
            )
            data = await raw_exchange(port, head.encode() + payload)
            return int(data.split(b" ")[1])

        assert with_server(scenario) == 400

    def test_non_numeric_sample_400(self):
        async def scenario(app, port):
            return await request(
                port, "POST", "/paths/p1/samples", {"samples": [10.0, "x"]}
            )

        status, doc = with_server(scenario)
        assert status == 400 and "samples[1]" in doc["error"]

    def test_oversized_body_413(self):
        async def scenario(app, port):
            head = (
                f"POST /paths/p1/samples HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\nConnection: close\r\n\r\n"
            )
            data = await raw_exchange(port, head.encode())
            return int(data.split(b" ")[1])

        assert with_server(scenario) == 413

    def test_malformed_request_line_400(self):
        async def scenario(app, port):
            data = await raw_exchange(port, b"BANANAS\r\n\r\n")
            return int(data.split(b" ")[1])

        assert with_server(scenario) == 400


def handle(app, method, path, body):
    """One request through ``app.handle`` in process: (status, payload)."""
    request = HttpRequest(method, path, {}, {}, body)
    try:
        return asyncio.run(app.handle(request))
    except HttpError as exc:
        return exc.status, {"error": str(exc)}


#: A 401-digit JSON integer: a number, but beyond float range.
HUGE = 10**400


class TestClientNumbers:
    """Every client number is converted by one helper: an integer too
    large for a float, on either route, answers 400 naming its field."""

    @pytest.mark.parametrize(
        "body, field",
        [
            ({"samples": [HUGE]}, "samples[0]"),
            ({"samples": [10.0, 11.0, -HUGE]}, "samples[2]"),
            ({"sample": HUGE}, "samples[0]"),
        ],
    )
    def test_ingest(self, body, field):
        app = make_app()
        status, doc = handle(app, "POST", "/paths/p1/samples", json.dumps(body).encode())
        assert status == 400 and doc["error"].startswith(field)
        assert app.store.get("p1") is None

    @pytest.mark.parametrize(
        "field", ["rtt_ms", "loss", "window_kb", "mss", "availbw"]
    )
    def test_predict_fb(self, field):
        body = {"rtt_ms": 45, "loss": 0.002, field: HUGE}
        status, doc = handle(make_app(), "POST", "/predict/fb", json.dumps(body).encode())
        assert status == 400 and doc["error"].startswith(field)

    def test_a_window_too_large_in_bytes(self):
        body = {"rtt_ms": 45, "loss": 0.002, "window_kb": 1e306}
        status, doc = handle(make_app(), "POST", "/predict/fb", json.dumps(body).encode())
        assert status == 400 and "window_kb" in doc["error"]

    @pytest.mark.parametrize(
        "body",
        [b'{"samples": [' + b"9" * 5000 + b"]}", b"[" * 100_000 + b"]" * 100_000],
        ids=["overlong-integer", "deep-nesting"],
    )
    def test_an_undecodable_body(self, body):
        status, doc = handle(make_app(), "POST", "/paths/p1/samples", body)
        assert status == 400 and "not valid JSON" in doc["error"]

    @pytest.mark.parametrize("model", [[], {"a": 1}, 7, None])
    def test_a_model_that_is_not_a_name(self, model):
        body = {"rtt_ms": 45, "loss": 0.002, "model": model}
        status, doc = handle(make_app(), "POST", "/predict/fb", json.dumps(body).encode())
        assert status == 400 and doc["error"].startswith("unknown model")


@pytest.mark.parametrize(
    "body",
    [
        {"rtt_ms": 45, "loss": 0.002},
        {"rtt_ms": 80, "loss": 0, "availbw": 6.5, "window_kb": 64},
        {"rtt_ms": 12.5, "loss": 0.03, "mss": 536, "model": "pftk-full"},
    ],
)
def test_predict_fb_answers_valid_inputs_as_before(body):
    """A valid request answers what the predictor and ``W / T`` give,
    bit for bit: one function answering both surfaces moved no number."""
    status, payload = handle(make_app(), "POST", "/predict/fb", json.dumps(body).encode())
    tcp = TcpParameters(
        mss_bytes=body.get("mss", 1460),
        max_window_bytes=int(body.get("window_kb", 1000.0) * 1000),
    )
    estimates = PathEstimates(body["rtt_ms"] / 1000.0, body["loss"], body.get("availbw"))
    model = body.get("model", "pftk")
    assert (status, payload) == (
        200,
        {
            "predicted_mbps": FormulaBasedPredictor(tcp, model).predict(estimates),
            "model": model,
            "lossless": body["loss"] == 0,
            "window_ceiling_mbps": tcp.max_window_bytes * 8 / estimates.rtt_s / 1e6,
        },
    )


#: Positive finite floats, subnormals and the largest included.
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)

#: ``POST /predict/fb`` bodies of numbers ``fb_input_errors`` is asked
#: about: every optional field may be absent.
fb_bodies = st.fixed_dictionaries(
    {"rtt_ms": positive, "loss": st.floats(0.0, 1.0, exclude_max=True)},
    optional={
        "window_kb": positive,
        "mss": st.integers(1, 10**6),
        "availbw": positive,
        "model": st.sampled_from(sorted(MODEL_VARIANTS)),
    },
)

FB_FIELDS = ("rtt_ms", "loss", "window_kb", "mss", "availbw", "model")


def _refuse(constant):
    raise AssertionError(f"the body holds {constant}, which is not JSON")


@settings(max_examples=300, deadline=None)
@given(body=fb_bodies)
def test_predict_fb_answers_json_numbers_or_a_400_naming_a_field(body):
    """Over the inputs a client can send, ``POST /predict/fb`` answers
    200 with a body of plain JSON numbers (no ``Infinity`` or ``NaN``)
    or 400 naming a field; nothing escapes as a 500."""
    status, payload = handle(make_app(), "POST", "/predict/fb", json.dumps(body).encode())
    if status == 400:
        assert any(field in payload["error"] for field in FB_FIELDS)
        return
    assert status == 200
    _, _, text = render_response(status, payload, keep_alive=False).partition(b"\r\n\r\n")
    json.loads(text, parse_constant=_refuse)


class TestMetricsContentType:
    async def metrics_headers(self, port, accept=None):
        accept_line = f"Accept: {accept}\r\n" if accept else ""
        head = (
            f"GET /metrics HTTP/1.1\r\nHost: t\r\n{accept_line}"
            "Connection: close\r\n\r\n"
        )
        data = await raw_exchange(port, head.encode())
        head, _, body = data.partition(b"\r\n\r\n")
        headers = {}
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        return headers, body

    def test_openmetrics_content_type_by_default(self):
        from repro.serve.app import OPENMETRICS_CONTENT_TYPE

        async def scenario(app, port):
            return await self.metrics_headers(port)

        headers, body = with_server(scenario)
        assert headers["content-type"] == OPENMETRICS_CONTENT_TYPE
        assert body.decode().rstrip().endswith("# EOF")

    def test_plain_scraper_gets_text_plain(self):
        async def scenario(app, port):
            return await self.metrics_headers(port, accept="text/plain")

        headers, body = with_server(scenario)
        assert headers["content-type"] == "text/plain; charset=utf-8"
        assert body.decode().rstrip().endswith("# EOF")

    def test_openmetrics_accept_wins_over_text_plain(self):
        async def scenario(app, port):
            return await self.metrics_headers(
                port,
                accept="application/openmetrics-text; version=1.0.0, text/plain",
            )

        headers, _ = with_server(scenario)
        assert "openmetrics" in headers["content-type"]


class TestProtocol:
    def test_keep_alive_serves_multiple_requests(self):
        async def scenario(app, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            statuses = []
            for _ in range(3):
                writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                statuses.append(int(head.split(b" ")[1]))
                length = int(
                    [
                        line.split(b":")[1]
                        for line in head.split(b"\r\n")
                        if line.lower().startswith(b"content-length")
                    ][0]
                )
                await reader.readexactly(length)
            writer.close()
            await writer.wait_closed()
            return statuses

        assert with_server(scenario) == [200, 200, 200]

    def test_render_response_shapes(self):
        body = render_response(200, {"a": 1}, keep_alive=True)
        assert body.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Connection: keep-alive" in body

    def test_request_json_helper(self):
        req = HttpRequest("POST", "/x", {}, {}, body=b'{"a": 1}')
        assert req.json() == {"a": 1}
        with pytest.raises(HttpError):
            HttpRequest("POST", "/x", {}, {}, body=b"").json()
        with pytest.raises(HttpError):
            HttpRequest("POST", "/x", {}, {}, body=b"{oops").json()

