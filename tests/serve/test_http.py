"""HTTP front end: routing, error catalogue and the load harness.

Every test binds a real server on an ephemeral loopback port and talks
raw HTTP/1.1 over ``asyncio.open_connection`` — the same wire the
``repro serve-load`` harness uses — so the routing table, the error
envelopes and the one-request-per-connection contract are all exercised
end to end without subprocesses.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro import __version__
from repro.obs import CollectingTracer, use_tracer
from repro.serve.http import MAX_BODY_BYTES, start_server
from repro.serve.load import format_load_report, run_load
from repro.serve.service import SchedulingService

pytestmark = pytest.mark.serve

VALUES = [[4.0, 5.0, 5.0], [6.0, 2.0, 2.0], [5.0, 6.0, 3.0], [4.0, 1.0, 3.0]]
MAP_BODY = {"etc": {"values": VALUES}}


async def _exchange(port: int, raw: bytes) -> bytes:
    """Send ``raw`` over a fresh connection; the full response bytes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    response = await reader.read()
    writer.close()
    await writer.wait_closed()
    return response


def _post_bytes(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def _posts(path: str, payload, times: int):
    """``work`` sending one body ``times`` times; the raw responses."""
    raw = _post_bytes(path, json.dumps(payload).encode())

    async def work(port):
        return [await _exchange(port, raw) for _ in range(times)]

    return work


def _parse(response: bytes) -> tuple[int, dict]:
    head, _, payload_bytes = response.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(payload_bytes)


async def _request(
    port: int,
    method: str,
    path: str,
    payload=None,
    *,
    raw: bytes | None = None,
    headers: dict | None = None,
) -> tuple[int, dict]:
    body = raw if raw is not None else (
        json.dumps(payload).encode() if payload is not None else b""
    )
    lines = [f"{method} {path} HTTP/1.1", "Host: 127.0.0.1"]
    for name, value in (headers or {"Content-Length": len(body)}).items():
        lines.append(f"{name}: {value}")
    return _parse(await _exchange(
        port, "\r\n".join(lines).encode() + b"\r\n\r\n" + body
    ))


async def _with_server(work, cache_dir=None, **service_kwargs):
    """Run ``await work(port)`` against a live ephemeral server."""
    service = SchedulingService(cache_dir, **service_kwargs)
    server = await start_server(service)
    port = server.sockets[0].getsockname()[1]
    try:
        return await work(port), service
    finally:
        server.close()
        await server.wait_closed()
        service.close()


def serve(work, cache_dir=None, **service_kwargs):
    return asyncio.run(_with_server(work, cache_dir, **service_kwargs))


def test_healthz_and_stats():
    async def work(port):
        status, health = await _request(port, "GET", "/healthz")
        assert status == 200
        assert health == {"status": "ok", "version": __version__}
        status, stats = await _request(port, "GET", "/v1/stats")
        assert status == 200
        assert stats["schema"] == "repro-serve-stats/1"
        return stats

    stats, _service = serve(work)
    assert stats["counts"]["requests"] == 0


def test_kind_alias_routes():
    async def work(port):
        results = {}
        status, results["map"] = await _request(port, "POST", "/v1/map", MAP_BODY)
        assert status == 200
        status, results["iterate"] = await _request(
            port, "POST", "/v1/iterate", MAP_BODY
        )
        assert status == 200
        status, results["schedule"] = await _request(
            port, "POST", "/v1/schedule", {"kind": "map", **MAP_BODY}
        )
        assert status == 200
        return results

    results, service = serve(work)
    assert results["map"]["result"]["kind"] == "map"
    assert results["iterate"]["result"]["kind"] == "iterate"
    # /v1/map and an explicit kind=map /v1/schedule are the same request.
    assert results["schedule"]["key"] == results["map"]["key"]
    assert service.by_kind == {"map": 2, "iterate": 1}


def test_kind_conflict_is_400():
    async def work(port):
        return await _request(
            port, "POST", "/v1/map", {"kind": "iterate", **MAP_BODY}
        )

    (status, body), _service = serve(work)
    assert status == 400
    assert body["error"]["type"] == "validation"
    assert "serves kind 'map'" in body["error"]["message"]


def test_invalid_json_is_400():
    async def work(port):
        return await _request(
            port, "POST", "/v1/schedule", raw=b"{not json"
        )

    (status, body), _service = serve(work)
    assert status == 400
    assert body["error"]["type"] == "invalid_json"


def test_unknown_route_is_404_and_wrong_method_is_405():
    async def work(port):
        miss = await _request(port, "GET", "/v2/schedule")
        get_post = await _request(port, "GET", "/v1/schedule")
        post_get = await _request(port, "POST", "/healthz", {})
        return miss, get_post, post_get

    (miss, get_post, post_get), _service = serve(work)
    assert miss[0] == 404 and miss[1]["error"]["type"] == "not_found"
    assert get_post[0] == 405
    assert get_post[1]["error"]["type"] == "method_not_allowed"
    assert post_get[0] == 405


def test_oversized_body_is_413():
    async def work(port):
        return await _request(
            port,
            "POST",
            "/v1/schedule",
            headers={"Content-Length": MAX_BODY_BYTES + 1},
        )

    (status, body), _service = serve(work)
    assert status == 413
    assert body["error"]["type"] == "payload_too_large"


def test_negative_content_length_is_400():
    async def work(port):
        return await _request(
            port, "POST", "/v1/map", headers={"Content-Length": -5}
        )

    (status, body), service = serve(work)
    assert status == 400
    assert body["error"] == {
        "type": "invalid_request", "message": "bad Content-Length"
    }
    assert service.counts["requests"] == 0


def test_deeply_nested_json_is_400():
    async def work(port):
        return await _request(port, "POST", "/v1/map", raw=b"[" * 100_000)

    (status, body), _service = serve(work)
    assert status == 400
    assert body["error"]["type"] == "invalid_json"


def test_unexpected_compute_exception_is_500(tmp_path, monkeypatch):
    def explode(request):
        raise RuntimeError("synthetic kernel fault")

    monkeypatch.setattr("repro.serve.service.execute_request", explode)
    cache_dir = tmp_path / "responses"
    responses, service = serve(_posts("/v1/map", MAP_BODY, 2), str(cache_dir))
    for status, body in map(_parse, responses):
        assert status == 500
        assert body["error"] == {
            "type": "execution",
            "message": "RuntimeError: synthetic kernel fault",
        }
    assert service.counts["execution_errors"] == 2
    assert service.counts["computed"] == 0
    assert not cache_dir.exists() or not list(cache_dir.iterdir())
    assert not service._hit_index


# -- raw-body hit index ------------------------------------------------


def test_fast_hit_bytes_equal_the_normal_cached_bytes(tmp_path):
    responses, service = serve(
        _posts("/v1/iterate", MAP_BODY, 4), str(tmp_path)
    )
    cached = [_parse(r)[1]["cached"] for r in responses]
    assert cached == [False, True, True, True]
    # The first repeat filled the index; later repeats replay its bytes.
    assert responses[2] == responses[1] and responses[3] == responses[1]
    assert service.counts["fast_hits"] == 2


def test_fast_hit_accounting(tmp_path):
    _responses, service = serve(_posts("/v1/map", MAP_BODY, 3), str(tmp_path))
    assert service.counts["requests"] == 3
    assert service.counts["computed"] == 1
    assert service.counts["cache_hits"] == 2
    assert service.counts["fast_hits"] == 1
    assert service.by_kind == {"map": 3}
    assert len(service._latencies_ms) == 3
    stats = service.stats()
    assert stats["counts"]["fast_hits"] == 1


def test_other_request_id_or_route_takes_the_normal_path(tmp_path):
    body = {"kind": "map", **MAP_BODY}

    async def work(port):
        for _ in range(3):  # compute, fill the index, fast hit
            await _exchange(port, _post_bytes("/v1/map", json.dumps(body).encode()))
        other_route = await _exchange(
            port, _post_bytes("/v1/schedule", json.dumps(body).encode())
        )
        other_id = await _exchange(port, _post_bytes(
            "/v1/map", json.dumps({**body, "request_id": "r-2"}).encode()
        ))
        return _parse(other_route), _parse(other_id)

    ((s1, route_body), (s2, id_body)), service = serve(work, str(tmp_path))
    assert (s1, s2) == (200, 200)
    assert route_body["cached"] is True and "request_id" not in route_body
    assert id_body["cached"] is True and id_body["request_id"] == "r-2"
    assert service.counts["fast_hits"] == 1
    assert service.counts["cache_hits"] == 4
    # Each (route, body) pair that got a cached 200 has its own entry.
    assert len(service._hit_index) == 3


def test_rejected_body_is_never_indexed(tmp_path):
    responses, service = serve(
        _posts("/v1/map", {"heuristic": "no-such", **MAP_BODY}, 3),
        str(tmp_path),
    )
    assert [_parse(r)[0] for r in responses] == [400, 400, 400]
    assert service.counts["validation_errors"] == 3
    assert service.counts["fast_hits"] == 0
    assert not service._hit_index


def test_traced_requests_bypass_the_index(tmp_path):
    tracer = CollectingTracer()
    with use_tracer(tracer):
        responses, service = serve(
            _posts("/v1/map", MAP_BODY, 4), str(tmp_path)
        )
    assert [_parse(r)[1]["cached"] for r in responses] == [
        False, True, True, True
    ]
    assert service.counts["fast_hits"] == 0
    assert not service._hit_index
    kinds = [span.kind for span in tracer.spans]
    assert kinds.count("serve.request") == 4
    assert kinds.count("serve.compute") == 1


def test_deleted_cache_entry_forces_a_recompute(tmp_path):
    raw = _post_bytes("/v1/map", json.dumps(MAP_BODY).encode())

    async def work(port):
        first = [_parse(await _exchange(port, raw))[1] for _ in range(3)]
        for entry in tmp_path.glob("*.json"):
            entry.unlink()
        after = [_parse(await _exchange(port, raw))[1] for _ in range(3)]
        return first, after

    (first, after), service = serve(work, str(tmp_path))
    assert [r["cached"] for r in first] == [False, True, True]
    assert [r["cached"] for r in after] == [False, True, True]
    assert service.counts["computed"] == 2
    assert service.counts["fast_hits"] == 2
    assert after[0]["result"] == first[0]["result"]


def test_validation_and_overload_pass_through():
    async def work(port):
        return await _request(port, "POST", "/v1/schedule", {"kind": "bogus"})

    (status, body), _service = serve(work)
    assert status == 400
    assert body["error"]["type"] == "validation"


def test_run_load_end_to_end(tmp_path):
    """Drive the synchronous load harness against a live cached server."""
    service = SchedulingService(str(tmp_path / "responses"), max_workers=2)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        server = asyncio.run_coroutine_threadsafe(
            start_server(service), loop
        ).result(timeout=10)
        port = server.sockets[0].getsockname()[1]
        url = f"http://127.0.0.1:{port}/v1/schedule"
        payload = {"kind": "map", **MAP_BODY}
        report = run_load(url, payload, requests=12, concurrency=3)

        async def _close():
            server.close()
            await server.wait_closed()
            stragglers = asyncio.all_tasks(loop) - {asyncio.current_task()}
            for task in stragglers:
                task.cancel()
            await asyncio.gather(*stragglers, return_exceptions=True)

        asyncio.run_coroutine_threadsafe(_close(), loop).result(timeout=10)
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()
        service.close()

    assert report["schema"] == "repro-serve-load/1"
    assert report["requests"] == 12
    assert report["ok"] == 12 and report["errors"] == 0
    # Identical requests: everything after the first wave is a cache hit
    # (at most one benign miss per concurrent worker).
    assert report["cached"] >= 12 - 3
    assert report["cached"] + report["computed"] == 12
    assert report["requests_per_s"] > 0
    text = format_load_report(report)
    assert "requests/s" in text
