"""Minimal asyncio HTTP/1.1 front end for the scheduling service.

Zero-dependency by design: the container bakes in numpy and the
standard library only, so the transport is ``asyncio.start_server``
plus a small, strict HTTP/1.1 reader — enough for JSON request/response
bodies, not a general web server.  Connections are ``Connection:
close`` (one request per connection): the load harness and smoke
clients open cheap short-lived connections, and closing eagerly keeps
the shutdown path trivially clean.

A POST to a schedule route first asks the service's raw-body hit index
(:meth:`SchedulingService.fast_hit`) for the bytes it sent last time
for this exact body; only when that misses is the body decoded and
routed, and a ``cached: true`` 200 from that normal path is offered
back to the index (:meth:`SchedulingService.remember`).

Routes
------
======  ==================  ==========================================
GET     ``/healthz``        liveness probe (version, uptime)
GET     ``/v1/stats``       :meth:`SchedulingService.stats` snapshot
POST    ``/v1/schedule``    full ``repro-serve-request/1`` payload
POST    ``/v1/map``         same, with ``kind`` defaulted to ``map``
POST    ``/v1/iterate``     same, with ``kind`` defaulted to ``iterate``
POST    ``/v1/study``       same, with ``kind`` defaulted to ``study``
======  ==================  ==========================================

Error catalogue (all bodies ``{"error": {"type", "message"}}``):

* 400 ``validation`` / ``invalid_json`` — malformed payload;
* 400 ``invalid_request`` — malformed HTTP (request line, Content-Length);
* 404 ``not_found`` / 405 ``method_not_allowed`` — routing;
* 413 ``payload_too_large`` — body over :data:`MAX_BODY_BYTES`;
* 500 ``execution`` — the computation itself failed;
* 503 ``overload`` — admission cap reached (shed, retry later).
"""

from __future__ import annotations

import asyncio
import json

from repro.serve.service import SchedulingService

__all__ = [
    "MAX_BODY_BYTES",
    "handle_connection",
    "start_server",
]

#: Request-body ceiling; a 1024x64 inline ETC in JSON is ~1.5 MB, so
#: 8 MiB leaves headroom without letting one request buffer the world.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Header-section ceiling (request line + headers).
_MAX_HEADER_BYTES = 64 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: POST aliases that pre-fill the request ``kind``.
_KIND_ROUTES = {
    "/v1/schedule": None,
    "/v1/map": "map",
    "/v1/iterate": "iterate",
    "/v1/study": "study",
}


def _error(error_type: str, message: str) -> dict:
    return {"error": {"type": error_type, "message": message}}


def _encode_response(status: int, body: dict) -> bytes:
    payload = json.dumps(body, sort_keys=True).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("ascii")
    return head + payload


async def _read_request(reader: asyncio.StreamReader):
    """Parse one request → ``(method, path, body)`` or an error tuple.

    Returns ``(None, None, (status, body))`` when the request is
    malformed at the HTTP level, so the caller can answer and close.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError:
        return None, None, (413, _error("payload_too_large", "headers too large"))
    except (asyncio.IncompleteReadError, ConnectionError):
        return None, None, None  # client went away; nothing to answer
    if len(head) > _MAX_HEADER_BYTES:
        return None, None, (413, _error("payload_too_large", "headers too large"))
    try:
        lines = head.decode("ascii").split("\r\n")
        method, path, _version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError):
        return None, None, (400, _error("invalid_request", "malformed request line"))
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        length = -1  # rejected just below, like a negative length
    if length < 0:
        return None, None, (400, _error("invalid_request", "bad Content-Length"))
    if length > MAX_BODY_BYTES:
        return None, None, (
            413,
            _error(
                "payload_too_large",
                f"request body {length} bytes exceeds {MAX_BODY_BYTES}",
            ),
        )
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None, None, None
    # Query strings carry nothing here; strip them for routing.
    path = path.split("?", 1)[0]
    return method, path, body


async def _route(service: SchedulingService, method: str, path: str,
                 body: bytes) -> tuple[int, dict]:
    if path == "/healthz":
        if method != "GET":
            return 405, _error("method_not_allowed", f"{method} {path}")
        from repro import __version__

        return 200, {"status": "ok", "version": __version__}
    if path == "/v1/stats":
        if method != "GET":
            return 405, _error("method_not_allowed", f"{method} {path}")
        return 200, service.stats()
    if path in _KIND_ROUTES:
        if method != "POST":
            return 405, _error("method_not_allowed", f"{method} {path}")
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            return 400, _error("invalid_json", f"request body is not JSON: {exc}")
        kind = _KIND_ROUTES[path]
        if kind is not None and isinstance(payload, dict):
            conflicting = payload.get("kind", kind)
            if conflicting != kind:
                return 400, _error(
                    "validation",
                    f"{path} serves kind {kind!r}, payload says "
                    f"{conflicting!r}",
                )
            payload = {**payload, "kind": kind}
        return await service.handle(payload)
    return 404, _error("not_found", f"no route for {path}")


async def _respond(service: SchedulingService, method: str, path: str,
                   body: bytes) -> bytes:
    """The encoded response to one request: an indexed repeat's stored
    bytes, else the normal path's (offered back to the index)."""
    indexable = method == "POST" and path in _KIND_ROUTES
    if indexable:
        stored = service.fast_hit(path, body)
        if stored is not None:
            return stored
    status, response = await _route(service, method, path, body)
    encoded = _encode_response(status, response)
    if indexable:
        service.remember(path, body, status, response, encoded)
    return encoded


async def handle_connection(
    service: SchedulingService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one connection: one request, one response, close."""
    try:
        method, path, body = await _read_request(reader)
        if method is None:
            if body is not None:  # HTTP-level error to report
                status, error_body = body
                writer.write(_encode_response(status, error_body))
                await writer.drain()
            return
        writer.write(await _respond(service, method, path, body))
        await writer.drain()
    except ConnectionError:
        pass  # client hung up mid-response; nothing to do
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def start_server(
    service: SchedulingService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> asyncio.AbstractServer:
    """Bind and return the listening server (``port=0`` = ephemeral).

    The caller owns the lifecycle: read the bound port off
    ``server.sockets[0].getsockname()[1]``, then ``server.close()`` +
    ``await server.wait_closed()`` to stop accepting.
    """

    async def _handler(reader, writer):
        await handle_connection(service, reader, writer)

    return await asyncio.start_server(
        _handler, host, port, limit=_MAX_HEADER_BYTES
    )
