"""Minimal stdlib HTTP/1.1 front-end for :class:`CampaignServer`.

Hand-rolled on ``asyncio.start_server`` because the robustness story
must not depend on packages the container lacks.  The surface is small
and defensive: bounded header/body sizes, strict JSON, one request per
connection (``Connection: close``), and every refusal is a typed JSON
error — backpressure rejections carry a ``Retry-After`` header.

Endpoints::

    POST /campaigns            submit a campaign        -> 202 {id, state}
    GET  /campaigns            list campaigns
    GET  /campaigns/<id>       lifecycle + progress heartbeat
    GET  /campaigns/<id>/guesses   the finished guess stream (text/plain)
    POST /score                score two lists, kept nowhere -> 200 {hit_rate,...}
    GET  /status               server state, queue depths, heartbeats
    GET  /metrics              metrics-registry snapshot (JSON)
    GET  /metrics?format=prometheus   text exposition (0.0.4) for scrapers
    GET  /healthz              liveness (also 200 while draining)

Campaign submissions honour an incoming W3C ``traceparent`` header: the
campaign joins the caller's distributed trace instead of minting its
own, and the trace ref is journaled with the request so even a
crash-recovered job still reports under the original trace id.  Every
request's wall time is observed into a per-route ``server.request_ms``
histogram (visible in both metrics formats).
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from email.utils import formatdate
from typing import Dict, Optional
from urllib.parse import parse_qs

from .. import telemetry
from .protocol import RequestError

MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 32 * 1024 * 1024
REQUEST_TIMEOUT = 30.0

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


def _render(
    status: int,
    body: bytes,
    content_type: str,
    retry_after: Optional[float] = None,
) -> bytes:
    headers = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Date: {formatdate(usegmt=True)}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    if retry_after is not None:
        headers.append(f"Retry-After: {max(1, math.ceil(retry_after))}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + body


def _json_response(status: int, payload: object, retry_after: Optional[float] = None) -> bytes:
    body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    return _render(status, body, "application/json", retry_after)


async def _read_request(reader: asyncio.StreamReader):
    """Parse one request → ``(method, path, query, headers, body)``; EOF → ``None``."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean disconnect before a request
        raise RequestError(400, "bad_request", "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise RequestError(413, "headers_too_large", "request head too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise RequestError(413, "headers_too_large", "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise RequestError(400, "bad_request", f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise RequestError(400, "bad_request", f"malformed header {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    try:
        length = int(length)
    except ValueError:
        raise RequestError(400, "bad_request", "bad Content-Length") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise RequestError(413, "body_too_large", f"body of {length} bytes refused")
    body = await reader.readexactly(length) if length else b""
    path, _, query_string = target.partition("?")
    query = {k: v[-1] for k, v in parse_qs(query_string).items()}
    return method.upper(), path, query, headers, body


def _decode_json(body: bytes) -> object:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RequestError(400, "bad_json", f"body is not valid JSON: {exc}") from None


def _job_or_404(server, ident: str):
    try:
        job = server.store.jobs.get(int(ident))
    except ValueError:
        job = None
    if job is None:
        raise RequestError(404, "not_found", f"no request with id {ident!r}")
    return job


def route_label(path: str) -> str:
    """Normalised route for the per-route request histogram.

    Ids collapse to ``{id}`` and unknown paths to ``other`` so the
    metric's label cardinality is bounded by the route table, never by
    traffic shape.
    """
    parts = [p for p in path.split("/") if p]
    if not parts:
        return "/"
    if parts[0] == "campaigns":
        if len(parts) == 1:
            return "/campaigns"
        if len(parts) == 2:
            return "/campaigns/{id}"
        if len(parts) == 3 and parts[2] == "guesses":
            return "/campaigns/{id}/guesses"
    if len(parts) == 1 and parts[0] in ("score", "status", "metrics", "healthz"):
        return f"/{parts[0]}"
    return "other"


async def _route(
    server, method: str, path: str, query: Dict[str, str], headers: Dict[str, str], body: bytes
) -> bytes:
    parts = [p for p in path.split("/") if p]
    if parts == ["campaigns"]:
        if method == "POST":
            trace = telemetry.parse_traceparent(headers.get("traceparent"))
            job = server.submit_generate(_decode_json(body), trace=trace)
            return _json_response(
                202,
                {"id": job.job_id, "state": job.state, "href": f"/campaigns/{job.job_id}"},
            )
        if method == "GET":
            jobs = [job.public(verbose=False) for _, job in sorted(server.store.jobs.items())]
            return _json_response(200, {"requests": jobs})
        raise RequestError(405, "method_not_allowed", f"{method} not supported here")
    if len(parts) == 2 and parts[0] == "campaigns":
        if method != "GET":
            raise RequestError(405, "method_not_allowed", f"{method} not supported here")
        return _json_response(200, _job_or_404(server, parts[1]).public())
    if len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "guesses":
        if method != "GET":
            raise RequestError(405, "method_not_allowed", f"{method} not supported here")
        job = _job_or_404(server, parts[1])
        if job.state != "done":
            raise RequestError(
                409, "not_finished",
                f"request {job.job_id} is {job.state}; guesses exist only for 'done'",
            )
        from .core import GUESSES_FILE  # late: avoid import cycle at module load

        return _render(
            200,
            (server.store.job_dir(job) / GUESSES_FILE).read_bytes(),
            "text/plain; charset=utf-8",
        )
    if parts == ["score"]:
        if method != "POST":
            raise RequestError(405, "method_not_allowed", f"{method} not supported here")
        return _json_response(200, await server.submit_score(_decode_json(body)))
    if parts == ["status"] and method == "GET":
        return _json_response(200, server.status())
    if parts == ["metrics"] and method == "GET":
        if query.get("format") == "prometheus":
            return _render(
                200,
                server.metrics_prometheus().encode("utf-8"),
                telemetry.PROMETHEUS_CONTENT_TYPE,
            )
        return _json_response(200, server.metrics())
    if parts == ["healthz"] and method == "GET":
        return _json_response(200, {"ok": True, "draining": server.draining})
    raise RequestError(404, "not_found", f"no route for {method} {path}")


async def handle_connection(server, reader, writer) -> None:
    """One connection, one request, typed errors, never a traceback."""
    response: Optional[bytes] = None
    label = "unparsed"
    started = time.perf_counter()
    try:
        parsed = await asyncio.wait_for(_read_request(reader), REQUEST_TIMEOUT)
        if parsed is not None:
            method, path, query, headers, body = parsed
            label = route_label(path)
            response = await _route(server, method, path, query, headers, body)
    except RequestError as exc:  # a typed refusal; backpressure adds Retry-After
        response = _json_response(exc.status, exc.to_payload(), exc.retry_after)
    except (asyncio.TimeoutError, asyncio.IncompleteReadError, ConnectionError):
        response = None  # client went away; nothing useful to say
    except Exception as exc:  # noqa: BLE001 — a connection must not kill the server
        response = _json_response(
            500, {"error": "internal", "message": f"{type(exc).__name__}: {exc}"}
        )
    if response is not None:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        telemetry.get_registry().histogram(
            "server.request_ms", labels={"route": label}
        ).observe(elapsed_ms)
    try:
        if response is not None:
            writer.write(response)
            await writer.drain()
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - platform noise
            pass
