"""A deliberately small HTTP/1.1 layer over :mod:`asyncio` streams.

The sweep service speaks plain HTTP+JSON with zero third-party
dependencies, so this module implements exactly the subset the daemon
needs and nothing more:

* request parsing (request line, headers, ``Content-Length`` bodies)
  with hard size limits — a malformed request raises
  :class:`HTTPParseError` and becomes a 400, a declared body past
  :data:`MAX_BODY` a 413 (:class:`PayloadTooLarge`), headers or a body
  still arriving :data:`REQUEST_DEADLINE` seconds after the request line
  a 408 (:class:`RequestTimeout`), never a hung connection;
* fixed-length JSON responses (``Content-Length``) and chunked
  streaming responses (``Transfer-Encoding: chunked``) for the
  JSON-lines sweep stream.

Connections are HTTP/1.1 keep-alive by default; a handler (or the
client) closes by sending ``Connection: close``.  Anything fancier —
TLS, compression, HTTP/2, multipart — is out of scope on purpose: the
daemon binds to localhost and trusts its reverse proxy for the rest.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["HTTPParseError", "HTTPRequest", "JSONLineWriter",
           "PayloadTooLarge", "REASONS", "RequestTimeout", "read_request",
           "response_bytes", "send_json"]

#: request-line + one header line limit (bytes)
MAX_LINE = 8192
#: header count limit per message
MAX_HEADERS = 100
#: request body limit (bytes) — a sweep of thousands of points fits easily
MAX_BODY = 8 * 1024 * 1024
#: seconds a request's headers and body may take once its request line has
#: arrived (a peer trickling bytes cannot hold a connection open); the
#: idle wait for the next request line on a keep-alive connection is not
#: timed
REQUEST_DEADLINE = 30.0

REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
           405: "Method Not Allowed", 408: "Request Timeout",
           413: "Payload Too Large", 500: "Internal Server Error",
           503: "Service Unavailable", 504: "Gateway Timeout"}


class HTTPParseError(ValueError):
    """The peer sent something that is not the HTTP we speak."""

    #: the response status and error ``type`` the daemon answers with
    status, kind = 400, "bad-request"


class PayloadTooLarge(HTTPParseError):
    """A ``Content-Length`` past :data:`MAX_BODY`; the body is never read."""

    status, kind = 413, "payload-too-large"


class RequestTimeout(HTTPParseError):
    """Headers or body incomplete :data:`REQUEST_DEADLINE` seconds after
    the request line."""

    status, kind = 408, "request-timeout"


@dataclass
class HTTPRequest:
    """One parsed request: method, split target, lowercased headers, body."""

    method: str
    path: str
    query: str
    headers: dict[str, str]
    body: bytes

    def json(self) -> Any:
        """The body parsed as JSON; :class:`HTTPParseError` if it isn't."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HTTPParseError(f"body is not valid JSON: {exc}") from exc

    @property
    def wants_close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"


# ------------------------------------------------------------------ parsing
async def _readline(reader: asyncio.StreamReader) -> bytes:
    """One line; a line past the reader's own buffer limit (64 KiB by
    default), for which ``readline`` raises a bare ``ValueError``, is an
    :class:`HTTPParseError` like any other oversized line."""
    try:
        return await reader.readline()
    except (ConnectionError, ValueError) as exc:
        raise HTTPParseError(str(exc)) from exc


async def _read_headers(reader: asyncio.StreamReader) -> dict[str, str]:
    headers: dict[str, str] = {}
    while True:
        line = await _readline(reader)
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            raise HTTPParseError("connection closed inside headers")
        if len(line) > MAX_LINE:
            raise HTTPParseError("header line too long")
        if len(headers) >= MAX_HEADERS:
            raise HTTPParseError("too many headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HTTPParseError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()


def _body_length(headers: Mapping[str, str]) -> int:
    raw = headers.get("content-length", "0") or "0"
    try:
        length = int(raw)
    except ValueError:
        raise HTTPParseError(f"bad Content-Length {raw!r}") from None
    if length < 0:
        raise HTTPParseError("negative Content-Length")
    if length > MAX_BODY:
        raise PayloadTooLarge(f"body of {length} bytes exceeds the "
                              f"{MAX_BODY}-byte limit")
    return length


async def _read_rest(reader: asyncio.StreamReader) -> tuple[dict[str, str],
                                                             bytes]:
    headers = await _read_headers(reader)
    length = _body_length(headers)
    try:
        return headers, (await reader.readexactly(length) if length else b"")
    except asyncio.IncompleteReadError as exc:
        raise HTTPParseError("connection closed inside body") from exc


async def read_request(reader: asyncio.StreamReader) -> HTTPRequest | None:
    """Parse one request; ``None`` on clean EOF before the request line.

    The request line may take as long as it likes (an idle keep-alive
    connection); the headers and body must then arrive within
    :data:`REQUEST_DEADLINE` seconds, or :class:`RequestTimeout`.
    """
    line = await _readline(reader)
    if not line:
        return None
    if len(line) > MAX_LINE:
        raise HTTPParseError("request line too long")
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HTTPParseError(f"malformed request line {line!r}")
    method, target, _version = parts
    try:
        headers, body = await asyncio.wait_for(_read_rest(reader),
                                               REQUEST_DEADLINE)
    except asyncio.TimeoutError:
        raise RequestTimeout(f"request incomplete {REQUEST_DEADLINE:g} s "
                             f"after its request line") from None
    path, _, query = target.partition("?")
    return HTTPRequest(method.upper(), path, query, headers, body)


# ------------------------------------------------------------------ writing
def _head(status: int, headers: list[tuple[str, str]]) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines += [f"{name}: {value}" for name, value in headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def response_bytes(status: int, body: bytes) -> bytes:
    """A complete fixed-length JSON response as one buffer."""
    return _head(status, [("Content-Type", "application/json"),
                          ("Content-Length", str(len(body)))]) + body


def _json_bytes(obj: Any) -> bytes:
    """``obj`` as compact sorted JSON; ``bytes`` are JSON encoded already
    (a point report, :meth:`~repro.service.protocol.ServedPoint.encode`)."""
    if isinstance(obj, bytes):
        return obj
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def send_json(writer: asyncio.StreamWriter, status: int, obj: Any) -> None:
    """Queue one JSON response on ``writer`` (caller drains)."""
    writer.write(response_bytes(status, _json_bytes(obj)))


@dataclass
class JSONLineWriter:
    """Chunked-encoding writer streaming one JSON object per line.

    The sweep endpoint's transport: each finished point goes out as its
    own chunk the moment it lands, so a client sees results in
    completion order without waiting for the grid.
    """

    writer: asyncio.StreamWriter
    started: bool = field(default=False, init=False)

    def start(self, status: int = 200) -> None:
        self.writer.write(_head(status, [
            ("Content-Type", "application/x-ndjson"),
            ("Transfer-Encoding", "chunked")]))
        self.started = True

    async def send(self, obj: Any) -> None:
        line = _json_bytes(obj) + b"\n"
        self.writer.write(f"{len(line):x}\r\n".encode("latin-1")
                          + line + b"\r\n")
        await self.writer.drain()

    async def finish(self) -> None:
        self.writer.write(b"0\r\n\r\n")
        await self.writer.drain()
