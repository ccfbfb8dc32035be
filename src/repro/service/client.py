"""The blocking client for the sweep service daemon.

:class:`ServiceClient` is the synchronous driver built on stdlib
:mod:`http.client` — what tools, tests, and CI smoke steps use::

    client = ServiceClient(port=8642)
    client.wait_ready(10.0)
    report = client.run_point(RunRequest.make("ocean", 4, 16.0))
    print(report.result.execution_time, report.cached, report.coalesced)
    for line in client.iter_sweep(grid):        # completion order
        print(line["index"], line.get("error"))

It raises :class:`ServiceError` on any non-2xx response; the exception
carries the HTTP status and the daemon's structured ``{"error": ...}``
body, so callers can branch on ``err.kind`` (``"bad-request"``,
``"execution-error"``, ``"timeout"``, …) instead of parsing prose.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Iterable, Iterator

from ..runtime.plan import RunRequest
from .protocol import (PointReport, encode_point_payload,
                       encode_sweep_payload)

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx or malformed daemon response, with its structured error
    body; an ``error`` that is not an object is a ``malformed-response``."""

    def __init__(self, status: int, payload: Any) -> None:
        self.status = status
        self.payload = payload if isinstance(payload, dict) else {}
        error = self.payload.get("error", {})
        if not isinstance(error, dict):
            error = {"type": "malformed-response", "message": str(error)}
        self.kind = error.get("type", "unknown")
        self.message = error.get("message", str(payload))
        super().__init__(f"HTTP {status} [{self.kind}]: {self.message}")


def _check(status: int, payload: Any) -> Any:
    if not 200 <= status < 300:
        raise ServiceError(status, payload)
    return payload


def _malformed(status: int, message: str) -> ServiceError:
    return ServiceError(status, {"error": {"type": "malformed-response",
                                           "message": message}})


class ServiceClient:
    """Blocking HTTP client for one daemon (not thread-safe: one
    underlying keep-alive connection — give each thread its own client).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 timeout: float = 300.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    # -------------------------------------------------------------- plumbing
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _raw(self, method: str, path: str,
             obj: Any = None) -> http.client.HTTPResponse:
        body = None
        headers = {"Accept": "application/json"}
        if obj is not None:
            body = json.dumps(obj, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
            headers["Content-Type"] = "application/json"
        # one retry on a stale keep-alive connection: the daemon may have
        # closed it between requests (e.g. after a chunked sweep response)
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                return conn.getresponse()
            except (http.client.BadStatusLine, http.client.CannotSendRequest,
                    BrokenPipeError, ConnectionResetError):
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _request(self, method: str, path: str, obj: Any = None) -> Any:
        response = self._raw(method, path, obj)
        raw = response.read()
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = {"error": {"type": "malformed-response",
                                 "message": raw[:200].decode("latin-1")}}
        return _check(response.status, payload)

    # ------------------------------------------------------------- endpoints
    def healthz(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/stats")

    def resolve(self, request: RunRequest) -> dict[str, Any]:
        """Validate + resolve without executing; returns key/request/config."""
        return self._request("POST", "/resolve",
                             encode_point_payload(request))

    def run_point(self, request: RunRequest,
                  timeout: float | None = None) -> PointReport:
        """Evaluate one point; blocks until the daemon answers."""
        payload = self._request("POST", "/run",
                                encode_point_payload(request, timeout))
        return PointReport.from_dict(payload)

    def iter_sweep(self, requests: Iterable[RunRequest],
                   timeout: float | None = None
                   ) -> Iterator[dict[str, Any]]:
        """Stream a sweep's JSON lines as points complete.

        Each yielded dict carries ``index`` (position in the submitted
        grid) plus either a :class:`PointReport` encoding or an
        ``error`` object; arrival order is completion order.
        """
        response = self._raw("POST", "/sweep",
                             encode_sweep_payload(list(requests), timeout))
        if not 200 <= response.status < 300:
            raw = response.read()
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                payload = {}
            raise ServiceError(response.status, payload)
        try:
            # http.client strips the chunk framing; what is left is
            # exactly the daemon's newline-delimited JSON stream
            for line in response:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    obj = None
                if not isinstance(obj, dict):
                    raise _malformed(response.status,
                                     line[:200].decode("latin-1"))
                yield obj
        finally:
            # the daemon closes the connection after a sweep stream
            self.close()

    def run_sweep(self, requests: Iterable[RunRequest],
                  timeout: float | None = None) -> list[PointReport]:
        """Evaluate a grid; reports come back in *submission* order.

        Any failed point raises :class:`ServiceError` carrying that
        point's error object (use :meth:`iter_sweep` to handle partial
        failure point by point).
        """
        requests = list(requests)
        reports: list[PointReport | None] = [None] * len(requests)
        for line in self.iter_sweep(requests, timeout):
            if "error" in line:
                raise ServiceError(500, {"error": line["error"]})
            index = line.get("index")
            if (type(index) is not int  # a bool is not an index
                    or not 0 <= index < len(reports)):
                raise _malformed(500, f"stream line with index {index!r} "
                                      f"for {len(reports)} point(s)")
            reports[index] = PointReport.from_dict(line)
        missing = [i for i, r in enumerate(reports) if r is None]
        if missing:
            raise ServiceError(500, {"error": {
                "type": "incomplete-stream",
                "message": f"no result for point(s) {missing}"}})
        return reports  # type: ignore[return-value]

    def shutdown(self) -> dict[str, Any]:
        """Ask the daemon to drain and exit."""
        payload = self._request("POST", "/shutdown")
        self.close()
        return payload

    # ------------------------------------------------------------- readiness
    def wait_ready(self, deadline_s: float = 10.0) -> dict[str, Any]:
        """Poll ``/healthz`` until the daemon answers (or raise)."""
        deadline = time.monotonic() + deadline_s
        last: Exception | None = None
        while time.monotonic() < deadline:
            try:
                return self.healthz()
            except (OSError, http.client.HTTPException,
                    ServiceError) as exc:
                last = exc
                self.close()
                time.sleep(0.05)
        raise TimeoutError(
            f"daemon at {self.host}:{self.port} not ready after "
            f"{deadline_s:g}s: {last}")
