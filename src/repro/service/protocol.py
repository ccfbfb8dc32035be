"""Wire format of the sweep service: JSON codecs and validation.

One :class:`~repro.runtime.plan.RunRequest` is one JSON object::

    {"app": "ocean", "cluster_size": 4, "cache_kb": 16,
     "app_kwargs": {"n": 64}, "network": {...NetworkConfig...},
     "protocol": "dls"}

``cache_kb`` is ``null`` for infinite caches; ``network`` is ``null`` (or
absent) to inherit the daemon's base interconnect model; ``protocol`` is
``null`` (or absent) to inherit the daemon's base coherence protocol,
else one of :data:`repro.core.config.PROTOCOLS`.  The codec is a
strict inverse pair — :func:`decode_run_request` rejects unknown fields
and wrong types with a :class:`ProtocolError` whose message is safe to
put in an HTTP 400 body — and round-trips every representable request
(``decode(encode(r)) == r``, pinned by hypothesis in
``tests/test_service_protocol.py``).

A finished point comes back as a :class:`PointReport`::

    {"key": "<sha256 point key>", "cached": false, "coalesced": false,
     "elapsed": 0.41, "result": {...RunResult.to_dict()...}}

``result`` is the canonical :class:`~repro.core.metrics.RunResult`
encoding — the same bytes the result cache stores and the determinism
suite compares — so daemon-served results can be diffed against direct
:class:`~repro.runtime.session.RunSession` execution byte for byte.

Errors travel as ``{"error": {"type": ..., "message": ...}}`` (see
:func:`error_body`); the daemon never puts a traceback on the wire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Mapping

from ..core.config import PROTOCOLS, NetworkConfig
from ..core.metrics import RunResult
from ..runtime.plan import RunRequest

__all__ = ["PROTOCOL_VERSION", "PointReport", "ProtocolError",
           "decode_point_payload", "decode_run_request",
           "decode_sweep_payload", "encode_point_payload",
           "encode_run_request", "encode_sweep_payload", "error_body"]

#: bumped on incompatible wire-format changes; reported by ``/healthz``
PROTOCOL_VERSION = 1

#: the JSON scalar types an ``app_kwargs`` value may take
_SCALARS = (bool, int, float, str)

_REQUEST_FIELDS = frozenset(
    {"app", "cluster_size", "cache_kb", "app_kwargs", "network",
     "protocol"})


class ProtocolError(ValueError):
    """A malformed wire payload; the message is the client-facing text."""


# --------------------------------------------------------------- RunRequest
def encode_run_request(request: RunRequest) -> dict[str, Any]:
    """The JSON-safe wire form of one sweep point."""
    out: dict[str, Any] = {
        "app": request.app,
        "cluster_size": request.cluster_size,
        "cache_kb": request.cache_kb,
        "app_kwargs": dict(request.app_kwargs),
    }
    if request.network is not None:
        out["network"] = request.network.to_dict()
    if request.protocol is not None:
        out["protocol"] = request.protocol
    return out


def decode_run_request(obj: Any) -> RunRequest:
    """Parse and validate one wire-form sweep point.

    Strict by design: unknown fields, wrong types, and out-of-range
    values all raise :class:`ProtocolError` — a daemon must answer a bad
    payload with a clear 400, not run something the client did not ask
    for (or crash trying).
    """
    if not isinstance(obj, Mapping):
        raise ProtocolError("request must be a JSON object")
    unknown = sorted(set(obj) - _REQUEST_FIELDS)
    if unknown:
        raise ProtocolError(f"unknown request field(s): {', '.join(unknown)}")

    app = obj.get("app")
    if not isinstance(app, str) or not app:
        raise ProtocolError("'app' must be a non-empty string")

    cluster = obj.get("cluster_size", 1)
    if isinstance(cluster, bool) or not isinstance(cluster, int):
        raise ProtocolError("'cluster_size' must be an integer")
    if cluster < 1:
        raise ProtocolError("'cluster_size' must be >= 1")

    cache_kb = obj.get("cache_kb")
    if cache_kb is not None:
        if isinstance(cache_kb, bool) or not isinstance(cache_kb,
                                                        (int, float)):
            raise ProtocolError("'cache_kb' must be a number or null")
        if not 0 < cache_kb < math.inf:
            raise ProtocolError("'cache_kb' must be positive and finite "
                                "(null = infinite caches)")

    kwargs = obj.get("app_kwargs") or {}
    if not isinstance(kwargs, Mapping):
        raise ProtocolError("'app_kwargs' must be a JSON object")
    for key, value in kwargs.items():
        if not isinstance(key, str):
            raise ProtocolError("'app_kwargs' keys must be strings")
        if value is not None and not isinstance(value, _SCALARS):
            raise ProtocolError(
                f"'app_kwargs' value for {key!r} must be a JSON scalar")

    network = obj.get("network")
    if network is not None:
        if not isinstance(network, Mapping):
            raise ProtocolError("'network' must be a JSON object or null")
        try:
            network = NetworkConfig.from_dict(network)
        except ValueError as exc:
            raise ProtocolError(f"bad 'network' config: {exc}") from exc

    protocol = obj.get("protocol")
    if protocol is not None:
        if not isinstance(protocol, str):
            raise ProtocolError("'protocol' must be a string or null")
        if protocol not in PROTOCOLS:
            raise ProtocolError(
                f"unknown 'protocol' {protocol!r}; choose from "
                f"{', '.join(PROTOCOLS)} (null = daemon default)")

    return RunRequest.make(app, cluster, cache_kb, kwargs, network, protocol)


# ---------------------------------------------------------------- envelopes
def _decode_timeout(obj: Mapping) -> float | None:
    timeout = obj.get("timeout")
    if timeout is None:
        return None
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
        raise ProtocolError("'timeout' must be a number of seconds")
    if timeout <= 0:
        raise ProtocolError("'timeout' must be positive")
    return float(timeout)


def encode_point_payload(request: RunRequest,
                         timeout: float | None = None) -> dict[str, Any]:
    """The ``POST /run`` request body."""
    out: dict[str, Any] = {"request": encode_run_request(request)}
    if timeout is not None:
        out["timeout"] = timeout
    return out


def decode_point_payload(obj: Any) -> tuple[RunRequest, float | None]:
    """Parse a ``POST /run`` body into (request, per-request timeout)."""
    if not isinstance(obj, Mapping):
        raise ProtocolError("payload must be a JSON object")
    unknown = sorted(set(obj) - {"request", "timeout"})
    if unknown:
        raise ProtocolError(f"unknown payload field(s): {', '.join(unknown)}")
    if "request" not in obj:
        raise ProtocolError("payload is missing 'request'")
    return decode_run_request(obj["request"]), _decode_timeout(obj)


def encode_sweep_payload(requests: list[RunRequest],
                         timeout: float | None = None) -> dict[str, Any]:
    """The ``POST /sweep`` request body."""
    out: dict[str, Any] = {
        "requests": [encode_run_request(r) for r in requests]}
    if timeout is not None:
        out["timeout"] = timeout
    return out


def decode_sweep_payload(obj: Any) -> tuple[list[RunRequest], float | None]:
    """Parse a ``POST /sweep`` body into (requests, per-point timeout)."""
    if not isinstance(obj, Mapping):
        raise ProtocolError("payload must be a JSON object")
    unknown = sorted(set(obj) - {"requests", "timeout"})
    if unknown:
        raise ProtocolError(f"unknown payload field(s): {', '.join(unknown)}")
    raw = obj.get("requests")
    if not isinstance(raw, list) or not raw:
        raise ProtocolError("'requests' must be a non-empty JSON array")
    return ([decode_run_request(r) for r in raw], _decode_timeout(obj))


# -------------------------------------------------------------- PointReport
@dataclass(frozen=True)
class PointReport:
    """One finished point as the daemon reports it.

    ``cached`` marks results served from the persistent result cache;
    ``coalesced`` marks requests that piggybacked on an identical
    in-flight execution (single-flight).  ``elapsed`` is the execution
    wall-clock in seconds — 0.0 for cache hits, and the *shared*
    execution's time for coalesced followers.
    """

    key: str
    result: RunResult
    cached: bool = False
    coalesced: bool = False
    elapsed: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {"key": self.key, "cached": self.cached,
                "coalesced": self.coalesced,
                "elapsed": round(self.elapsed, 6),
                "result": self.result.to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PointReport":
        try:
            return cls(key=data["key"],
                       result=RunResult.from_dict(data["result"]),
                       cached=bool(data.get("cached", False)),
                       coalesced=bool(data.get("coalesced", False)),
                       elapsed=float(data.get("elapsed", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"malformed point report: {exc}") from exc

    def as_coalesced(self) -> "PointReport":
        """A copy marked as served by an in-flight execution."""
        return replace(self, coalesced=True)


# -------------------------------------------------------------------- errors
def error_body(kind: str, message: str) -> dict[str, Any]:
    """The uniform error envelope — never carries a traceback."""
    return {"error": {"type": kind, "message": message}}
