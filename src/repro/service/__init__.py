"""The sweep service: a persistent HTTP+JSON simulation daemon.

This package turns the repo's warm-state machinery (compiled-trace LRU,
worker pool, content-hash result cache) into a long-lived,
addressable service — ``repro-clustering serve`` — with single-flight
coalescing of identical in-flight requests.  See ``docs/SERVICE.md`` for
endpoints, wire format, and semantics.

Layout:

* :mod:`~repro.service.protocol` — JSON wire codecs and validation;
* :mod:`~repro.service.http` — the minimal asyncio HTTP/1.1 layer;
* :mod:`~repro.service.daemon` — :class:`ServiceDaemon` (single-flight
  server over the executor that owns the result cache) and
  :class:`DaemonThread` (``DaemonThread(daemon)``: hosts a built daemon
  on a background thread, for tests and embedding);
* :mod:`~repro.service.client` — the blocking client.
"""

from .client import ServiceClient, ServiceError
from .daemon import (DaemonThread, PointExecutionError, ServiceDaemon,
                     ServiceStats)
from .protocol import (PROTOCOL_VERSION, PointReport, ProtocolError,
                       decode_point_payload, decode_run_request,
                       decode_sweep_payload, encode_point_payload,
                       encode_run_request, encode_sweep_payload, error_body)

__all__ = [
    "PROTOCOL_VERSION",
    "DaemonThread",
    "PointExecutionError",
    "PointReport",
    "ProtocolError",
    "ServiceClient",
    "ServiceDaemon",
    "ServiceError",
    "ServiceStats",
    "decode_point_payload",
    "decode_run_request",
    "decode_sweep_payload",
    "encode_point_payload",
    "encode_run_request",
    "encode_sweep_payload",
    "error_body",
]
