"""The sweep service daemon: a long-lived simulation server.

``repro-clustering serve`` turns the repo's warm-state machinery — the
process-wide compiled-trace LRU, the worker pool, the content-hash
result cache — from per-invocation optimizations into a
shared, persistent service.

:class:`ServiceDaemon` is the asyncio HTTP front end (see
:mod:`repro.service.http`) over one :class:`~repro.core.executor.
SweepExecutor`: routing, keep-alive connections, the JSON-lines sweep
stream, and the **single-flight table** — point key
(:meth:`SweepExecutor.key`) → the :class:`asyncio.Task` computing it,
so N concurrent identical requests share one simulation.  The executor
alone reads and writes the result cache: the daemon calls
:meth:`SweepExecutor.cached` after its in-flight check and
:meth:`SweepExecutor.store` in the loop step that ends a flight, and
runs points through :meth:`SweepExecutor.submit_one` (the canonical
:class:`~repro.runtime.session.RunSession` pipeline).  Per-request
timeouts are ``asyncio.wait_for`` around a *shielded* flight, so one
impatient client never cancels a computation others share; graceful
shutdown stops accepting, drains in-flight points up to a deadline,
then cancels stragglers and closes the pool.
:meth:`ServiceDaemon.serve` is the one coroutine that hosts it, under
:func:`asyncio.run` for both :meth:`~ServiceDaemon.run_blocking` (the
CLI) and :class:`DaemonThread`.

Endpoints (wire format in ``docs/SERVICE.md``):

=========  ======  ====================================================
path       method  behaviour
=========  ======  ====================================================
/healthz   GET     liveness + protocol version + in-flight count
/stats     GET     counters: cache hit rate, coalesced, pool warmth, …
/resolve   POST    validate + resolve a request; returns key & config
/run       POST    evaluate one point; 200 with a PointReport
/sweep     POST    evaluate many; chunked JSON-lines, completion order
/shutdown  POST    graceful drain + stop (also SIGINT/SIGTERM)
=========  ======  ====================================================

Failures are structured: malformed payloads are 400s with an
``{"error": ...}`` body, a point that dies (including a killed worker
process poisoning the pool) is a 500 whose message is the exception
summary — never a traceback — and the daemon itself stays healthy, with
the executor reopening its pool on the next request.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import repro.native as native

from ..apps.registry import APP_NAMES, app_class
from ..core.config import MachineConfig
from ..core.executor import PointOutcome, SweepExecutor
from .http import (HTTPParseError, HTTPRequest, JSONLineWriter, read_request,
                   send_json)
from .protocol import (PROTOCOL_VERSION, PointReport, ProtocolError,
                       decode_point_payload, decode_sweep_payload,
                       encode_run_request, error_body)

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.plan import RunRequest

__all__ = ["DaemonThread", "PointExecutionError", "ServiceDaemon",
           "ServiceStats"]


class PointExecutionError(RuntimeError):
    """A point failed to execute; carries the client-safe summary.

    ``detail`` is the executor's full error text (which may include a
    worker traceback) for the daemon's own logs; ``message`` is the last
    non-empty line — the exception summary — and is all that ever
    reaches the wire.
    """

    def __init__(self, key: str, detail: str) -> None:
        lines = [ln for ln in (detail or "").strip().splitlines() if ln]
        self.key = key
        self.detail = detail
        self.message = lines[-1] if lines else "point execution failed"
        super().__init__(self.message)


@dataclass
class ServiceStats:
    """Monotonic service counters (reported by ``GET /stats``)."""

    requests: int = 0      # HTTP requests accepted (any endpoint)
    points: int = 0        # point evaluations asked for (run + sweep)
    executed: int = 0      # simulations actually run to completion
    cache_hits: int = 0    # points served from the persistent result cache
    coalesced: int = 0     # points that joined an identical in-flight run
    errors: int = 0        # executions that failed
    timeouts: int = 0      # per-request deadlines that expired


@functools.cache  # a refusal raises TypeError: only accepted sets are kept
def _bind_kwargs(app: str, names: tuple[str, ...]) -> None:
    inspect.signature(app_class(app)).bind(None, **dict.fromkeys(names))


class ServiceDaemon:
    """The sweep service: single-flight evaluation behind asyncio HTTP.

    Parameters
    ----------
    executor:
        The :class:`SweepExecutor` evaluations are dispatched to, and
        the owner of the result cache (``executor.cache``; ``None``
        disables memoization).  Its ``jobs`` decides the daemon's shape:
        ``jobs > 1`` for a warm pool of worker processes, ``1`` for
        in-process execution on one thread.
    base_config:
        Machine template every request resolves against.
    """

    def __init__(self, executor: SweepExecutor,
                 base_config: MachineConfig | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 drain_deadline: float = 10.0) -> None:
        self.executor = executor
        self.base_config = base_config or MachineConfig()
        self.host = host
        self.port = port
        self.drain_deadline = drain_deadline
        self.stats = ServiceStats()
        self.started_at = time.monotonic()
        self._inflight: dict[str, asyncio.Task] = {}
        self._server: asyncio.AbstractServer | None = None
        self._stopped = asyncio.Event()
        self._stopping = False
        self._shutdown_task: asyncio.Task | None = None

    # ------------------------------------------------------------ resolution
    def resolve(self, request: "RunRequest") -> str:
        """Validate a request; returns its :meth:`SweepExecutor.key`.

        Raises :class:`ProtocolError` for anything the daemon can reject
        before spending a worker on it: unknown applications, keyword
        arguments the application's constructor does not take, and
        machine shapes the base config cannot take (e.g. a cluster size
        that does not divide the processor count).
        """
        if request.app not in APP_NAMES:
            raise ProtocolError(
                f"unknown application {request.app!r}; expected one of "
                f"{', '.join(APP_NAMES)}")
        try:
            _bind_kwargs(request.app, tuple(request.kwargs))
        except TypeError as exc:
            raise ProtocolError(f"{request.app}: {exc}") from exc
        key = self.executor.key(request, self.base_config)
        if not isinstance(key, str):  # no machine can hold it: say why
            try:
                request.config_for(self.base_config)
            except ValueError as exc:
                raise ProtocolError(str(exc)) from exc
        return key

    # ------------------------------------------------------------ evaluation
    @property
    def in_flight(self) -> int:
        return len(self._inflight)

    async def evaluate(self, request: "RunRequest",
                       timeout: float | None = None) -> PointReport:
        """Evaluate one point: single-flight → cache → execute.

        The order is the whole contract: an identical in-flight
        execution is joined *before* the cache is consulted (the flight
        will populate the cache anyway), a cached result short-circuits
        execution, and only a genuinely new key starts a simulation.
        Everything between the in-flight lookup and the table insert is
        synchronous, so two coroutines can never both miss and both
        submit the same key.
        """
        self.stats.points += 1
        key = self.resolve(request)

        flight = self._inflight.get(key)
        if flight is not None:
            self.stats.coalesced += 1
            report = await self._await_flight(flight, timeout)
            return report.as_coalesced()

        hit = self.executor.cached(key)
        if hit is not None:
            self.stats.cache_hits += 1
            return PointReport(key, hit, cached=True)

        flight = asyncio.get_running_loop().create_task(
            self._execute(key, request))
        self._inflight[key] = flight
        return await self._await_flight(flight, timeout)

    async def _await_flight(self, flight: "asyncio.Task[PointReport]",
                            timeout: float | None) -> PointReport:
        # shield: a per-request timeout or client disconnect abandons
        # *this waiter*, never the shared computation — other coalesced
        # waiters keep their flight, and the result still reaches the
        # cache for the retry
        try:
            return await asyncio.wait_for(asyncio.shield(flight), timeout)
        except asyncio.TimeoutError:
            self.stats.timeouts += 1
            raise

    async def _execute(self, key: str, request: "RunRequest") -> PointReport:
        try:
            outcome: PointOutcome = await asyncio.wrap_future(
                self.executor.submit_one(request, self.base_config))
        finally:
            self._inflight.pop(key, None)
        if outcome.error is not None:
            self.stats.errors += 1
            raise PointExecutionError(key, outcome.error)
        self.stats.executed += 1
        # on the loop, in the step that ends the flight: a duplicate
        # either joins the flight or hits the cache
        self.executor.store(key, outcome.result)
        return PointReport(key, outcome.result, elapsed=outcome.elapsed)

    # --------------------------------------------------------------- reports
    def stats_dict(self) -> dict[str, Any]:
        from ..sim.compiled import trace_cache_info

        s = self.stats
        cache = self.executor.cache
        if cache is not None:
            cache = {"hits": cache.hits, "misses": cache.misses,
                     "directory": str(cache.directory)}
        workers = [p.pid for p in self.executor.worker_processes()]
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "requests": s.requests,
            "points": s.points,
            "executed": s.executed,
            "cache_hits": s.cache_hits,
            "cache_hit_rate": round(s.cache_hits / s.points, 4)
            if s.points else 0.0,
            "coalesced": s.coalesced,
            "errors": s.errors,
            "timeouts": s.timeouts,
            "in_flight": self.in_flight,
            "result_cache": cache,
            "native": native.status(),
            "trace_cache": trace_cache_info(),
            "pool": {
                "jobs": self.executor.jobs,
                "warm": bool(workers),
                "workers": workers,
            },
        }

    # ------------------------------------------------------------- lifecycle
    async def serve(self, started: Callable[[], None] = lambda: None
                    ) -> None:
        """Bind, call ``started()`` on the loop, and serve until
        :meth:`stop` has drained (``POST /shutdown`` or a caller)."""
        self._server = await asyncio.start_server(self._handle, self.host,
                                                  self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        started()
        await self._stopped.wait()

    async def stop(self, drain_deadline: float | None = None) -> None:
        """Graceful shutdown: stop accepting, wait for in-flight points
        (up to the drain deadline), cancel stragglers, close the pool."""
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [t for t in self._inflight.values() if not t.done()]
        if pending:
            await asyncio.wait(pending, timeout=self.drain_deadline
                               if drain_deadline is None else drain_deadline)
        for task in self._inflight.values():
            task.cancel()
        self.executor.close()
        self._stopped.set()

    def run_blocking(self, announce: bool = False) -> int:
        """Serve until SIGINT/SIGTERM or ``POST /shutdown`` (CLI entry)."""
        import contextlib
        import signal
        import sys

        def started() -> None:
            if announce:
                print(f"repro-clustering serve: listening on "
                      f"http://{self.host}:{self.port} "
                      f"(jobs={self.executor.jobs}, "
                      # `is not None`: an empty ResultCache is falsy (len 0)
                      f"cache="
                      f"{'on' if self.executor.cache is not None else 'off'})",
                      file=sys.stderr)
            for sig in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError):
                    asyncio.get_running_loop().add_signal_handler(
                        sig, self._stop_soon)

        try:
            asyncio.run(self.serve(started))
        except KeyboardInterrupt:  # platforms without signal handlers
            pass
        return 0

    def _stop_soon(self) -> None:
        # kept: the loop holds tasks weakly, and /shutdown's connection ends
        self._shutdown_task = asyncio.get_running_loop().create_task(
            self.stop())

    # ------------------------------------------------------------ connection
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HTTPParseError as exc:
                    send_json(writer, exc.status,
                              error_body(exc.kind, str(exc)))
                    await writer.drain()
                    break
                if request is None:
                    break
                self.stats.requests += 1
                close_after = await self._dispatch(request, writer)
                await writer.drain()
                if close_after or request.wants_close:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away (or we are shutting down): fine
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    # --------------------------------------------------------------- routing
    async def _dispatch(self, request: HTTPRequest,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns True when the connection must close."""
        route = (request.method, request.path)
        try:
            if route == ("GET", "/healthz"):
                send_json(writer, 200, {
                    "status": "ok", "protocol": PROTOCOL_VERSION,
                    "in_flight": self.in_flight})
            elif route == ("GET", "/stats"):
                send_json(writer, 200, self.stats_dict())
            elif route == ("POST", "/resolve"):
                self._handle_resolve(request, writer)
            elif route == ("POST", "/run"):
                await self._handle_run(request, writer)
            elif route == ("POST", "/sweep"):
                return await self._handle_sweep(request, writer)
            elif route == ("POST", "/shutdown"):
                send_json(writer, 200, {
                    "ok": True, "draining": self.in_flight})
                self._stop_soon()  # respond first, then stop
                return True
            elif request.path in ("/healthz", "/stats", "/resolve", "/run",
                                  "/sweep", "/shutdown"):
                send_json(writer, 405, error_body(
                    "method-not-allowed",
                    f"{request.method} is not supported on {request.path}"))
            else:
                send_json(writer, 404, error_body(
                    "not-found", f"no such endpoint {request.path!r}"))
        except (HTTPParseError, ProtocolError) as exc:
            send_json(writer, 400, error_body("bad-request", str(exc)))
        except PointExecutionError as exc:
            send_json(writer, 500, error_body("execution-error", exc.message))
        except asyncio.TimeoutError:
            send_json(writer, 504, error_body(
                "timeout", "the point did not finish within the "
                "request's deadline; it keeps running and will be "
                "served from cache when done"))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — last-resort 500, no trace
            send_json(writer, 500, error_body(
                "internal", f"{type(exc).__name__}: {exc}"))
        return False

    # -------------------------------------------------------------- handlers
    def _handle_resolve(self, request: HTTPRequest,
                        writer: asyncio.StreamWriter) -> None:
        spec, _timeout = decode_point_payload(request.json())
        key = self.resolve(spec)
        send_json(writer, 200, {"key": key,
                                "request": encode_run_request(spec),
                                "config": spec.config_for(
                                    self.base_config).to_dict()})

    async def _handle_run(self, request: HTTPRequest,
                          writer: asyncio.StreamWriter) -> None:
        spec, timeout = decode_point_payload(request.json())
        report = await self.evaluate(spec, timeout=timeout)
        send_json(writer, 200, report.to_dict())

    async def _handle_sweep(self, request: HTTPRequest,
                            writer: asyncio.StreamWriter) -> bool:
        specs, timeout = decode_sweep_payload(request.json())
        for spec in specs:  # reject the whole grid before streaming any of it
            self.resolve(spec)

        async def one(index: int, spec: "RunRequest") -> dict[str, Any]:
            try:
                report = await self.evaluate(spec, timeout=timeout)
            except PointExecutionError as exc:
                return {"index": index,
                        **error_body("execution-error", exc.message)}
            except asyncio.TimeoutError:
                return {"index": index,
                        **error_body("timeout", "point deadline expired")}
            return {"index": index, **report.to_dict()}

        stream = JSONLineWriter(writer)
        stream.start(200)
        tasks = [asyncio.create_task(one(i, s)) for i, s in enumerate(specs)]
        try:
            for next_done in asyncio.as_completed(tasks):
                await stream.send(await next_done)
            await stream.finish()
        except ConnectionError:
            for task in tasks:
                task.cancel()
            raise
        # chunked responses end cleanly, so keep-alive would be legal —
        # but closing keeps client-side framing state trivially simple
        return True


class DaemonThread:
    """Hosts a built :class:`ServiceDaemon` on a background thread (tests,
    fixtures, embedding).

    Runs :meth:`ServiceDaemon.serve` under :func:`asyncio.run` on a
    dedicated thread, and tears everything down — drain, pool shutdown,
    loop close — in :meth:`stop`.  The caller builds the daemon the way
    ``cmd_serve`` does, executor first; the ``serve_daemon`` pytest
    fixture wraps one of these so the whole service suite shares a
    single warm daemon.
    """

    def __init__(self, daemon: ServiceDaemon) -> None:
        self.daemon = daemon
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: Exception | None = None

    # ------------------------------------------------------------- lifecycle
    def start(self, timeout: float = 30.0) -> "DaemonThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service daemon did not start in time")
        if self._startup_error is not None:
            raise RuntimeError("service daemon failed to start") \
                from self._startup_error
        return self

    def _run(self) -> None:
        def started() -> None:
            self._loop = asyncio.get_running_loop()
            self._ready.set()

        try:
            asyncio.run(self.daemon.serve(started))
        except Exception as exc:  # e.g. the port is taken: start() raises
            self._startup_error = exc
        finally:
            self._ready.set()

    def stop(self, drain_deadline: float | None = None,
             timeout: float = 30.0) -> None:
        if self._thread is None:
            return
        # a daemon already stopping (POST /shutdown) ends serve() itself
        if (self._loop is not None and self._thread.is_alive()
                and not self.daemon._stopping):
            asyncio.run_coroutine_threadsafe(
                self.daemon.stop(drain_deadline), self._loop).result(timeout)
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover — hung teardown
            raise RuntimeError("service daemon thread did not stop")
        self._loop = None
        self._thread = None

    # --------------------------------------------------------------- queries
    @property
    def port(self) -> int:
        return self.daemon.port

    @property
    def host(self) -> str:
        return self.daemon.host

    def worker_processes(self) -> list:
        """Live pool worker processes (for leak checks in teardown)."""
        return self.daemon.executor.worker_processes()

    def client(self, **kwargs: Any):
        """A blocking :class:`~repro.service.client.ServiceClient`."""
        from .client import ServiceClient  # deferred: keep import cheap

        return ServiceClient(host=self.host, port=self.port, **kwargs)
