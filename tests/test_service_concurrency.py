"""Single-flight and fault-injection properties of the sweep daemon.

The coalescing proof is deterministic, not probabilistic: a gated
:class:`~repro.runtime.hooks.RunObserver` blocks the (``jobs=1``,
same-process) execution at its first pipeline phase until the test has
confirmed — via ``/stats`` — that all N concurrent identical requests
are registered, then releases it.  Exactly one simulation may run, no
matter how the HTTP arrivals interleave.

The fault-injection half runs a real worker pool (``jobs=2``),
SIGKILLs a worker mid-service, and requires the daemon to answer with a
structured error — no traceback on the wire — while staying healthy
enough to serve the next request from a reopened pool.
"""

import os
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.config import MachineConfig
from repro.core.executor import SweepExecutor
from repro.core.resultcache import ResultCache
from repro.runtime import RunRequest
from repro.runtime.hooks import RunObserver
from repro.service import DaemonThread, ServiceDaemon, ServiceError

CFG = MachineConfig(n_processors=8)
LU = dict(n=32, block=8)
FFT = dict(n_points=256)


class GatedCountingObserver(RunObserver):
    """Counts completed executions; optionally holds them at the door."""

    def __init__(self, gated: bool = False) -> None:
        self.gate = threading.Event()
        if not gated:
            self.gate.set()
        self.executions = 0
        self._lock = threading.Lock()

    def on_phase(self, name, elapsed_s, info) -> None:
        if name == "resolve":
            assert self.gate.wait(30.0), "execution gate never released"

    def on_result(self, plan, result) -> None:
        with self._lock:
            self.executions += 1


def _poll(predicate, deadline_s: float = 10.0, message: str = "condition"):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"{message} not reached within {deadline_s:g}s")


class TestSingleFlight:
    N = 8

    def test_n_concurrent_identical_requests_execute_once(self, tmp_path):
        observer = GatedCountingObserver(gated=True)
        daemon = DaemonThread(ServiceDaemon(SweepExecutor(
            cache=ResultCache(tmp_path / "cache"), observer=observer),
            CFG)).start()
        try:
            request = RunRequest.make("lu", 2, 4.0, LU)
            poll_client = daemon.client()

            def one(_i: int):
                # clients are not thread-safe; one connection per thread
                with daemon.client() as client:
                    return client.run_point(request)

            with ThreadPoolExecutor(self.N) as pool:
                futures = [pool.submit(one, i) for i in range(self.N)]
                # hold the simulation until every request is registered,
                # so the coalescing claim cannot pass by lucky timing
                _poll(lambda: poll_client.stats()["points"] >= self.N,
                      message=f"{self.N} registered points")
                observer.gate.set()
                reports = [f.result(timeout=60) for f in futures]

            assert observer.executions == 1, \
                "single-flight violated: the simulation ran more than once"
            stats = poll_client.stats()
            assert stats["executed"] == 1
            assert stats["coalesced"] == self.N - 1
            assert stats["cache_hits"] == 0
            assert sum(1 for r in reports if r.coalesced) == self.N - 1
            assert len({r.result.to_json() for r in reports}) == 1
            poll_client.close()
        finally:
            daemon.stop()

    def test_request_after_completion_hits_the_cache_not_a_flight(
            self, tmp_path):
        observer = GatedCountingObserver()
        daemon = DaemonThread(ServiceDaemon(SweepExecutor(
            cache=ResultCache(tmp_path / "cache"), observer=observer),
            CFG)).start()
        try:
            request = RunRequest.make("fft", 2, 4.0, FFT)
            with daemon.client() as client:
                first = client.run_point(request)
                second = client.run_point(request)
            assert observer.executions == 1
            assert first.cached is False and second.cached is True
            assert second.coalesced is False
        finally:
            daemon.stop()


    def test_one_sweep_listing_each_key_twice_coalesces_each_pair(
            self, tmp_path):
        # what the serve_mix benchmark checks: the second listing of a
        # fresh key joins the first one's flight, it never reads the cache
        observer = GatedCountingObserver()
        daemon = DaemonThread(ServiceDaemon(SweepExecutor(
            cache=ResultCache(tmp_path / "cache"), observer=observer),
            CFG)).start()
        try:
            fresh = [RunRequest.make("lu", 2, 4.0, LU),
                     RunRequest.make("fft", 4, 8.0, FFT)]
            with daemon.client() as client:
                stats0 = client.stats()
                reports = client.run_sweep(fresh + fresh)
                stats = client.stats()
            for first, second in zip(reports[:2], reports[2:]):
                assert first.key == second.key
                pair = sorted((r.coalesced, r.cached) for r in (first, second))
                assert pair == [(False, False), (True, False)]
            deltas = {k: stats[k] - stats0[k]
                      for k in ("executed", "coalesced", "cache_hits")}
            assert deltas == {"executed": 2, "coalesced": 2, "cache_hits": 0}
            assert observer.executions == 2
        finally:
            daemon.stop()


class TestDaemonThreadLifecycle:
    def test_a_bound_port_fails_start_and_stop_still_returns(self):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            daemon = DaemonThread(ServiceDaemon(
                SweepExecutor(), CFG, port=taken.getsockname()[1]))
            with pytest.raises(RuntimeError) as excinfo:
                daemon.start()
            assert isinstance(excinfo.value.__cause__, OSError)
            daemon.stop()


class TestPerRequestTimeout:
    def test_deadline_expiry_is_a_504_and_the_flight_survives(
            self, tmp_path):
        observer = GatedCountingObserver(gated=True)
        daemon = DaemonThread(ServiceDaemon(SweepExecutor(
            cache=ResultCache(tmp_path / "cache"), observer=observer),
            CFG)).start()
        try:
            request = RunRequest.make("lu", 1, 4.0, LU)
            with daemon.client() as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.run_point(request, timeout=0.2)
                assert excinfo.value.status == 504
                assert excinfo.value.kind == "timeout"
                assert client.stats()["timeouts"] == 1

                # the abandoned flight keeps running once released and
                # lands in the cache: the retry is served without a rerun
                observer.gate.set()
                _poll(lambda: observer.executions == 1,
                      message="abandoned flight completion")
                _poll(lambda: client.stats()["in_flight"] == 0,
                      message="flight table drained")
                retry = client.run_point(request)
            assert observer.executions == 1
            assert retry.cached is True
        finally:
            daemon.stop()


class TestWorkerFaultInjection:
    def test_killed_worker_yields_structured_error_and_daemon_survives(
            self):
        daemon = DaemonThread(ServiceDaemon(
            SweepExecutor(jobs=2), CFG)).start()
        try:
            with daemon.client() as client:
                # warm the pool so there is a worker to murder
                warm = client.run_point(RunRequest.make("lu", 1, 4.0, LU))
                assert warm.result.execution_time > 0
                workers = daemon.worker_processes()
                assert workers, "the worker pool reported no workers"
                # every worker: a survivor could run the next point before
                # the pool notices the death
                for worker in workers:
                    os.kill(worker.pid, signal.SIGKILL)

                with pytest.raises(ServiceError) as excinfo:
                    client.run_point(RunRequest.make("lu", 2, 4.0, LU))
                error = excinfo.value
                assert error.status == 500
                assert error.kind == "execution-error"
                assert "Traceback" not in error.message

                # the daemon itself never died, and the executor reopens
                # its pool for the next request
                assert client.healthz()["status"] == "ok"
                recovered = client.run_point(
                    RunRequest.make("fft", 2, 4.0, FFT))
                assert recovered.result.execution_time > 0
                stats = client.stats()
                assert stats["errors"] == 1
                assert stats["executed"] == 2
        finally:
            workers = daemon.worker_processes()
            daemon.stop()
            from conftest import assert_no_leaked_workers

            assert_no_leaked_workers(workers)

    def test_drained_shutdown_leaves_no_workers(self):
        daemon = DaemonThread(ServiceDaemon(
            SweepExecutor(jobs=2), CFG)).start()
        with daemon.client() as client:
            client.run_point(RunRequest.make("fft", 1, 4.0, FFT))
        workers = daemon.worker_processes()
        assert workers
        daemon.stop()
        from conftest import assert_no_leaked_workers

        assert_no_leaked_workers(workers)
