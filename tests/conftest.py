"""Shared fixtures: machine configurations and the sweep-service daemon."""

import time

import pytest

from repro.core.config import MachineConfig


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the persistent result cache at a per-test directory.

    Keeps the suite hermetic: no test reads results memoized by an earlier
    run (or an earlier test), and nothing is written to ``~/.cache``.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "result-cache"))


@pytest.fixture
def cfg4() -> MachineConfig:
    """4 processors in 2-way clusters, 4 KB/processor caches."""
    return MachineConfig(n_processors=4, cluster_size=2,
                         cache_kb_per_processor=4)


@pytest.fixture
def cfg8() -> MachineConfig:
    """8 processors in 4-way clusters, infinite caches."""
    return MachineConfig(n_processors=8, cluster_size=4)


@pytest.fixture
def cfg16() -> MachineConfig:
    """16 processors in 2-way clusters, 16 KB/processor caches."""
    return MachineConfig(n_processors=16, cluster_size=2,
                         cache_kb_per_processor=16)


def assert_no_leaked_workers(processes, deadline_s: float = 15.0) -> None:
    """Fail if any captured pool worker process outlives its daemon.

    ``processes`` are ``multiprocessing.Process`` handles captured
    *before* shutdown; ``is_alive()`` also reaps zombies, so a worker
    that exited but was not yet joined counts as gone.
    """
    deadline = time.monotonic() + deadline_s
    for proc in processes:
        while proc.is_alive() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not proc.is_alive(), \
            f"sweep-service worker pid {proc.pid} leaked past daemon teardown"


@pytest.fixture(scope="session")
def serve_daemon(tmp_path_factory):
    """One warm sweep-service daemon shared by the whole service suite.

    Session-scoped so the tests don't each pay daemon startup: the
    daemon runs on a background thread with an ephemeral port, a
    session-private result cache and trace store in one directory (as
    ``serve`` has), and in-process execution (``jobs=1``) —
    same-process execution is what lets the parity tests compare
    daemon-served results against direct
    :class:`~repro.runtime.session.RunSession` runs byte for byte.

    Teardown stops the daemon and asserts that no executor worker
    process outlived it (trivially true at ``jobs=1``, and the check
    keeps honest any future fixture switch to a worker pool).
    """
    from repro.core.executor import SweepExecutor
    from repro.core.resultcache import ResultCache, TraceStore
    from repro.service import DaemonThread, ServiceDaemon

    cache_dir = tmp_path_factory.mktemp("service-result-cache")
    daemon = DaemonThread(ServiceDaemon(
        SweepExecutor(cache=ResultCache(cache_dir),
                      trace_store=TraceStore(cache_dir)),
        MachineConfig(n_processors=8)))
    daemon.start()
    yield daemon
    workers = daemon.worker_processes()
    daemon.stop()
    assert_no_leaked_workers(workers)
