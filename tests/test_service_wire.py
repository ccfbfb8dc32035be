"""The daemon's wire bytes, and what a result-cache hit costs it.

A report travels as its result's canonical text: the daemon splices the
stored :meth:`RunResult.to_json` text into the report's envelope instead
of decoding and re-encoding it.  These tests pin that every body and
stream line is still exactly the bytes of dumping the decoded report
(``json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))``,
what the daemon sent when it re-encoded), and that a repeated hit
decodes and encodes no result at all.
"""

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core.executor import SweepExecutor
from repro.core.metrics import RunResult
from repro.core.resultcache import ResultCache
from repro.runtime import RunRequest
from repro.service import DaemonThread, PointReport, ServiceDaemon
from repro.service.protocol import encode_point_payload, encode_sweep_payload

from test_resultcache import SPELLINGS
from test_service_concurrency import CFG, GatedCountingObserver, _poll

LU = dict(n=32, block=8)


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def run_body(client, request: RunRequest) -> bytes:
    response = client._raw("POST", "/run", encode_point_payload(request))
    body = response.read()
    assert response.status == 200, body
    return body


def sweep_lines(client, requests: list[RunRequest]) -> list[bytes]:
    response = client._raw("POST", "/sweep", encode_sweep_payload(requests))
    assert response.status == 200
    try:
        return [line.rstrip(b"\n") for line in response if line.strip()]
    finally:
        client.close()


def assert_report_bytes(body: bytes, **index) -> PointReport:
    """``body`` is the decoded report dumped back, byte for byte."""
    report = PointReport.from_dict(json.loads(body))
    assert body == canonical({**index, **report.to_dict()})
    assert body.endswith(
        b',"result":' + report.result.to_json().encode() + b"}")
    return report


@pytest.fixture
def gated_daemon(tmp_path):
    observer = GatedCountingObserver()
    daemon = DaemonThread(ServiceDaemon(SweepExecutor(
        cache=ResultCache(tmp_path / "cache"), observer=observer),
        CFG)).start()
    yield daemon, observer
    daemon.stop()


class TestWireBytes:
    def test_run_bodies_for_a_miss_a_hit_and_a_coalesced_follower(
            self, gated_daemon):
        daemon, observer = gated_daemon
        miss_request = RunRequest.make("lu", 2, 4.0, LU)
        with daemon.client() as client:
            miss = assert_report_bytes(run_body(client, miss_request))
            cold = assert_report_bytes(run_body(client, miss_request))
            hot = run_body(client, miss_request)
            assert_report_bytes(hot)
        assert (miss.cached, cold.cached) == (False, True)
        assert cold.result == miss.result
        assert daemon.daemon.executor.cache.hot_hits == 1

        # a coalesced follower: hold the flight until both have arrived
        observer.gate.clear()
        request = RunRequest.make("lu", 4, 4.0, LU)

        def one(_i: int) -> bytes:
            with daemon.client() as client:
                return run_body(client, request)

        with ThreadPoolExecutor(2) as pool, daemon.client() as poll:
            before = poll.stats()["coalesced"]
            bodies = pool.map(one, range(2))
            _poll(lambda: poll.stats()["coalesced"] == before + 1,
                  message="the follower joining the flight")
            observer.gate.set()
            reports = [assert_report_bytes(body) for body in bodies]
        assert sorted(r.coalesced for r in reports) == [False, True]
        assert reports[0].result == reports[1].result

    def test_sweep_lines_for_executed_coalesced_cached_and_failed_points(
            self, gated_daemon):
        daemon, _observer = gated_daemon
        fresh = RunRequest.make("lu", 2, 8.0, LU)
        failing = RunRequest.make("lu", 2, 8.0, dict(n=33, block=8))
        with daemon.client() as client:
            lines = sweep_lines(client, [fresh, fresh, failing])
            again = sweep_lines(client, [fresh])
        by_index = {json.loads(line)["index"]: line for line in lines}
        assert sorted(by_index) == [0, 1, 2]
        reports = [assert_report_bytes(by_index[i], index=i) for i in (0, 1)]
        assert sorted(r.coalesced for r in reports) == [False, True]
        error = json.loads(by_index[2])
        assert error["error"]["type"] == "execution-error"
        assert by_index[2] == canonical(error)
        cached = assert_report_bytes(again[0], index=0)
        assert cached.cached and cached.result == reports[0].result

    @pytest.mark.parametrize("spell", SPELLINGS.values(), ids=SPELLINGS)
    def test_an_entry_in_another_spelling_goes_out_canonical(
            self, tmp_path, gated_daemon, spell):
        """A valid entry hand-edited into another spelling (indented,
        say) is a hit whose stream line is still one canonical line."""
        daemon, observer = gated_daemon
        request = RunRequest.make("lu", 2, 4.0, LU)
        writer = SweepExecutor(cache=ResultCache(tmp_path / "cache"))
        result = writer.run([request], CFG)[0].result
        path = writer.cache.path_for(writer.key(request, CFG))
        path.write_text(spell(path.read_text()))
        with daemon.client() as client:
            lines = sweep_lines(client, [request, request])
            hot = run_body(client, request)
        assert len(lines) == 2
        for line in lines:
            report = assert_report_bytes(line, index=json.loads(line)["index"])
            assert report.cached and report.result == result
        assert assert_report_bytes(hot).cached
        assert observer.executions == 0
        assert daemon.daemon.executor.cache.hot_hits == 2


class TestHitCost:
    def test_a_repeated_hit_decodes_and_encodes_no_result(
            self, tmp_path, monkeypatch):
        executor = SweepExecutor(cache=ResultCache(tmp_path))
        daemon = ServiceDaemon(executor, CFG)
        request = RunRequest.make("lu", 2, 4.0, LU)
        try:
            executed = asyncio.run(daemon.evaluate(request))   # miss
            cold = asyncio.run(daemon.evaluate(request))       # disk read
        finally:
            executor.close()
        assert (executed.cached, cold.cached) == (False, True)
        assert cold.text == executed.text

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(json, "loads", counted("json.loads", json.loads))
        monkeypatch.setattr(RunResult, "from_dict", classmethod(counted(
            "from_dict", RunResult.from_dict.__func__)))
        monkeypatch.setattr(RunResult, "to_dict",
                            counted("to_dict", RunResult.to_dict))
        monkeypatch.setattr(Path, "read_text",
                            counted("read_text", Path.read_text))
        hot = asyncio.run(daemon.evaluate(request))
        body = hot.encode()
        assert calls == []
        assert hot.cached and hot.text == executed.text
        assert executor.cache.hot_hits == 1
        assert daemon.stats.cache_hits == 2
        assert body == asyncio.run(daemon.evaluate(request)).encode()

    def test_stats_report_the_hot_tier(self, gated_daemon):
        daemon, _observer = gated_daemon
        request = RunRequest.make("lu", 2, 16.0, LU)
        with daemon.client() as client:
            reports = [client.run_point(request) for _ in range(3)]
            stats = client.stats()
        assert [r.cached for r in reports] == [False, True, True]
        text = reports[0].result.to_json()
        assert stats["result_cache"]["hot"] == {
            "entries": 1, "bytes": len(text), "hits": 1}
        assert (stats["result_cache"]["hits"], stats["cache_hits"]) == (2, 2)
