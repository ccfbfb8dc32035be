"""Wire-format tests: codec round-trips, strict validation, clean 400s.

Two layers of round-trip coverage: pure in-process codec inverses
(hypothesis-generated :class:`RunRequest`\\ s through
``decode(encode(r)) == r``), and full wire trips through the running
daemon's ``/resolve`` endpoint — client encoding, HTTP framing, server
decoding, and re-encoding all have to agree.

Malformed payloads must come back as HTTP 400 (a body past the size
limit as 413) with a structured ``{"error": ...}`` body and never leak a
traceback.
"""

import http.client
import inspect
import json
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import APP_NAMES, app_class
from repro.core.config import PROTOCOLS, NetworkConfig
from repro.core.metrics import RunResult
from repro.runtime import RunRequest
from repro.service import http as http_layer
from repro.service.http import MAX_BODY
from repro.service.protocol import (PointReport, ProtocolError,
                                    decode_point_payload,
                                    decode_run_request,
                                    decode_sweep_payload,
                                    encode_point_payload,
                                    encode_run_request,
                                    encode_sweep_payload, error_body)

# --------------------------------------------------------------- strategies
networks = st.one_of(
    st.none(),
    st.builds(NetworkConfig,
              provider=st.sampled_from(["table", "mesh"]),
              topology=st.sampled_from(["mesh", "crossbar"]),
              wire_cycles=st.integers(0, 4),
              router_cycles=st.integers(1, 4),
              directory_cycles=st.integers(1, 12),
              background_load=st.sampled_from([0.0, 0.25, 0.5, 0.8]),
              contention=st.booleans()))

kwargs_values = st.one_of(st.integers(-1000, 1000), st.booleans(),
                          st.floats(-1e6, 1e6, allow_nan=False),
                          st.text(max_size=12))

requests = st.builds(
    RunRequest.make,
    app=st.sampled_from(APP_NAMES),
    cluster_size=st.sampled_from([1, 2, 4, 8]),
    cache_kb=st.one_of(st.none(), st.integers(1, 1024),
                       st.sampled_from([0.5, 4.0, 16.0, 32.0])),
    app_kwargs=st.dictionaries(
        st.text(st.characters(categories=("Ll",)), min_size=1, max_size=8),
        kwargs_values, max_size=4),
    network=networks,
    protocol=st.one_of(st.none(), st.sampled_from(PROTOCOLS)))


def _with_constructor_kwargs(request: RunRequest):
    """``request`` with kwargs its app's constructor takes (any values):
    the daemon refuses a name the constructor does not take."""
    names = list(inspect.signature(app_class(request.app)).parameters)[1:]
    return st.dictionaries(st.sampled_from(names), kwargs_values,
                           max_size=4).map(lambda kw: RunRequest.make(
                               request.app, request.cluster_size,
                               request.cache_kb, kw, request.network,
                               request.protocol))


class TestCodecRoundTrip:
    @given(request=requests)
    @settings(max_examples=80, deadline=None)
    def test_run_request_round_trips(self, request):
        wire = encode_run_request(request)
        # the wire form must survive real JSON serialization
        assert decode_run_request(json.loads(json.dumps(wire))) == request

    @given(request=requests,
           timeout=st.one_of(st.none(), st.floats(0.01, 100)))
    @settings(max_examples=40, deadline=None)
    def test_point_payload_round_trips(self, request, timeout):
        spec, decoded_timeout = decode_point_payload(
            json.loads(json.dumps(encode_point_payload(request, timeout))))
        assert spec == request
        assert decoded_timeout == (pytest.approx(timeout)
                                   if timeout is not None else None)

    @given(grid=st.lists(requests, min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_sweep_payload_round_trips(self, grid):
        specs, _ = decode_sweep_payload(
            json.loads(json.dumps(encode_sweep_payload(grid))))
        assert specs == grid

    def test_point_report_round_trips(self):
        from repro.core.metrics import MissCounters, TimeBreakdown

        breakdown = TimeBreakdown(cpu=100, load=13, merge=4, sync=6)
        misses = MissCounters(reads=10, writes=3)
        result = RunResult(execution_time=123, breakdown=breakdown,
                           per_processor=[breakdown],
                           misses=misses, per_cluster_misses=[misses])
        # the canonical JSON form must survive the trip too
        assert RunResult.from_json(result.to_json()).to_json() \
            == result.to_json()
        report = PointReport("k" * 64, result, cached=True, elapsed=0.5)
        back = PointReport.from_dict(json.loads(
            json.dumps(report.to_dict())))
        assert back == report

    def test_error_body_shape(self):
        body = error_body("bad-request", "nope")
        assert body == {"error": {"type": "bad-request", "message": "nope"}}


class TestStrictValidation:
    @pytest.mark.parametrize("payload,needle", [
        (42, "JSON object"),
        ({"app": ""}, "'app'"),
        ({"app": 7}, "'app'"),
        ({"app": "lu", "cluster_size": "two"}, "'cluster_size'"),
        ({"app": "lu", "cluster_size": True}, "'cluster_size'"),
        ({"app": "lu", "cluster_size": 0}, "'cluster_size'"),
        ({"app": "lu", "cache_kb": "big"}, "'cache_kb'"),
        ({"app": "lu", "cache_kb": -4}, "'cache_kb'"),
        ({"app": "lu", "app_kwargs": [1, 2]}, "'app_kwargs'"),
        ({"app": "lu", "app_kwargs": {"n": [1]}}, "'app_kwargs'"),
        ({"app": "lu", "network": "mesh"}, "'network'"),
        ({"app": "lu", "network": {"provider": "warp"}}, "network"),
        ({"app": "lu", "network": {"providr": "mesh"}}, "network"),
        ({"app": "lu", "protocol": "mesiv2"}, "'protocol'"),
        ({"app": "lu", "protocol": 3}, "'protocol'"),
        ({"app": "lu", "frobnicate": 1}, "unknown request field"),
    ])
    def test_bad_requests_raise_protocol_errors(self, payload, needle):
        with pytest.raises(ProtocolError) as excinfo:
            decode_run_request(payload)
        assert needle in str(excinfo.value)

    @pytest.mark.parametrize("number", ["Infinity", "-Infinity", "NaN",
                                        "1e999"])
    def test_a_non_finite_cache_size_is_refused(self, number):
        """Python's JSON decoder reads these as floats; no cache has
        such a size."""
        payload = json.loads('{"app": "lu", "cache_kb": %s}' % number)
        with pytest.raises(ProtocolError, match="'cache_kb' must be "
                                                "positive and finite"):
            decode_run_request(payload)

    @pytest.mark.parametrize("payload,needle", [
        ([], "JSON object"),
        ({}, "missing 'request'"),
        ({"request": {"app": "lu"}, "timeout": 0}, "'timeout'"),
        ({"request": {"app": "lu"}, "timeout": "fast"}, "'timeout'"),
        ({"request": {"app": "lu"}, "extra": 1}, "unknown payload field"),
    ])
    def test_bad_point_payloads(self, payload, needle):
        with pytest.raises(ProtocolError) as excinfo:
            decode_point_payload(payload)
        assert needle in str(excinfo.value)

    @pytest.mark.parametrize("payload,needle", [
        ({"requests": []}, "non-empty"),
        ({"requests": {"app": "lu"}}, "non-empty JSON array"),
        ({}, "non-empty"),
    ])
    def test_bad_sweep_payloads(self, payload, needle):
        with pytest.raises(ProtocolError) as excinfo:
            decode_sweep_payload(payload)
        assert needle in str(excinfo.value)


class TestWireTripsThroughTheDaemon:
    @given(request=requests.filter(  # fixture daemon has 8 procs
        lambda r: 8 % r.cluster_size == 0).flatmap(_with_constructor_kwargs))
    @settings(max_examples=25, deadline=None)
    def test_resolve_round_trips_client_to_server_and_back(
            self, serve_daemon, request):
        with serve_daemon.client() as client:
            resolved = client.resolve(request)
        assert decode_run_request(resolved["request"]) == request
        assert len(resolved["key"]) == 64
        assert resolved["config"]["cluster_size"] == request.cluster_size

    def test_malformed_json_body_is_a_400_without_traceback(
            self, serve_daemon):
        conn = http.client.HTTPConnection(serve_daemon.host,
                                          serve_daemon.port, timeout=30)
        try:
            conn.request("POST", "/run", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = response.read().decode("utf-8")
        finally:
            conn.close()
        assert response.status == 400
        payload = json.loads(body)
        assert payload["error"]["type"] == "bad-request"
        assert "Traceback" not in body

    @pytest.mark.parametrize("payload", [
        {"request": {"app": "lu", "cluster_size": -1}},
        {"request": {"app": "lu", "bogus": True}},
        {"requests": "all of them"},
        {"request": {"app": "not-an-app"}},
        {"request": {"app": "lu", "cluster_size": 3}},  # 3 ∤ 8 processors
        {"request": {"app": "lu", "cache_kb": float("inf")}},  # Infinity
        # a kwarg LUApp.__init__ does not take: refused before it runs
        {"request": {"app": "lu", "app_kwargs": {"n": 32, "block": 8,
                                                 "bogus": 1}}},
    ])
    def test_semantically_bad_payloads_are_400s(self, serve_daemon, payload):
        paths = ["/sweep"] if "requests" in payload else ["/run", "/resolve"]
        with serve_daemon.client() as client:
            for path in paths:
                conn = http.client.HTTPConnection(
                    serve_daemon.host, serve_daemon.port, timeout=30)
                try:
                    conn.request("POST", path,
                                 body=json.dumps(payload).encode("utf-8"),
                                 headers={"Content-Type": "application/json"})
                    response = conn.getresponse()
                    body = response.read().decode("utf-8")
                finally:
                    conn.close()
                assert response.status == 400, (path, body)
                assert json.loads(body)["error"]["type"] == "bad-request"
                assert "Traceback" not in body
                # a bad request never poisons the daemon
                assert client.healthz()["status"] == "ok"

    def test_unknown_path_is_404_and_wrong_method_is_405(self, serve_daemon):
        conn = http.client.HTTPConnection(serve_daemon.host,
                                          serve_daemon.port, timeout=30)
        try:
            conn.request("GET", "/no/such/endpoint")
            response = conn.getresponse()
            assert response.status == 404
            assert json.loads(response.read())["error"]["type"] == "not-found"
            conn.request("GET", "/run")
            response = conn.getresponse()
            assert response.status == 405
            payload = json.loads(response.read())
            assert payload["error"]["type"] == "method-not-allowed"
        finally:
            conn.close()

    @pytest.mark.parametrize("head", [
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
    ], ids=["request-line", "header-line"])
    def test_a_line_past_the_stream_limit_is_a_400(self, serve_daemon, head):
        # 70 KB is past asyncio's 64 KiB StreamReader limit, where
        # readline() raises a bare ValueError instead of returning the line
        reply = b""
        with socket.create_connection((serve_daemon.host, serve_daemon.port),
                                      timeout=30) as sock:
            sock.sendall(head)
            try:
                while chunk := sock.recv(65536):
                    reply += chunk
            except ConnectionResetError:
                pass  # closed with part of our request unread: fine
        status, _, rest = reply.partition(b"\r\n")
        assert status == b"HTTP/1.1 400 Bad Request", reply[:200]
        body = json.loads(rest.partition(b"\r\n\r\n")[2])
        assert body["error"]["type"] == "bad-request"
        with serve_daemon.client() as client:
            assert client.healthz()["status"] == "ok"

    def test_an_oversized_body_is_a_413_answered_unread(self, serve_daemon):
        """A ``Content-Length`` past the limit is answered at once, from
        the headers alone: the body is never sent here, and the reply
        still comes."""
        head = (f"POST /run HTTP/1.1\r\nContent-Type: application/json\r\n"
                f"Content-Length: {MAX_BODY + 1}\r\n\r\n").encode("latin-1")
        reply = b""
        with socket.create_connection((serve_daemon.host, serve_daemon.port),
                                      timeout=30) as sock:
            sock.sendall(head)
            while chunk := sock.recv(65536):
                reply += chunk
        status, _, rest = reply.partition(b"\r\n")
        assert status == b"HTTP/1.1 413 Payload Too Large", reply[:200]
        body = json.loads(rest.partition(b"\r\n\r\n")[2])
        assert body["error"]["type"] == "payload-too-large"
        assert str(MAX_BODY) in body["error"]["message"]
        with serve_daemon.client() as client:
            assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize("sent", [
        b"Content-Type: application/json\r\n",
        b"Content-Length: 40\r\n\r\n{\"request\"",
    ], ids=["headers", "body"])
    def test_a_request_stalled_after_its_request_line_is_a_408(
            self, serve_daemon, monkeypatch, sent):
        """A slow-loris peer: the request line arrives, then the headers or
        the body stop.  The daemon answers 408 at the deadline and closes
        the connection."""
        monkeypatch.setattr(http_layer, "REQUEST_DEADLINE", 0.3)
        reply = b""
        with socket.create_connection((serve_daemon.host, serve_daemon.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /run HTTP/1.1\r\n" + sent)
            while chunk := sock.recv(65536):
                reply += chunk
        status, _, rest = reply.partition(b"\r\n")
        assert status == b"HTTP/1.1 408 Request Timeout", reply[:200]
        body = json.loads(rest.partition(b"\r\n\r\n")[2])
        assert body["error"]["type"] == "request-timeout"
        with serve_daemon.client() as client:
            assert client.healthz()["status"] == "ok"

    def test_an_idle_keep_alive_wait_is_not_timed(self, serve_daemon,
                                                   monkeypatch):
        monkeypatch.setattr(http_layer, "REQUEST_DEADLINE", 0.2)
        conn = http.client.HTTPConnection(serve_daemon.host,
                                          serve_daemon.port, timeout=10)
        try:
            for _ in range(2):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
                time.sleep(0.5)  # idle past the deadline, same connection
        finally:
            conn.close()


class TestClientRejectsMalformedResponses:
    """A daemon answer the client cannot trust is a ``ServiceError`` of kind
    ``malformed-response``, never a bare python error or a silently
    misplaced report."""

    @staticmethod
    def _report_line(index):
        from repro.core.metrics import MissCounters, TimeBreakdown

        breakdown = TimeBreakdown(cpu=1)
        result = RunResult(execution_time=1, breakdown=breakdown,
                           per_processor=[breakdown], misses=MissCounters(),
                           per_cluster_misses=[MissCounters()])
        line = PointReport("k" * 64, result).to_dict()
        if index is not None:
            line["index"] = index
        return line

    @staticmethod
    def _stream(monkeypatch, lines):
        """A client whose sweep stream is ``lines`` (bytes, one per line)."""
        from repro.service.client import ServiceClient

        class Response:
            status = 200

            def __iter__(self):
                return iter(lines)

        client = ServiceClient(port=1)
        monkeypatch.setattr(client, "_raw", lambda *args: Response())
        return client

    def test_an_error_that_is_not_an_object(self):
        from repro.service.client import ServiceError

        err = ServiceError(500, {"error": "boom"})
        assert err.kind == "malformed-response" and err.message == "boom"

    @pytest.mark.parametrize("index", [-1, 2, 7, None, True, "0", 0.0])
    def test_run_sweep_refuses_an_index_outside_the_grid(self, monkeypatch,
                                                         index):
        from repro.service.client import ServiceError

        good = json.dumps(self._report_line(0)).encode()
        bad = json.dumps(self._report_line(index)).encode()
        client = self._stream(monkeypatch, [good + b"\n", bad + b"\n"])
        grid = [RunRequest.make("lu", 1, 4.0), RunRequest.make("lu", 2, 4.0)]
        with pytest.raises(ServiceError) as info:
            client.run_sweep(grid)
        assert info.value.kind == "malformed-response"

    @pytest.mark.parametrize("line", [b"{not json", b"[0, 1]", b"\xff\xfe"])
    def test_iter_sweep_refuses_a_line_that_is_not_an_object(
            self, monkeypatch, line):
        from repro.service.client import ServiceError

        client = self._stream(monkeypatch, [line + b"\n"])
        with pytest.raises(ServiceError) as info:
            list(client.iter_sweep([RunRequest.make("lu", 1, 4.0)]))
        assert info.value.kind == "malformed-response"
