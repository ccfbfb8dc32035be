"""``serve_mix``: a closed-loop request mix against ``repro-clustering serve``.

The daemon is a child process (serial backend, result cache on).  One
load-generator process drives it over ``CONNECTIONS`` keep-alive
``ServiceClient`` connections, one thread each; a thread sends its next
operation only when the previous one has been answered, so a slower
daemon receives less load (closed loop).

A pass is one block of ``BLOCK_OPS`` operations with a fixed make-up:
82.5% ``/run`` hits on the 36 points warmed in set-up, 15% ``/run`` warm
misses (trace cached, point key new), 2.5% ``/sweep`` of 8 points = 4
new keys each listed twice (4 executed + 4 coalesced).  Every block
holds each application equally often; the seed decides the order, the
cluster sizes and the unique cache sizes of the misses.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
import traceback
from statistics import median
from time import perf_counter

from repro.apps.registry import QUICK_PROBLEM_SIZES
from repro.core.resultcache import TraceStore
from repro.runtime import RunRequest, RunSession
from repro.service import ServiceClient
from repro.sim.compiled import TraceCache

from harness import fresh_dir, percentile, ratio, reap
from tracing import Tracer
from workloads import (BASE, CLUSTER_SIZES, INVARIANT_APPS, Pass, Workload,
                       quick_grid, results_sha)

CONNECTIONS = 2
HITS, MISSES, SWEEPS = 99, 18, 3
BLOCK_OPS = HITS + MISSES + SWEEPS
#: a miss runs at cache_kb = 4 + k/64 for a k used once per daemon, which
#: keeps every miss a new point key inside the paper's 4-32 KB range
MISS_KS = range(1, 1792)
COUNTERS = ("points", "executed", "cache_hits", "coalesced", "errors")
#: misses recomputed in-process after the run to check the daemon's numbers
VERIFY_SAMPLE = 12


class ServeMix(Workload):
    points_per_pass = HITS + MISSES + 8 * SWEEPS

    def __init__(self, workdir, seed, smoke) -> None:
        super().__init__("serve_mix", workdir, seed, smoke)
        self.hit_points = quick_grid(4)
        self.daemon: subprocess.Popen | None = None
        self.clients: list[ServiceClient] = []
        self.daemon_rss_mb = 0.0

    # ------------------------------------------------------------ lifecycle
    def setup(self) -> None:
        super().setup()
        self.cache_dir = fresh_dir(self.dir, "cache-")
        stderr_path = self.dir / "daemon.err"
        with open(stderr_path, "wb") as err:
            self.daemon = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
                stdout=subprocess.DEVNULL, stderr=err,
                stdin=subprocess.DEVNULL,
                env={**os.environ, "REPRO_CACHE_DIR": str(self.cache_dir)})
        port = _announced_port(stderr_path)
        self.clients = [ServiceClient(port=port, timeout=60.0)
                        for _ in range(CONNECTIONS)]
        self.clients[0].wait_ready(10.0)
        # warm: every hit point executed once, so later /run calls on them
        # are result-cache hits and every app's trace is in the daemon
        self.warm = [self.clients[0].run_point(r).result
                     for r in self.hit_points]
        if not self.sha_matches("results_sha256", results_sha(
                [r.to_json() for r in self.warm])):
            raise RuntimeError("daemon warm-up results differ from the pin")
        self.ks = self.rng.sample(MISS_KS, len(MISS_KS))
        self.stats0 = self.clients[0].stats()
        self.issued = dict.fromkeys(COUNTERS, 0)
        self.misses_seen: list[tuple[RunRequest, object]] = []
        self.traced_samples: list[tuple[str, float, float]] = []

    def teardown(self) -> None:
        """Stop the daemon: ``/shutdown``, then kill; always reaped."""
        daemon, self.daemon = self.daemon, None
        if daemon is not None:
            rss = _peak_rss_mb(daemon.pid)
            try:
                self.clients[0].shutdown()
            except Exception:  # noqa: BLE001 — the kill below still runs
                daemon.kill()
            for client in self.clients:
                client.close()
            self.clients = []
            _code, reaped_rss = reap(daemon, 15.0)
            self.daemon_rss_mb = max(rss, reaped_rss)
        super().teardown()

    def peak_rss_mb(self) -> float:
        if self.daemon is not None:
            return _peak_rss_mb(self.daemon.pid)
        return self.daemon_rss_mb

    def has_pass_left(self) -> bool:
        return len(self.ks) >= MISSES + 4 * SWEEPS

    # --------------------------------------------------------------- passes
    def _block(self) -> list[tuple[str, object]]:
        rng = self.rng
        ops: list[tuple[str, object]] = [
            ("hit", i) for i in list(range(36)) * (HITS // 36)
            + rng.sample(range(36), HITS % 36)]
        apps = len(INVARIANT_APPS)
        ops += [("miss", self._miss(app, c)) for app in INVARIANT_APPS
                for c in rng.sample(CLUSTER_SIZES, MISSES // apps)]
        swept = [self._miss(app, c) for app in INVARIANT_APPS
                 for c in rng.sample(CLUSTER_SIZES, 4 * SWEEPS // apps)]
        rng.shuffle(swept)
        for i in range(0, len(swept), 4):
            ops.append(("sweep", swept[i:i + 4] * 2))
        rng.shuffle(ops)
        return ops

    def _miss(self, app: str, cluster_size: int) -> RunRequest:
        return RunRequest.make(app, cluster_size, 4 + self.ks.pop() / 64,
                               QUICK_PROBLEM_SIZES[app])

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        ops = iter(self._block())
        take = threading.Lock()
        samples: list[tuple[str, float, float]] = []  # kind, total, first
        failures: list[str] = []

        def connection(client: ServiceClient) -> None:
            while True:
                with take:
                    op = next(ops, None)
                if op is None:
                    return
                try:
                    samples.append(self._one(client, *op, tracer))
                except Exception:  # noqa: BLE001 — a failed request
                    failures.append(traceback.format_exc())

        threads = [threading.Thread(target=connection, args=(c,))
                   for c in self.clients]
        t_pass = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = perf_counter() - t_pass
        for text in failures[:3]:
            print(text)
        self.issued["points"] += self.points_per_pass
        self.issued["executed"] += MISSES + 4 * SWEEPS
        self.issued["cache_hits"] += HITS
        self.issued["coalesced"] += 4 * SWEEPS
        done = Pass(wall, [s[1] for s in samples], BLOCK_OPS, len(failures),
                    tracer=tracer)
        if tracer is not None:
            self.traced_samples += samples
            busy_s = sum(ms for _, ms, _ in samples) / 1e3
            done.ledger = {
                "service.codec_s": tracer.self_times()["service.codec"],
                # share of the connections' time spent waiting for answers
                "trace.coverage_ratio": ratio(busy_s, CONNECTIONS * wall)}
        return done

    def _one(self, client, kind, arg, tracer):
        """Send one operation, check the answer; (kind, ms, first-line ms)."""
        first = 0.0
        t0 = perf_counter()
        if kind == "sweep":
            lines = []
            for line in client.iter_sweep(arg):
                first = first or perf_counter() - t0
                lines.append(line)
            t1 = perf_counter()
            _check_sweep(lines)
            reports = lines
        else:
            request = self.hit_points[arg] if kind == "hit" else arg
            report = client.run_point(request)
            t1 = perf_counter()
            if kind == "hit":
                if not report.cached or report.result != self.warm[arg]:
                    raise RuntimeError(f"hit {arg}: not the warmed result")
            else:
                if report.cached or report.coalesced:
                    raise RuntimeError("miss served without executing")
                self.misses_seen.append((request, report.result))
            reports = [report.to_dict()]
        if tracer is not None:
            tracer.add(f"service.{kind}", t0, t1)
            # the wire codec, timed from outside: one encode + decode of
            # each body, after the request so its latency is untouched
            with tracer.span("service.codec"):
                for body in reports:
                    json.loads(json.dumps(body, sort_keys=True,
                                          separators=(",", ":")))
        return kind, (t1 - t0) * 1e3, first * 1e3

    # ------------------------------------------------------------ whole run
    def finish(self) -> tuple[int, int]:
        """``/stats`` deltas equal the schedule's arithmetic; sample misses."""
        stats = self.clients[0].stats()
        self.deltas = {k: stats[k] - self.stats0[k] for k in COUNTERS}
        if self.deltas != self.issued:
            print(f"serve_mix: /stats deltas {self.deltas} != issued "
                  f"{self.issued}")
            return 1, 1
        sample = self.rng.sample(self.misses_seen,
                                 min(VERIFY_SAMPLE, len(self.misses_seen)))
        session = RunSession(base_config=BASE, trace_cache=TraceCache(
            TraceStore(self.cache_dir)))
        wrong = sum(session.run(request) != result
                    for request, result in sample)
        return len(sample), wrong

    def layer_metrics(self, traced, untraced_wall_s):
        out = super().layer_metrics(traced, untraced_wall_s)
        # latencies by kind, over every traced pass of the run
        for kind in ("hit", "miss", "sweep"):
            pooled = [ms for k, ms, _ in self.traced_samples if k == kind]
            out[f"service.{kind}_p50_ms"] = median(pooled)
            out[f"service.{kind}_p99_ms"] = percentile(pooled, 0.99)
        del out["service.sweep_p99_ms"]  # too few sweeps for a p99
        out["service.sweep_first_line_ms"] = median(
            [first for k, _, first in self.traced_samples if k == "sweep"])
        # per pass, so that runs of different length report the same counts
        blocks = self.issued["points"] // self.points_per_pass
        for key in ("executed", "cache_hits", "coalesced", "errors"):
            out[f"service.{key}"] = self.deltas[key] / blocks
        out["service.coalesce_ratio"] = ratio(self.deltas["coalesced"],
                                              self.deltas["points"])
        out["service.daemon_rss_mb"] = self.peak_rss_mb()
        return out


def _check_sweep(lines: list[dict]) -> None:
    """8 lines, no errors, each key once executed and once coalesced."""
    if len(lines) != 8 or any("error" in line for line in lines):
        raise RuntimeError(f"sweep answered {lines!r:.300}")
    by_index = {line["index"]: line for line in lines}
    for i in range(4):
        a, b = by_index[i], by_index[i + 4]
        if (a["result"] != b["result"] or a["cached"] or b["cached"]
                or a["coalesced"] == b["coalesced"]):
            raise RuntimeError(f"sweep pair {i} not executed + coalesced")


def _announced_port(stderr_path) -> int:
    """The port ``serve --port 0`` announces on stderr."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        found = re.search(r"listening on http://[^:]+:(\d+)",
                          stderr_path.read_text(errors="replace"))
        if found:
            return int(found.group(1))
        time.sleep(0.01)
    raise RuntimeError(f"daemon did not start: {stderr_path.read_text()}")


def _peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0
