"""The five single-process workloads: two CLI figures, three point sweeps.

(``serve_mix``, the daemon workload, is in ``servemix.py``.)  Each
workload sets itself up into fresh directories, runs passes — plain or
wrapped in benchmark-side spans — and checks every pass's output against
the sha256 pinned in ``expected.json``.  ``README.md`` says why each one
exists and which layers it stresses.
"""

from __future__ import annotations

import json
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

from repro.analysis import (figure_from_cluster_sweep, miss_breakdown,
                            render_miss_breakdown, render_rows)
from repro.apps.registry import APP_NAMES, QUICK_PROBLEM_SIZES
from repro.core.config import MachineConfig, NetworkConfig
from repro.core.resultcache import ResultCache, TraceStore, point_key
from repro.runtime import RunRequest, RunSession
from repro.sim.compiled import TraceCache, clear_memory_cache

from harness import (HERE, build_native, fresh_dir, ratio, remove_dir,
                     run_child, self_maxrss_mb, sha256_text)
from tracing import (LAYER_TIME_KEYS, SpanStore, Tracer, count_simulated,
                     label_of, pipeline_ledger, traced_point)

EXPECTED = json.loads((HERE / "expected.json").read_text())

#: the paper's 64-processor machine every point resolves against
BASE = MachineConfig()
CLUSTER_SIZES = (1, 2, 4, 8)
#: applications whose reference stream does not depend on simulated timing,
#: so one captured trace replays at any cluster size, cache size or protocol
INVARIANT_APPS = ("lu", "fft", "ocean", "fmm", "radix", "mp3d")


def quick_grid(cache_kb) -> list[RunRequest]:
    """9 apps × {1,2,4,8}/cluster at quick problem sizes, app-major."""
    return [RunRequest.make(app, c, cache_kb, QUICK_PROBLEM_SIZES[app])
            for app in APP_NAMES for c in CLUSTER_SIZES]


def results_sha(texts: list[str | None]) -> str:
    return sha256_text("\n".join(t or "" for t in texts))


@dataclass
class Pass:
    """One pass: its wall-clock, per-unit latencies and verdict."""

    wall_s: float
    latencies_ms: list[float]
    attempted: int
    failed: int
    ledger: dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None
    #: machine time around the pass as a multiple of nominal (set by run.py)
    slowdown: float = 1.0


class Workload:
    """Set-up, passes and teardown of one named workload."""

    name: str
    points_per_pass: int
    #: set-ups per measured run (their median is ``setup_s``); more than
    #: one only where a set-up is cheap, the whole run has a time cap
    setup_reps = 1

    def __init__(self, name: str, workdir: Path, seed: int,
                 smoke: bool) -> None:
        self.name = name
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.smoke = smoke
        # a smoke run may shrink the problem; its pins override the full ones
        self.pinned = {**EXPECTED[name],
                       **(EXPECTED[name].get("smoke", {}) if smoke else {})}
        self.dir: Path | None = None
        self.native_build_s = 0.0

    def setup(self) -> None:
        """Bring a fresh copy of the workload's warm state into being."""
        self.teardown()
        self.dir = fresh_dir(self.workdir, f"{self.name}-")
        self.native_build_s = build_native(self.dir / "native")

    def teardown(self) -> None:
        remove_dir(self.dir)
        self.dir = None

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        raise NotImplementedError

    def has_pass_left(self) -> bool:
        return True

    def sha_matches(self, pin: str, actual: str) -> bool:
        if actual != self.pinned[pin]:
            print(f"{self.name}: {pin} = {actual}, pinned {self.pinned[pin]}")
            return False
        return True

    def totals_match(self, ledger: dict[str, float]) -> bool:
        """The pass simulated exactly the pinned ops, cycles, references."""
        same = True
        for key, pinned in self.pinned.get("sim", {}).items():
            if ledger[f"sim.{key}"] != pinned:
                print(f"{self.name}: sim.{key} = {ledger[f'sim.{key}']}, "
                      f"pinned {pinned}")
                same = False
        return same

    def finish(self) -> tuple[int, int]:
        """Checks that need the whole run; extra (attempted, failed)."""
        return 0, 0

    def peak_rss_mb(self) -> float:
        return self_maxrss_mb()

    def layer_metrics(self, traced: Pass,
                      untraced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics: the ledger of one traced pass, completed."""
        return {**traced.ledger, "native.build_s": self.native_build_s}


# ------------------------------------------------------------- point sweeps

class SweepWorkload(Workload):
    """In-process ``RunSession.run`` over a pinned grid, traces warm."""

    def __init__(self, name, workdir, seed, smoke, points, capture_points,
                 reload_each_pass: bool = False, setup_reps: int = 1) -> None:
        super().__init__(name, workdir, seed, smoke)
        self.setup_reps = setup_reps
        self.points = points
        self.points_per_pass = len(points)
        self.capture_points = capture_points
        #: drop the in-memory trace LRU before every pass, so each pass
        #: maps its trace from the store again (the read side)
        self.reload_each_pass = reload_each_pass

    def setup(self) -> None:
        super().setup()
        clear_memory_cache()
        self.trace_cache = TraceCache(TraceStore(self.dir / "cache"))
        self.session = RunSession(base_config=BASE,
                                  trace_cache=self.trace_cache)
        for request in self.capture_points:
            self.session.run(request)

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        order = list(range(len(self.points)))
        self.rng.shuffle(order)
        if self.reload_each_pass:
            clear_memory_cache()
        cache = self.trace_cache
        hits0, misses0 = cache.hits, cache.misses
        texts: list[str | None] = [None] * len(self.points)
        latencies, failed = [], 0
        t_pass = perf_counter()
        for i in order:
            request = self.points[i]
            t0 = perf_counter()
            try:
                if tracer is None:
                    text = self.session.run(request).to_json()
                else:
                    result, program = traced_point(tracer, request, BASE,
                                                   cache)
                    with tracer.span("core.metrics.to_json",
                                     label_of(request)):
                        text = result.to_json()
                    count_simulated(tracer, result, program)
                    tracer.counts["result.bytes"] += len(text)
            except Exception:  # noqa: BLE001 — a failed point, not a crash
                traceback.print_exc()
                failed += 1
                continue
            latencies.append((perf_counter() - t0) * 1e3)
            texts[i] = text
        wall = perf_counter() - t_pass
        if not self.sha_matches("results_sha256", results_sha(texts)):
            failed = len(self.points)
        done = Pass(wall, latencies, len(self.points), failed, tracer=tracer)
        if tracer is not None:
            tracer.counts["trace.hits"] = cache.hits - hits0
            tracer.counts["trace.misses"] = cache.misses - misses0
            done.ledger = pipeline_ledger(tracer)
            if not self.totals_match(done.ledger):
                done.failed = done.attempted
        return done

    def layer_metrics(self, traced, untraced_wall_s):
        out = super().layer_metrics(traced, untraced_wall_s)
        attributed = sum(out[key] for key in LAYER_TIME_KEYS)
        out["runtime.session_overhead_s"] = traced.wall_s - attributed
        out["trace.coverage_ratio"] = ratio(attributed, traced.wall_s)
        out["sim.ops_per_s"] = ratio(out["sim.ops_total"], traced.wall_s)
        return out


def sweep36_native(workdir, seed, smoke) -> SweepWorkload:
    grid = quick_grid(4)
    return SweepWorkload("sweep36_native", workdir, seed, smoke,
                         points=grid, capture_points=grid)


def sweep18_fallback(workdir, seed, smoke) -> SweepWorkload:
    def grid(**variant):
        return [RunRequest.make(app, 4, 4, QUICK_PROBLEM_SIZES[app],
                                **variant) for app in INVARIANT_APPS]

    points = (grid(protocol="snoopy") + grid(protocol="dls")
              + grid(network=NetworkConfig(provider="mesh")))
    # traces do not depend on the protocol or the network, so set-up
    # captures them through the cheap default-protocol points
    return SweepWorkload("sweep18_fallback", workdir, seed, smoke,
                         points=points, capture_points=grid(), setup_reps=2)


def lu512_paper(workdir, seed, smoke) -> SweepWorkload:
    kwargs = {"n": 128 if smoke else 512, "block": 16}
    points = [RunRequest.make("lu", c, cache_kb, kwargs)
              for cache_kb in (4, None) for c in CLUSTER_SIZES]
    return SweepWorkload("lu512_paper", workdir, seed, smoke, points=points,
                         capture_points=points[-1:], reload_each_pass=True)


# -------------------------------------------------------------- CLI figures

CLI_ARGV = ["-m", "repro.cli", "--quick", "fig2"]


def figure_lines(stdout: str) -> list[str]:
    """The figure text without the CLI's ``[1.2s]`` timing lines."""
    return [line for line in stdout.splitlines() if not line.startswith("[")]


class CliFig2(Workload):
    """``repro-clustering --quick fig2`` as a child process, cold or cached.

    The traced pass replays the same 36 points in this process through
    the public calls the CLI's serial executor makes (cache get → run →
    cache put → figure), and must reproduce the CLI's figure text and
    result-cache entries byte for byte.
    """

    points_per_pass = 36

    def __init__(self, name, workdir, seed, smoke, cached: bool) -> None:
        super().__init__(name, workdir, seed, smoke)
        self.cached = cached
        self.setup_reps = 1 if cached else 3
        self.points = quick_grid(None)
        self.cache_dir: Path | None = None  # what the last CLI pass used
        self.child_rss_mb = 0.0
        self.import_s: float | None = None

    def setup(self) -> None:
        super().setup()
        self.cache_dir = None
        if self.cached:
            fill = self._cli_pass(hits=0)
            if fill.failed:
                raise RuntimeError("the cache-filling CLI pass failed")
        self.child_rss_mb = 0.0  # the fill pass is set-up, not measurement

    def _cli_pass(self, hits: int) -> Pass:
        if self.cache_dir is None or not self.cached:
            remove_dir(self.cache_dir)
            self.cache_dir = fresh_dir(self.dir, "cache-")
        child = run_child(CLI_ARGV, self.dir,
                          {"REPRO_CACHE_DIR": str(self.cache_dir)})
        stats = f"[result cache: {hits} hits, {36 - hits} misses"
        ok = (child.returncode == 0 and stats in child.stderr
              and self.sha_matches("stdout_sha256", sha256_text(
                  "\n".join(figure_lines(child.stdout)))))
        if not ok:
            print(f"{self.name}: CLI pass failed (exit {child.returncode})\n"
                  f"{child.stderr}")
        self.child_rss_mb = max(self.child_rss_mb, child.maxrss_mb)
        return Pass(child.wall_s, [child.wall_s * 1e3], 36, 0 if ok else 36)

    def peak_rss_mb(self) -> float:
        return self.child_rss_mb

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        if tracer is None:
            return self._cli_pass(hits=36 if self.cached else 0)
        if self.import_s is None:
            self.import_s = median([
                run_child(["-c", "import repro.cli"], self.dir).wall_s
                for _ in range(3 if self.smoke else 10)])
        return self._replay_pass(tracer)

    def _replay_pass(self, tr: Tracer) -> Pass:
        # cached: read what the CLI wrote; cold: start as empty as it did
        replay_dir = None if self.cached else fresh_dir(self.dir, "replay-")
        if replay_dir is not None:
            clear_memory_cache()
        results = ResultCache(replay_dir or self.cache_dir)
        trace_cache = TraceCache(SpanStore(replay_dir or self.cache_dir, tr))
        lines: list[str] = []
        entries: dict[str, object] = {}
        t_pass = perf_counter()
        for app in APP_NAMES:
            requests = [r for r in self.points if r.app == app]
            keys, row = [], []
            for request in requests:
                with tr.span("core.resultcache.get", label_of(request)):
                    key = point_key(request.app, request.kwargs,
                                    request.config_for(BASE))
                    row.append(results.get(key))
                keys.append(key)
            pending = [i for i, hit in enumerate(row) if hit is None]
            for i in pending:
                row[i], program = traced_point(tr, requests[i], BASE,
                                               trace_cache)
                count_simulated(tr, row[i], program)
            for i in pending:
                with tr.span("core.resultcache.put", label_of(requests[i])):
                    results.put(keys[i], row[i])
            with tr.span("analysis.render", app):
                sweep = {r.cluster_size: SimpleNamespace(result=result)
                         for r, result in zip(requests, row)}
                figure = figure_from_cluster_sweep(
                    f"Figure 2 ({app}): infinite caches", sweep)
                lines += render_rows(figure).split("\n")
                lines += render_miss_breakdown(
                    miss_breakdown(sweep), f"{app}: misses").split("\n")
                lines.append("")
            entries.update(zip(keys, row))
        wall = perf_counter() - t_pass
        tr.counts["resultcache.hits"] = results.hits
        tr.counts["resultcache.misses"] = results.misses
        tr.counts["trace.hits"] = trace_cache.hits
        tr.counts["trace.misses"] = trace_cache.misses
        ledger = pipeline_ledger(tr)
        ok = (self.sha_matches("stdout_sha256",
                               sha256_text("\n".join(lines)))
              and self._same_entries(entries, replay_dir)
              and self.totals_match(ledger))
        remove_dir(replay_dir)
        # what the CLI user waits for: interpreter start + imports, then
        # the work replayed above
        return Pass(self.import_s + wall, [], 36, 0 if ok else 36, ledger, tr)

    def _same_entries(self, entries: dict, written: Path | None) -> bool:
        """The replay's cache entries equal the CLI's, byte for byte."""
        ours = ResultCache(written or fresh_dir(self.dir, "verify-"))
        theirs = ResultCache(self.cache_dir)
        same = True
        for key, result in entries.items():
            if written is None:
                ours.put(key, result)
            try:
                same &= (ours.path_for(key).read_bytes()
                         == theirs.path_for(key).read_bytes())
            except OSError:
                same = False
        if written is None:
            remove_dir(ours.directory)
        return same

    def layer_metrics(self, traced, untraced_wall_s):
        out = super().layer_metrics(traced, untraced_wall_s)
        attributed = sum(out[key] for key in LAYER_TIME_KEYS) + self.import_s
        out["cli.import_s"] = self.import_s
        out["cli.unattributed_s"] = untraced_wall_s - attributed
        out["trace.coverage_ratio"] = ratio(attributed, untraced_wall_s)
        return out


def cli_fig2_cold(workdir, seed, smoke) -> CliFig2:
    return CliFig2("cli_fig2_cold", workdir, seed, smoke, cached=False)


def cli_fig2_cached(workdir, seed, smoke) -> CliFig2:
    return CliFig2("cli_fig2_cached", workdir, seed, smoke, cached=True)
