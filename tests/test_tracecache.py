"""Trace keys and the two-tier (memory LRU + disk) compiled-trace cache."""

import json
import subprocess
import sys
import threading
import warnings

import pytest

from repro.apps.registry import QUICK_PROBLEM_SIZES, build_app
from repro.core.config import (PAPER_CACHE_SIZES_KB, PAPER_CLUSTER_SIZES,
                               MachineConfig)
from repro.core.executor import SweepExecutor, raise_failures
from repro.core.resultcache import TraceStore
from repro.runtime import RunRequest, RunSession
from repro.sim import compiled
from repro.sim.compiled import (TraceCache, clear_memory_cache,
                                compile_program, trace_cache_info, trace_key)
from repro.sim.program import OP_READ, OP_WORK


@pytest.fixture(autouse=True)
def _fresh_memory_tier():
    """The memory LRU is process-wide state; isolate it per test."""
    clear_memory_cache()
    yield
    clear_memory_cache()


def tiny_program(n_processors=2):
    def factory(pid):
        yield OP_WORK, 10
    return compile_program(factory, n_processors, 64)


BASE = MachineConfig(n_processors=8, cluster_size=2,
                     cache_kb_per_processor=4.0)
KWARGS = {"n": 32, "block": 8}


def key_at(config=BASE, kwargs=KWARGS, seed=12345, stream_invariant=True):
    return trace_key("lu", kwargs, config, seed,
                     stream_invariant=stream_invariant)


# ---------------------------------------------------------------------- keys

class TestTraceKey:
    def test_seed_changes_key(self):
        assert key_at(seed=1) != key_at(seed=2)

    def test_problem_scale_changes_key(self):
        assert key_at(kwargs={"n": 32, "block": 8}) != \
            key_at(kwargs={"n": 64, "block": 8})

    def test_line_size_changes_key(self):
        other = MachineConfig(n_processors=8, cluster_size=2,
                              cache_kb_per_processor=4.0, line_size=32)
        assert key_at(config=other) != key_at()

    def test_processor_count_changes_key(self):
        other = MachineConfig(n_processors=16, cluster_size=2,
                              cache_kb_per_processor=4.0)
        assert key_at(config=other) != key_at()

    def test_cluster_size_preserves_key_for_invariant_streams(self):
        """The whole point: one trace serves the entire clustering sweep."""
        for cluster in (1, 4, 8):
            other = MachineConfig(n_processors=8, cluster_size=cluster,
                                  cache_kb_per_processor=4.0)
            assert key_at(config=other) == key_at()

    def test_cache_capacity_preserves_key_for_invariant_streams(self):
        for cache_kb in (None, 0.5, 64.0):
            other = MachineConfig(n_processors=8, cluster_size=2,
                                  cache_kb_per_processor=cache_kb)
            assert key_at(config=other) == key_at()

    def test_dynamic_key_covers_full_config(self):
        """Recorded captures are config-specific; their keys must be too."""
        other = MachineConfig(n_processors=8, cluster_size=4,
                              cache_kb_per_processor=4.0)
        assert key_at(config=other, stream_invariant=False) != \
            key_at(stream_invariant=False)


# --------------------------------------------------------------------- tiers

class TestTraceCache:
    def test_memory_tier_round_trip(self):
        cache = TraceCache()
        assert cache.get("k") is None
        program = tiny_program()
        cache.put("k", program)
        assert cache.get("k") is program
        assert cache.memory_hits == 1 and cache.misses == 1

    def test_memory_tier_shared_across_instances(self):
        program = tiny_program()
        TraceCache().put("shared", program)
        assert TraceCache().get("shared") is program

    def test_disk_tier_round_trip(self, tmp_path):
        cache = TraceCache(TraceStore(tmp_path))
        cache.put("k", tiny_program())
        clear_memory_cache()  # force the disk path
        fresh = TraceCache(TraceStore(tmp_path))
        got = fresh.get("k")
        assert got is not None and fresh.disk_hits == 1
        assert [list(w) for w in got.words] == [list(w) for w in tiny_program().words]

    def test_corrupt_disk_entry_warns_and_misses(self, tmp_path):
        store = TraceStore(tmp_path)
        cache = TraceCache(store)
        cache.put("k", tiny_program())
        clear_memory_cache()
        store.path_for("k").write_bytes(b"garbage not a trace")
        with pytest.warns(UserWarning, match="corrupt compiled trace"):
            assert cache.get("k") is None
        # regeneration overwrites the bad entry and it reads back fine
        cache.put("k", tiny_program())
        clear_memory_cache()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get("k") is not None

    def test_lru_byte_budget_evicts_oldest(self, monkeypatch):
        # a byte budget worth exactly two tiny programs
        monkeypatch.setattr(compiled, "_LRU_BYTES",
                            2 * tiny_program().resident_nbytes)
        cache = TraceCache()
        for i in range(3):
            cache.put(f"k{i}", tiny_program())
        assert trace_cache_info()["entries"] == 2
        assert cache.get("k0") is None      # evicted (oldest)
        assert cache.get("k2") is not None  # newest survives

    def test_lru_get_refreshes_recency(self, monkeypatch):
        monkeypatch.setattr(compiled, "_LRU_BYTES",
                            2 * tiny_program().resident_nbytes)
        cache = TraceCache()
        cache.put("a", tiny_program())
        cache.put("b", tiny_program())
        cache.get("a")                      # a becomes most recent
        cache.put("c", tiny_program())      # evicts b, not a
        assert cache.get("a") is not None
        assert cache.get("b") is None

    def test_stats_string(self):
        cache = TraceCache()
        cache.get("missing")
        assert "1 misses" in cache.stats()

    def test_byte_accounting_survives_threads(self, monkeypatch):
        """An in-process daemon evaluates points on a thread that shares
        the LRU with its host's own runs: a lost update of its byte count would either
        evict too early forever or overrun the budget."""
        monkeypatch.setattr(compiled, "_LRU_BYTES", 200000)

        def program_of(n_ops):
            return compile_program(
                lambda pid: ((OP_WORK, i + 1) if i % 2 else (OP_READ, 64 * i)
                             for i in range(n_ops)), 2, 64)
        programs = [program_of(100 * (k + 1)) for k in range(23)]
        assert len({p.resident_nbytes for p in programs}) == len(programs)
        failures = []

        def hammer(seed):
            cache = TraceCache()
            try:
                for i in range(4000):
                    k = (seed * 7 + i * 5) % len(programs)
                    if i % 3:
                        cache.put(f"k{k}", programs[k])
                    else:
                        cache.get(f"k{k}")
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=hammer, args=(seed,))
                   for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        info = trace_cache_info()
        # nothing here is mapped, so payload bytes are the resident bytes
        assert info["resident_bytes"] == info["payload_bytes"] <= 200000


# ----------------------------------------------------------- executor usage

class TestExecutorIntegration:
    def test_invariant_app_reuses_trace_across_clusters(self):
        base = MachineConfig(cache_kb_per_processor=4.0)
        cache = TraceCache()
        specs = [RunRequest.make("lu", cs, 4.0, KWARGS) for cs in (1, 2, 4)]
        results = [RunSession(base, cache).run(s) for s in specs]
        # one compile, then hits: the second and third points reuse it
        assert cache.memory_hits == 2 and cache.misses == 1
        # and every mode agrees with the uncached generator path
        for spec, result in zip(specs, results):
            want = build_app(spec.app, spec.config_for(base),
                             **spec.kwargs).run()
            assert result.to_json() == want.to_json()

    def test_dynamic_app_caches_per_config(self):
        base = MachineConfig(cache_kb_per_processor=4.0)
        cache = TraceCache()
        spec = RunRequest.make("barnes", 2, 4.0,
                               {"n_particles": 64, "n_steps": 1})
        first = RunSession(base, cache).run(spec)
        assert cache.misses == 1
        second = RunSession(base, cache).run(spec)
        assert cache.memory_hits == 1
        assert first.to_json() == second.to_json()

    def test_disk_tier_spans_processes_conceptually(self, tmp_path):
        """A fresh process (simulated by clearing the LRU) hits the store."""
        base = MachineConfig(cache_kb_per_processor=4.0)
        spec = RunRequest.make("lu", 2, 4.0, KWARGS)
        store = TraceStore(tmp_path)
        first = RunSession(base, TraceCache(store)).run(spec)
        clear_memory_cache()
        cache = TraceCache(TraceStore(tmp_path))
        second = RunSession(base, cache).run(spec)
        assert cache.disk_hits == 1
        assert first.to_json() == second.to_json()


# ------------------------------------------------------------ capture count
#
# What a user waits for on a cold figure is capture, so how often it
# happens is pinned here and not only read off the benchmark's ledger: a
# Figure 4-8 grid (4 cluster sizes x 4 cache sizes, quick sizes, the
# default 64 processors) costs a tile-queue app ONE capture, like a static
# app; barnes, the one recorded app, still pays one per point.

_SECOND_PROCESS = """
import json, sys
from repro.core.resultcache import TraceStore
from repro.runtime import RunPlan, RunRequest, RunSession
from repro.sim.compiled import TraceCache

app, kwargs, grid, store = json.loads(sys.argv[1])
cache = TraceCache(TraceStore(store))
session = RunSession(trace_cache=cache)
outcomes = [session.run_plan(RunPlan.resolve(
                RunRequest.make(app, c, kb, kwargs), None))
            for kb, c in grid]
print(json.dumps({"misses": cache.misses, "disk_hits": cache.disk_hits,
                  "mapped": all(o.program.mapped for o in outcomes),
                  "results": [o.result.to_json() for o in outcomes]}))
"""


class TestCaptureCount:
    GRID = [(kb, c) for kb in PAPER_CACHE_SIZES_KB
            for c in PAPER_CLUSTER_SIZES]

    def specs(self, app):
        return [RunRequest.make(app, c, kb, QUICK_PROBLEM_SIZES[app])
                for kb, c in self.GRID]

    @pytest.mark.parametrize("app,captures", [("raytrace", 1), ("volrend", 1),
                                              ("barnes", 16)])
    def test_figure_grid_captures(self, app, captures):
        cache = TraceCache()
        session = RunSession(trace_cache=cache)
        for spec in self.specs(app):
            session.run(spec)
        assert (cache.misses, cache.hits) == (captures, 16 - captures)

    @pytest.mark.parametrize("app", ["raytrace", "volrend"])
    def test_one_capture_serves_jobs_and_a_second_process(self, app,
                                                          tmp_path):
        specs = self.specs(app)
        store = TraceStore(tmp_path)
        cache = TraceCache(store)
        session = RunSession(trace_cache=cache)
        serial = [session.run(spec).to_json() for spec in specs]
        assert (cache.misses, cache.hits) == (1, 15)
        assert len(list(store.directory.glob("*.trace"))) == 1

        clear_memory_cache()
        with SweepExecutor(jobs=2,
                           trace_store=TraceStore(tmp_path)) as pool:
            outcomes = pool.run(specs)
        raise_failures(outcomes)
        assert [o.result.to_json() for o in outcomes] == serial

        proc = subprocess.run(
            [sys.executable, "-c", _SECOND_PROCESS,
             json.dumps([app, QUICK_PROBLEM_SIZES[app], self.GRID,
                         str(tmp_path)])],
            capture_output=True, text=True, check=True)
        second = json.loads(proc.stdout)
        assert (second["misses"], second["disk_hits"]) == (0, 1)
        assert second["mapped"] and second["results"] == serial
