"""Tests for the shared-main-memory (snoopy) cluster extension (paper §2)."""

import pytest

from repro.core.config import MachineConfig
from repro.core.metrics import MissCause
from repro.memory.allocation import PageAllocator
from repro.memory.cache import EXCLUSIVE, SHARED
from repro.memory.coherence import READ_HIT, READ_MERGE, READ_MISS
from repro.memory.snoopy import (DEFAULT_C2C_LATENCY, DEFAULT_SNOOP_PENALTY,
                                 SnoopyClusterMemorySystem)


def make_system(n_processors=4, cluster_size=2, cache_kb=4.0,
                page_homes=None):
    cfg = MachineConfig(n_processors=n_processors, cluster_size=cluster_size,
                        cache_kb_per_processor=cache_kb)
    al = PageAllocator(cfg.n_clusters, cfg.page_size, cfg.line_size)
    for page, home in (page_homes or {}).items():
        al.place_page(page, home)
    return SnoopyClusterMemorySystem(cfg, al)


class TestCacheToCache:
    def test_cluster_mate_supplies_line(self):
        mem = make_system(page_homes={0: 0})
        mem.read(0, 0, now=0)                       # p0 fetches (30 + bus)
        outcome, stall = mem.read(1, 0, now=200)    # p1 snoops p0's copy
        assert outcome == READ_MISS
        assert stall == DEFAULT_C2C_LATENCY
        assert mem.c2c_transfers == 1

    def test_c2c_cheaper_than_memory(self):
        mem = make_system(page_homes={0: 0})
        _, first = mem.read(0, 0, now=0)
        _, second = mem.read(1, 0, now=200)
        assert second < first

    def test_dirty_mate_downgrades_on_c2c(self):
        mem = make_system(page_homes={0: 0})
        mem.write(0, 0, now=0)
        mem.read(1, 0, now=200)
        assert mem.caches[0].state_of(0) == SHARED
        assert mem.caches[1].state_of(0) == SHARED

    def test_own_copy_is_plain_hit(self):
        mem = make_system(page_homes={0: 0})
        mem.read(0, 0, now=0)
        outcome, stall = mem.read(0, 0, now=200)
        assert outcome == READ_HIT and stall == 0
        assert mem.c2c_transfers == 0


class TestBusPenalty:
    def test_miss_includes_snoop_penalty(self):
        mem = make_system(page_homes={0: 0})
        _, stall = mem.read(0, 0, now=0)
        assert stall == 30 + DEFAULT_SNOOP_PENALTY

    def test_remote_miss_includes_penalty(self):
        mem = make_system(page_homes={0: 1})
        _, stall = mem.read(0, 0, now=0)
        assert stall == 100 + DEFAULT_SNOOP_PENALTY


class TestSeparateCaches:
    def test_no_destructive_interference(self):
        """Processor 1 filling its own cache cannot evict processor 0's
        data (paper §2: 'destructive interference does not exist')."""
        mem = make_system(cache_kb=1.0)  # 16 lines per processor
        mem.read(0, 0, now=0)
        for i, line in enumerate(range(100, 140)):  # p1 streams 40 lines
            mem.read(1, line, now=200 * (i + 1))
        assert mem.caches[0].state_of(0) is not None

    def test_working_sets_duplicated(self):
        """Both cluster mates can hold private copies of the same line."""
        mem = make_system(page_homes={0: 0})
        mem.read(0, 0, now=0)
        mem.read(1, 0, now=200)
        assert mem.caches[0].state_of(0) == SHARED
        assert mem.caches[1].state_of(0) == SHARED


class TestCoherence:
    def test_write_invalidates_cluster_mates(self):
        mem = make_system(page_homes={0: 0})
        mem.read(0, 0, now=0)
        mem.read(1, 0, now=200)
        mem.write(1, 0, now=400)
        assert mem.caches[0].state_of(0) is None
        assert mem.caches[1].state_of(0) == EXCLUSIVE

    def test_write_invalidates_other_clusters(self):
        mem = make_system(page_homes={0: 0})
        mem.read(0, 0, now=0)
        mem.read(2, 0, now=200)    # cluster 1
        mem.write(0, 0, now=400)
        assert mem.caches[2].state_of(0) is None
        out, _ = mem.read(2, 0, now=600)
        assert out == READ_MISS
        assert mem.counters[1].by_cause[MissCause.COHERENCE] == 1

    def test_merge_on_pending_fill(self):
        mem = make_system(page_homes={0: 0})
        mem.read(0, 0, now=0)  # pending until 36
        outcome, stall = mem.read(0, 0, now=10)
        assert outcome == READ_MERGE
        assert stall == 26

    def test_eviction_keeps_sharer_bit_if_mate_holds(self):
        """Replacement hints only fire when the *cluster* drops the line —
        a mate's surviving copy keeps the sharer bit (the c2c
        opportunity)."""
        mem = make_system(cache_kb=1.0, page_homes={0: 0})
        mem.read(0, 0, now=0)
        mem.read(1, 0, now=200)
        # stream lines through p0 to evict its copy of line 0
        for i, line in enumerate(range(100, 120)):
            mem.read(0, line, now=400 + 200 * i)
        assert mem.caches[0].state_of(0) is None
        assert mem.directory.is_sharer(0, 0)  # mate still holds it
        # p0 re-reads: served cache-to-cache, not from memory
        before = mem.c2c_transfers
        _, stall = mem.read(0, 0, now=10**6)
        assert mem.c2c_transfers == before + 1
        assert stall == DEFAULT_C2C_LATENCY


class TestEngineIntegration:
    def test_runs_an_application(self):
        from repro.apps.registry import build_app
        from repro.sim.engine import Engine
        cfg = MachineConfig(n_processors=4, cluster_size=2,
                            cache_kb_per_processor=4)
        app = build_app("ocean", cfg, n=16, n_vcycles=1)
        app.ensure_setup()
        mem = SnoopyClusterMemorySystem(cfg, app.allocator)
        res = Engine(cfg, mem).run(app.program)
        assert res.execution_time > 0
        assert res.misses.references > 0
        # E-X2: the paper's §2 cache-to-cache sharing opportunities exist
        assert mem.c2c_transfers > 0

    def test_counter_aggregation(self):
        mem = make_system()
        mem.read(0, 0, 0)
        mem.write(2, 1, 0)
        total = mem.aggregate_counters()
        assert total.references == 2
