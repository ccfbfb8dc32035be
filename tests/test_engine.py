"""Unit tests for the event-driven engine: timing, accounting, determinism."""

import pytest

from repro.core.config import MachineConfig
from repro.memory.coherence import CoherentMemorySystem
from repro.memory.allocation import PageAllocator
from repro.sim.engine import Engine, PerfectMemory, SimulationDeadlock
from repro.sim.program import Barrier, Lock, Read, Unlock, Work, Write


def cfg(n=2, cluster=1, cache=None):
    return MachineConfig(n_processors=n, cluster_size=cluster,
                         cache_kb_per_processor=cache)


def run(config, make_ops, memory=None):
    def factory(pid):
        return iter(make_ops(pid))
    if memory is None:
        memory = CoherentMemorySystem(config)
    return Engine(config, memory).run(factory)


class TestBasicTiming:
    def test_work_only(self):
        res = run(cfg(1), lambda pid: [Work(100)])
        assert res.execution_time == 100
        assert res.breakdown.cpu == 100
        assert res.breakdown.load == 0

    def test_read_hit_costs_one_cycle(self):
        res = run(cfg(1), lambda pid: [Read(0), Read(0)])
        # first read: cold miss (local home: 30) + 1; second: hit (1)
        assert res.execution_time == 32
        assert res.per_processor[0].load == 30
        assert res.per_processor[0].cpu == 2

    def test_write_never_stalls(self):
        res = run(cfg(1), lambda pid: [Write(0), Write(64), Write(128)])
        assert res.execution_time == 3
        assert res.per_processor[0].load == 0

    def test_zero_work_allowed(self):
        res = run(cfg(1), lambda pid: [Work(0), Work(5)])
        assert res.execution_time == 5

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            run(cfg(1), lambda pid: [Work(-1)])

    def test_empty_program(self):
        res = run(cfg(2), lambda pid: [])
        assert res.execution_time == 0

    def test_perfect_memory_load_cycles(self):
        """Load latency lives in the memory: each read takes 3 cycles, the
        hit's 1 plus a load-use stall of 2."""
        res = run(cfg(1), lambda pid: [Read(0), Read(0), Read(0)],
                  memory=PerfectMemory(load_cycles=3))
        assert res.execution_time == 9
        assert res.per_processor[0].load == 6
        assert res.per_processor[0].cpu == 3
        with pytest.raises(ValueError, match="load_cycles"):
            PerfectMemory(load_cycles=0)


class TestAccountingInvariant:
    def test_components_sum_to_execution_time(self):
        def ops(pid):
            yield Work(10 * (pid + 1))
            yield Read(pid * 4096)
            yield Barrier(0)
            yield Read(0)
        res = run(cfg(4, cluster=2, cache=4), ops)
        for bd in res.per_processor:
            assert bd.total == res.execution_time

    def test_mean_breakdown_total(self):
        def ops(pid):
            yield Work(100 if pid == 0 else 10)
        res = run(cfg(2), ops)
        assert res.execution_time == 100
        assert abs(res.breakdown.total - 100) < 1e-9
        # the fast processor's slack shows up as sync
        assert res.per_processor[1].sync == 90


class TestMergeAccounting:
    def test_cluster_mate_merges_then_hits(self):
        # p0 reads line 0 at t=0 (miss, 30); p1 works 5 then reads line 0:
        # merge stall 25, then hit.
        def ops(pid):
            if pid == 0:
                yield Read(0)
            else:
                yield Work(5)
                yield Read(0)
        res = run(cfg(2, cluster=2, cache=4), ops)
        p1 = res.per_processor[1]
        assert p1.merge == 25
        assert p1.load == 0

    def test_merge_refetch_counts_load(self):
        # p0 (cluster 0) reads; p1 (cluster 1) write-invalidates while
        # pending; p0's cluster-mate merged read must refetch.
        config = MachineConfig(n_processors=4, cluster_size=2,
                               cache_kb_per_processor=4)

        def ops(pid):
            if pid == 0:
                yield Read(0)          # t=0 miss, pending till 30
            elif pid == 1:
                yield Work(5)
                yield Read(0)          # merge till 30, then refetch
            elif pid == 2:
                yield Work(10)
                yield Write(0)         # invalidates cluster 0's pending line
            else:
                yield Work(1)
        al = PageAllocator(config.n_clusters, config.page_size,
                           config.line_size)
        al.place_page(0, 0)
        mem = CoherentMemorySystem(config, al)
        res = run(config, ops, memory=mem)
        p1 = res.per_processor[1]
        assert p1.merge == 25
        assert p1.load == 100  # dirty in cluster 1, home local
        assert mem.counters[0].merge_refetches == 1


class TestBarriers:
    def test_barrier_waits_charged_to_sync(self):
        def ops(pid):
            yield Work(10 if pid == 0 else 50)
            yield Barrier(0)
            yield Work(1)
        res = run(cfg(2), ops)
        assert res.per_processor[0].sync == 40
        assert res.per_processor[1].sync == 0
        assert res.execution_time == 51

    def test_sequential_barriers(self):
        def ops(pid):
            yield Barrier(0)
            yield Work(pid * 10)
            yield Barrier(1)
        res = run(cfg(3), ops)
        assert res.execution_time == 20

    def test_missing_participant_deadlocks(self):
        def ops(pid):
            if pid == 0:
                yield Barrier(0)
            else:
                yield Work(1)
        with pytest.raises(SimulationDeadlock, match="barrier 0"):
            run(cfg(2), ops)


class TestLocks:
    def test_lock_serializes(self):
        def ops(pid):
            yield Lock(0)
            yield Work(100)
            yield Unlock(0)
        res = run(cfg(2), ops)
        # second holder waits ~one critical section
        assert res.execution_time >= 200
        assert max(bd.sync for bd in res.per_processor) >= 100

    def test_uncontended_lock_cheap(self):
        def ops(pid):
            yield Lock(pid)  # distinct locks
            yield Work(10)
            yield Unlock(pid)
        res = run(cfg(4), ops)
        assert res.execution_time <= 13

    def test_lock_wait_charged_to_sync(self):
        def ops(pid):
            if pid == 0:
                yield Lock(0)
                yield Work(30)
                yield Unlock(0)
            else:
                yield Lock(0)
                yield Unlock(0)
        res = run(cfg(2), ops)
        assert res.per_processor[1].sync >= 29


class TestDeterminism:
    def test_same_seed_same_result(self):
        def factory(pid):
            def gen():
                for i in range(50):
                    yield Work((pid * 7 + i) % 5)
                    yield Read(((pid * 13 + i * 29) % 64) * 64)
                    if i % 10 == 0:
                        yield Barrier(i)
            return gen()
        config = cfg(4, cluster=2, cache=4)
        r1 = Engine(config, CoherentMemorySystem(config)).run(factory)
        r2 = Engine(config, CoherentMemorySystem(config)).run(factory)
        assert r1.execution_time == r2.execution_time
        for a, b in zip(r1.per_processor, r2.per_processor):
            assert (a.cpu, a.load, a.merge, a.sync) == (b.cpu, b.load,
                                                        b.merge, b.sync)


class TestRunResult:
    def test_misses_populated(self):
        res = run(cfg(2, cluster=2, cache=4), lambda pid: [Read(pid * 64)])
        assert res.misses.references == 2
        assert res.misses.read_misses == 2
        assert len(res.per_cluster_misses) == 1

    def test_perfect_memory_counters_empty(self):
        res = run(cfg(2), lambda pid: [Read(0)], memory=PerfectMemory())
        assert res.misses.references == 0
        assert res.per_cluster_misses == []


class TestLockEdgeCases:
    def test_unlock_without_lock_raises(self):
        with pytest.raises(RuntimeError):
            run(cfg(1), lambda pid: [Unlock(0)])

    def test_handoff_chain_three_waiters(self):
        order = []

        def ops(pid):
            yield Work(pid)  # staggered arrivals: FIFO order = pid order
            yield Lock(0)
            order.append(pid)
            yield Work(10)
            yield Unlock(0)
        res = run(cfg(4), ops)
        assert order == [0, 1, 2, 3]
        # each waiter serialized behind ~one critical section per holder
        assert res.execution_time >= 40

    def test_lock_and_barrier_interleave(self):
        def ops(pid):
            yield Lock(pid % 2)
            yield Work(5)
            yield Unlock(pid % 2)
            yield Barrier(0)
            yield Work(1)
        res = run(cfg(4), ops)
        for bd in res.per_processor:
            assert bd.total == res.execution_time
