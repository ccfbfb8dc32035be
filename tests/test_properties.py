"""Property-based tests (hypothesis) on the core data structures and
protocol invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MachineConfig
from repro.core.contention import bank_conflict_probability
from repro.core.metrics import MissCause, TimeBreakdown
from repro.memory.allocation import PageAllocator
from repro.memory.cache import EXCLUSIVE, SHARED, Cache
from repro.memory.coherence import CoherentMemorySystem
from repro.sim.engine import Engine
from repro.sim.program import Barrier, Read, Work, Write

# ---------------------------------------------------------------- caches


@given(capacity=st.integers(1, 32),
       lines=st.lists(st.integers(0, 64), min_size=1, max_size=200))
def test_cache_never_exceeds_capacity(capacity, lines):
    c = Cache(capacity)
    for line in lines:
        if c.lookup(line) is None:
            c.insert(line, SHARED)
        assert len(c) <= capacity


@given(capacity=st.integers(2, 16),
       lines=st.lists(st.integers(0, 30), min_size=1, max_size=100))
def test_lru_evicts_least_recently_touched(capacity, lines):
    """Model-based check against an explicit recency list."""
    c = Cache(capacity)
    recency: list[int] = []  # LRU .. MRU
    for line in lines:
        if c.lookup(line) is not None:
            recency.remove(line)
            recency.append(line)
            continue
        victim = c.insert(line, SHARED)
        if victim is not None:
            assert victim.line == recency.pop(0)
        recency.append(line)
    assert c.resident_lines() == recency


@given(st.lists(st.integers(0, 100), min_size=1, max_size=100))
def test_infinite_cache_retains_everything(lines):
    c = Cache(None)
    for line in lines:
        if c.lookup(line) is None:
            c.insert(line, EXCLUSIVE)
    assert set(c.resident_lines()) == set(lines)


# ---------------------------------------------------------------- allocator


@given(n_clusters=st.integers(1, 16),
       pages=st.lists(st.integers(0, 1000), min_size=1, max_size=200))
def test_allocator_deterministic_and_stable(n_clusters, pages):
    a = PageAllocator(n_clusters)
    b = PageAllocator(n_clusters)
    lines_per_page = a.page_size // a.line_size
    for p in pages:
        assert a.home_of_line(p * lines_per_page) == \
            b.home_of_line(p * lines_per_page)
    for p in pages:
        h = a.page_homes.get(p)
        assert h is not None and 0 <= h < n_clusters
        assert a.home_of_line(p * lines_per_page) == h


@given(n_clusters=st.integers(1, 8), n_pages=st.integers(1, 64))
def test_round_robin_is_balanced(n_clusters, n_pages):
    a = PageAllocator(n_clusters)
    lines_per_page = a.page_size // a.line_size
    for p in range(n_pages):
        a.home_of_line(p * lines_per_page)
    hist = [list(a.page_homes.values()).count(c) for c in range(n_clusters)]
    assert max(hist) - min(hist) <= 1


# ---------------------------------------------------------------- protocol

_access = st.tuples(st.integers(0, 7),       # processor
                    st.integers(0, 40),      # line
                    st.booleans())           # is_write


@given(accesses=st.lists(_access, min_size=1, max_size=300),
       cluster_size=st.sampled_from([1, 2, 4]),
       cache_kb=st.sampled_from([0.5, 1.0, None]))
@settings(max_examples=40, deadline=None)
def test_protocol_invariants_hold_under_random_traces(accesses, cluster_size,
                                                      cache_kb):
    cfg = MachineConfig(n_processors=8, cluster_size=cluster_size,
                        cache_kb_per_processor=cache_kb)
    mem = CoherentMemorySystem(cfg)
    t = 0
    for proc, line, is_write in accesses:
        t += 200  # past any pending fill
        if is_write:
            mem.write(proc, line, t)
        else:
            mem.read(proc, line, t)
    mem.check_invariants()
    total = mem.aggregate_counters()
    assert total.references == len(accesses)
    assert sum(total.by_cause.values()) == total.misses


@given(accesses=st.lists(_access, min_size=1, max_size=200))
@settings(max_examples=30, deadline=None)
def test_single_cluster_has_no_coherence_misses(accesses):
    """With all processors in one cluster there is nobody to communicate
    with: every miss must be cold or capacity."""
    cfg = MachineConfig(n_processors=8, cluster_size=8,
                        cache_kb_per_processor=1)
    mem = CoherentMemorySystem(cfg)
    t = 0
    for proc, line, is_write in accesses:
        t += 200
        if is_write:
            mem.write(proc, line, t)
        else:
            mem.read(proc, line, t)
    assert mem.aggregate_counters().by_cause[MissCause.COHERENCE] == 0


@given(accesses=st.lists(_access, min_size=1, max_size=150))
@settings(max_examples=30, deadline=None)
def test_infinite_cache_misses_bounded_by_lines_and_invals(accesses):
    """With infinite caches, misses per cluster ≤ distinct lines +
    invalidations received."""
    cfg = MachineConfig(n_processors=8, cluster_size=2)
    mem = CoherentMemorySystem(cfg)
    t = 0
    for proc, line, is_write in accesses:
        t += 200
        if is_write:
            mem.write(proc, line, t)
        else:
            mem.read(proc, line, t)
    total = mem.aggregate_counters()
    distinct = len({line for _, line, _ in accesses})
    assert total.by_cause[MissCause.CAPACITY] == 0
    assert total.misses <= distinct * cfg.n_clusters + \
        mem.directory.invalidations_sent


# ---------------------------------------------------------------- engine


@given(works=st.lists(st.integers(0, 50), min_size=1, max_size=30))
def test_sequential_work_sums(works):
    cfg = MachineConfig(n_processors=1)
    res = Engine(cfg, CoherentMemorySystem(cfg)).run(
        lambda pid: iter([Work(w) for w in works]))
    assert res.execution_time == sum(works)


@given(seed=st.integers(0, 2**16),
       n_ops=st.integers(1, 120),
       cluster_size=st.sampled_from([1, 2, 4]))
@settings(max_examples=30, deadline=None)
def test_engine_accounting_exact_under_random_programs(seed, n_ops,
                                                       cluster_size):
    """cpu+load+merge+sync == execution time for every processor, for any
    program mix."""
    import random
    cfg = MachineConfig(n_processors=4, cluster_size=cluster_size,
                        cache_kb_per_processor=1)
    # op *kinds* must agree across processors (barriers are global), so
    # they come from a shared sequence; operands may differ per processor.
    kind_rng = random.Random(seed)
    kinds = [kind_rng.random() for _ in range(n_ops)]

    def factory(pid):
        rng = random.Random(seed * 13 + pid)
        def gen():
            for i, k in enumerate(kinds):
                if k < 0.3:
                    yield Work(rng.randrange(20))
                elif k < 0.6:
                    yield Read(rng.randrange(100) * 64)
                elif k < 0.9:
                    yield Write(rng.randrange(100) * 64)
                else:
                    yield Barrier(i)
        return gen()

    res = Engine(cfg, CoherentMemorySystem(cfg)).run(factory)
    for bd in res.per_processor:
        assert bd.total == res.execution_time


# ---------------------------------------------------------------- formulae


@given(n=st.integers(2, 64), m=st.integers(1, 512))
def test_conflict_probability_in_unit_interval(n, m):
    c = bank_conflict_probability(n, m)
    assert 0.0 <= c <= 1.0  # m=1 with n>1 collides with certainty


@given(n=st.integers(2, 32))
def test_conflict_probability_monotone_in_processors(n):
    assert bank_conflict_probability(n + 1, 64) > \
        bank_conflict_probability(n, 64)


@given(cpu=st.integers(0, 10**6), load=st.integers(0, 10**6),
       merge=st.integers(0, 10**6), sync=st.integers(0, 10**6))
def test_breakdown_fractions_sum_to_one(cpu, load, merge, sync):
    bd = TimeBreakdown(cpu, load, merge, sync)
    fr = bd.fractions()
    if bd.total:
        assert abs(sum(fr.values()) - 1.0) < 1e-9
    else:
        assert sum(fr.values()) == 0.0


@given(baseline=st.integers(1, 10**6), cpu=st.integers(0, 10**6))
def test_normalization_linear(baseline, cpu):
    bd = TimeBreakdown(cpu=cpu)
    got = bd.normalized_to(baseline)["cpu"]
    assert got == pytest.approx(100.0 * cpu / baseline, rel=1e-12)


@given(accesses=st.lists(_access, min_size=1, max_size=250),
       cluster_size=st.sampled_from([1, 2, 4]),
       cache_kb=st.sampled_from([0.5, 1.0, None]))
@settings(max_examples=30, deadline=None)
def test_snoopy_invariants_hold_under_random_traces(accesses, cluster_size,
                                                    cache_kb):
    from repro.memory.snoopy import SnoopyClusterMemorySystem
    cfg = MachineConfig(n_processors=8, cluster_size=cluster_size,
                        cache_kb_per_processor=cache_kb)
    mem = SnoopyClusterMemorySystem(cfg)
    t = 0
    for proc, line, is_write in accesses:
        t += 200
        if is_write:
            mem.write(proc, line, t)
        else:
            mem.read(proc, line, t)
    mem.check_invariants()
    assert mem.aggregate_counters().references == len(accesses)


@given(accesses=st.lists(_access, min_size=2, max_size=150))
@settings(max_examples=25, deadline=None)
def test_snoopy_c2c_never_slower_than_memory(accesses):
    """Every cache-to-cache service must be cheaper than any Table-1
    miss path, by construction."""
    from repro.memory.snoopy import (DEFAULT_C2C_LATENCY,
                                     SnoopyClusterMemorySystem)
    cfg = MachineConfig(n_processors=8, cluster_size=4)
    mem = SnoopyClusterMemorySystem(cfg)
    t = 0
    stalls = []
    for proc, line, is_write in accesses:
        t += 200
        if is_write:
            mem.write(proc, line, t)
        else:
            _, stall = mem.read(proc, line, t)
            if stall:
                stalls.append(stall)
    assert all(s == DEFAULT_C2C_LATENCY or s >= 30 for s in stalls)


@given(accesses=st.lists(_access, min_size=1, max_size=120))
@settings(max_examples=20, deadline=None)
def test_shared_cache_never_more_misses_than_unclustered_inf(accesses):
    """With infinite caches, an 8-way shared cache sees at most as many
    misses as 8 private per-processor clusters: every private fetch is
    also satisfied by (or merged into) the shared cache."""
    flat = MachineConfig(n_processors=8, cluster_size=1)
    clustered = MachineConfig(n_processors=8, cluster_size=8)
    m_flat = CoherentMemorySystem(flat)
    m_clus = CoherentMemorySystem(clustered)
    t = 0
    for proc, line, is_write in accesses:
        t += 200
        if is_write:
            m_flat.write(proc, line, t)
            m_clus.write(proc, line, t)
        else:
            m_flat.read(proc, line, t)
            m_clus.read(proc, line, t)
    assert m_clus.aggregate_counters().misses <= \
        m_flat.aggregate_counters().misses


@given(accesses=st.lists(_access, min_size=1, max_size=120))
@settings(max_examples=20, deadline=None)
def test_invalidations_never_increase_with_clustering(accesses):
    """Fewer coherence participants can only reduce invalidation traffic
    (intra-cluster writes stop generating invalidations entirely)."""
    flat = MachineConfig(n_processors=8, cluster_size=1)
    clustered = MachineConfig(n_processors=8, cluster_size=4)
    m_flat = CoherentMemorySystem(flat)
    m_clus = CoherentMemorySystem(clustered)
    t = 0
    for proc, line, is_write in accesses:
        t += 200
        if is_write:
            m_flat.write(proc, line, t)
            m_clus.write(proc, line, t)
        else:
            m_flat.read(proc, line, t)
            m_clus.read(proc, line, t)
    assert m_clus.directory.invalidations_sent <= \
        m_flat.directory.invalidations_sent
