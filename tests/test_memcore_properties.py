"""Property suite for the memory core.

Drives :class:`~repro.memory.cache.Cache` beside a per-set LRU list model
written below, and the record-based :class:`~repro.memory.directory.Directory`
beside the object-per-entry ``RefDirectory`` of ``tests/refmodel.py``, with
identical random streams, and requires identical observable behaviour:
victim choice, LRU order, states, pending times, fetcher metadata, and
counters.

Also holds the snoopy-vs-directory single-cluster equivalence check: with
one processor per cluster and a free bus, the snoopy organisation *is* the
shared-cache organisation, so both memory systems must produce the same
simulation result.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PROTOCOLS, MachineConfig
from repro.memory import make_memory_system
from repro.memory.cache import EXCLUSIVE, SHARED, Cache, fully_associative
from repro.memory.directory import DIR_EXCLUSIVE, Directory

from refmodel import RefDirectory

# ---------------------------------------------------------------- caches

_LINES = st.integers(min_value=0, max_value=40)
_STATES = st.sampled_from([SHARED, EXCLUSIVE])

_cache_op = st.one_of(
    st.tuples(st.just("insert"), _LINES, _STATES,
              st.integers(min_value=0, max_value=500),
              st.integers(min_value=-1, max_value=7)),
    st.tuples(st.just("lookup"), _LINES),
    st.tuples(st.just("peek"), _LINES),
    st.tuples(st.just("invalidate"), _LINES),
    st.tuples(st.just("downgrade"), _LINES),
)


class _ListLRU:
    """Per-set LRU spelled out as lists: each set holds ``[line, state,
    pending_until, fetcher]`` entries from least to most recently used."""

    def __init__(self, capacity, associativity):
        one_set = fully_associative(capacity, associativity)
        self.ways = capacity if one_set else associativity
        self.sets = [[] for _ in range(1 if one_set else capacity // self.ways)]
        self.evictions = self.inserts = 0

    def find(self, line, touch=False):
        entries = self.sets[line % len(self.sets)]
        for entry in entries:
            if entry[0] == line:
                if touch and self.ways is not None:
                    entries.remove(entry)
                    entries.append(entry)
                return entry
        return None

    def insert(self, line, state, pending_until, fetcher):
        entries = self.sets[line % len(self.sets)]
        victim = None
        if self.ways is not None and len(entries) == self.ways:
            victim = tuple(entries.pop(0)[:2])
            self.evictions += 1
        entries.append([line, state, pending_until, fetcher])
        self.inserts += 1
        return victim


def _drive(cache, model, ops):
    """Apply ``ops`` to the cache and the model, asserting identical
    observables after every step."""
    for op in ops:
        kind, line = op[0], op[1]
        entry = model.find(line, touch=kind == "lookup")
        if kind == "insert":
            _, _, state, pending, fetcher = op
            if entry is not None:
                continue  # double insert raises; not interesting
            victim = cache.insert(line, state, pending, fetcher)
            assert (None if victim is None else tuple(victim)) == \
                model.insert(line, state, pending, fetcher)
        elif kind in ("lookup", "peek"):
            record = getattr(cache, kind)(line)
            assert (record is None) == (entry is None)
        elif kind == "invalidate":
            assert cache.invalidate(line) == (entry is not None)
            if entry is not None:
                model.sets[line % len(model.sets)].remove(entry)
        elif kind == "downgrade":
            if entry is None:
                continue  # raises KeyError
            cache.downgrade(line)
            entry[1] = SHARED
        # full state equivalence after every step: same resident lines in
        # the same (LRU) order, same per-line records, same counters
        entries = [entry for lines in model.sets for entry in lines]
        assert cache.resident_lines() == [entry[0] for entry in entries]
        assert len(cache) == len(entries)
        for resident, *fields in entries:
            record = cache.peek(resident)
            assert [record.state, record.pending_until, record.fetcher] == \
                fields
        assert (cache.evictions, cache.inserts) == \
            (model.evictions, model.inserts)
        cache.check_sets()


@settings(max_examples=200, deadline=None)
@given(capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
       surplus_ways=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
       ops=st.lists(_cache_op, max_size=60))
def test_fully_associative_matches_reference(capacity, surplus_ways, ops):
    """One set: no associativity, or ways that cover the whole capacity."""
    ways = None if surplus_ways is None else (capacity or 1) + surplus_ways
    cache = Cache(capacity, ways)
    assert cache.n_sets == 1
    _drive(cache, _ListLRU(capacity, ways), ops)


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from([(4, 1), (4, 2), (8, 2), (8, 4), (12, 3)]),
       ops=st.lists(_cache_op, max_size=60))
def test_set_associative_matches_reference(shape, ops):
    capacity, assoc = shape
    _drive(Cache(capacity, assoc), _ListLRU(capacity, assoc), ops)


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(_cache_op, max_size=200))
def test_infinite_cache_matches_reference(ops):
    _drive(Cache(None), _ListLRU(None, None), ops)


# ------------------------------------------------------------- directory

_CLUSTERS = st.integers(min_value=0, max_value=7)

_dir_op = st.one_of(
    st.tuples(st.just("read_fill"), _LINES, _CLUSTERS),
    st.tuples(st.just("exclusive"), _LINES, _CLUSTERS),
    st.tuples(st.just("hint"), _LINES, _CLUSTERS),
    st.tuples(st.just("writeback"), _LINES, _CLUSTERS),
    st.tuples(st.just("downgrade"), _LINES, _CLUSTERS),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_dir_op, max_size=80))
def test_packed_directory_matches_reference(ops):
    """The record-based directory equals the reference's *live* entries.

    Both keep an entry for every line ever touched; a line is in the
    production directory only while its sharer mask is non-zero — so the
    comparison runs against ``live_lines()``, and ``hint`` ops are only
    sent for genuine sharers (as the protocol layer does: a replacement
    hint comes from a cluster that held the line).
    """
    flat = Directory(8)
    ref = RefDirectory(8)
    for kind, line, cluster in ops:
        entry = ref.peek(line)
        record = flat.entry(line)
        if kind == "read_fill":
            flat.record_read_fill(record, cluster)
            ref.record_read_fill(line, cluster)
        elif kind == "exclusive":
            assert flat.record_exclusive(record, cluster) == \
                ref.record_exclusive(line, cluster)
        elif kind == "hint":
            if entry is None or not entry.sharers:
                continue  # dead line: no cache can be evicting it
            flat.replacement_hint(record, cluster)
            ref.replacement_hint(line, cluster)
        elif kind == "writeback":
            flat.writeback(record, cluster)
            ref.writeback(line, cluster)
        elif kind == "downgrade":
            if entry is None or entry.state != DIR_EXCLUSIVE:
                continue  # raises in both
            flat.downgrade_owner(record, cluster)
            ref.downgrade_owner(line, cluster)
        # live-view equivalence after every step
        assert sorted(flat.lines()) == sorted(ref.live_lines())
        assert len(flat) == len(ref.live_lines())
        for live in ref.live_lines():
            e = ref.peek(live)
            assert flat.state_of(live) == e.state
            assert flat.sharer_mask(live) == e.sharers
            assert flat.sharer_list(live) == e.sharer_list()
            if e.state == DIR_EXCLUSIVE:
                assert flat.owner_of(live) == e.owner
        assert flat.invalidations_sent == ref.invalidations_sent
        assert flat.writebacks == ref.writebacks


def test_directory_prunes_dead_entries():
    """Streaming eviction traffic leaves no line in the directory."""
    d = Directory(4)
    for line in range(1000):
        d.record_read_fill(d.entry(line), 0)
        d.replacement_hint(d.entry(line), 0)
    assert len(d) == 0
    assert d.lines() == []
    for line in range(1000):
        d.record_exclusive(d.entry(line), 1)
        d.writeback(d.entry(line), 1)
    assert len(d) == 0


# ---------------------------------- set placement, protocol × geometry

def _machine(protocol, associativity):
    # 8 lines per processor: 40 lines over 2-processor clusters conflict
    return make_memory_system(MachineConfig(
        n_processors=8, cluster_size=2, cache_kb_per_processor=0.5,
        associativity=associativity, protocol=protocol))


@pytest.mark.parametrize("associativity", [None, 2, 1],
                         ids=["full", "2-way", "direct-mapped"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=25, deadline=None)
@given(accesses=st.lists(st.tuples(st.integers(0, 7), _LINES, st.booleans()),
                         min_size=1, max_size=250))
def test_invariants_hold_on_every_geometry(protocol, associativity, accesses):
    mem = _machine(protocol, associativity)
    for step, (proc, line, is_write) in enumerate(accesses):
        if is_write:
            mem.write(proc, line, 200 * step)
        else:
            mem.read(proc, line, 200 * step)
    mem.check_invariants()
    assert mem.aggregate_counters().references == len(accesses)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_check_invariants_catches_a_leaked_slot_in_a_two_way_cache(protocol):
    mem = _machine(protocol, 2)
    for proc in range(8):
        mem.read(proc, proc, 0)
    mem.check_invariants()
    sets = mem.caches[0].sets
    line = mem.caches[0].resident_lines()[0]
    # move the line's record into the next set, behind the cache's back
    sets[(line + 1) % len(sets)][line] = sets[line % len(sets)].pop(line)
    with pytest.raises(AssertionError, match="cache 0 set .* holds line"):
        mem.check_invariants()


# ------------------------------------- line records: history and home

_X, _Y = 0, 1  # two lines of one page


def _one_line_caches(protocol):
    """Two processors with one-line caches: one per cluster, or (snoopy)
    cluster-mates snooping each other."""
    return make_memory_system(MachineConfig(
        n_processors=2, cluster_size=2 if protocol == "snoopy" else 1,
        cache_kb_per_processor=0.0625, protocol=protocol))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_the_latest_loss_decides_a_miss_cause(protocol):
    """P0 misses on X cold, loses it to an eviction (capacity), then to
    P1's write or, under DLS, where nothing is invalidated, leaves P1 to
    miss on its remote-homed X cold and then coherence; a last eviction
    makes P0's next miss capacity again, so the eviction must clear the
    coherence loss it follows."""
    mem = _one_line_caches(protocol)
    # (processor, line, is_write); the middle two steps are P1's write
    # and P0's miss after it, or under DLS P1's two remote reads
    middle = ([(1, _X, False), (1, _X, False)] if protocol == "dls"
              else [(1, _X, True), (0, _X, False)])
    script = [(0, _X, False), (0, _Y, False), (0, _X, False), *middle,
              (0, _Y, False), (0, _X, False)]
    causes = []
    for step, (proc, line, is_write) in enumerate(script):
        before = mem.aggregate_counters().by_cause
        if is_write:
            mem.write(proc, line, 1000 * step)
        else:
            mem.read(proc, line, 1000 * step)
        after = mem.aggregate_counters().by_cause
        causes += [cause.value for cause in after
                   if after[cause] != before[cause]]
        mem.check_invariants()
    assert causes == ["cold", "cold", "capacity", "cold", "coherence",
                      "capacity", "capacity"]


def test_snoopy_binds_a_page_at_its_first_home_going_miss():
    """P1's first miss, on X, is a cache-to-cache transfer from P0; its
    second, on Y of a fresh page, goes to the home node and binds that
    page — the next round-robin home, cluster 1.  P2's first touch of a
    third page then lands on cluster 0, as in ``kernel.c``."""
    mem = make_memory_system(MachineConfig(n_processors=4, cluster_size=2,
                                           protocol="snoopy"))
    lines_per_page = mem.config.page_size // mem.config.line_size
    y, z = lines_per_page, 2 * lines_per_page
    assert mem.read(0, _X, 0)[1] == 30 + 6
    assert mem.read(1, _X, 100) == (2, 10)  # READ_MISS, cache to cache
    assert dict(mem.allocator.page_homes) == {0: 0}
    assert mem.read(1, y, 200)[1] == 100 + 6
    assert mem.read(2, z, 300)[1] == 100 + 6
    assert dict(mem.allocator.page_homes) == {0: 0, 1: 1, 2: 0}
    assert [mem.records[line].home for line in (_X, y, z)] == [0, 1, 0]
    mem.check_invariants()


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_check_invariants_catches_a_record_home_off_its_page(protocol):
    mem = _machine(protocol, None)
    for proc in range(8):
        mem.read(proc, proc, 0)
    mem.check_invariants()
    record = mem.records[0]
    record.home = (record.home + 1) % mem.config.n_clusters
    with pytest.raises(AssertionError, match="records home"):
        mem.check_invariants()


# ------------------------- snoopy vs directory, single-processor clusters

def test_snoopy_matches_directory_at_cluster_size_one():
    """With one processor per cluster and a free bus there is nothing to
    snoop: the snoopy organisation degenerates to the shared-cache one,
    and both memory systems must simulate identically."""
    from repro.apps.registry import build_app
    from repro.memory.coherence import CoherentMemorySystem
    from repro.memory.snoopy import SnoopyClusterMemorySystem
    from repro.sim.engine import Engine

    config = MachineConfig(n_processors=4, cluster_size=1,
                           cache_kb_per_processor=4.0)

    app = build_app("lu", config, n=32)
    app.ensure_setup()
    shared = Engine(config, CoherentMemorySystem(config, app.allocator)).run(
        app.program)

    app = build_app("lu", config, n=32)
    app.ensure_setup()
    snoopy_mem = SnoopyClusterMemorySystem(config, app.allocator)
    snoopy_mem.snoop_penalty = 0
    snoopy = Engine(config, snoopy_mem).run(app.program)

    assert snoopy_mem.c2c_transfers == 0
    assert snoopy.to_json() == shared.to_json()
