"""Property suite for the kernelized memory core.

Drives the slab/flat-array implementations (:mod:`repro.memory.cache`,
:mod:`repro.memory.directory`) and the retained object-per-line reference
implementations (``tests/refmodel.py``) with identical random
streams, and requires identical observable behaviour: victim choice, LRU
order, states, pending times, fetcher metadata, and protocol counters.

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
from repro.memory.cache import EXCLUSIVE, SHARED, Cache
from repro.memory.directory import DIR_EXCLUSIVE, Directory

from refmodel import (RefDirectory, RefFullyAssociativeCache,
                      RefSetAssociativeCache)

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


def _drive(flat, ref, ops):
    """Apply ``ops`` to both caches, asserting identical observables."""
    for op in ops:
        kind, line = op[0], op[1]
        if kind == "insert":
            _, _, state, pending, fetcher = op
            if line in ref:
                continue  # double insert raises in both; not interesting
            victim = flat.insert(line, state, pending, fetcher)
            ref_victim = ref.insert(line, state, pending, fetcher)
            assert (None if victim is None else tuple(victim)) == \
                (None if ref_victim is None else tuple(ref_victim))
        elif kind == "lookup":
            slot = flat.lookup(line)
            entry = ref.lookup(line)
            assert (slot >= 0) == (entry is not None)
        elif kind == "peek":
            assert (flat.peek(line) >= 0) == (ref.peek(line) is not None)
        elif kind == "invalidate":
            assert flat.invalidate(line) == ref.invalidate(line)
        elif kind == "downgrade":
            if line not in ref:
                continue  # raises KeyError in both
            flat.downgrade(line)
            ref.downgrade(line)
        # full state equivalence after every step: same resident lines in
        # the same (LRU) order, same per-line metadata, same counters
        assert flat.resident_lines() == ref.resident_lines()
        assert len(flat) == len(ref)
        for resident in ref.resident_lines():
            entry = ref.peek(resident)
            assert flat.state_of(resident) == entry.state
            assert flat.pending_until_of(resident) == entry.pending_until
            assert flat.fetcher_of(resident) == entry.fetcher
        assert flat.evictions == ref.evictions
        assert flat.inserts == ref.inserts
        flat.check_slots()


@settings(max_examples=200, deadline=None)
@given(capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
       surplus_ways=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
       ops=st.lists(_cache_op, max_size=60))
def test_fully_associative_matches_reference(capacity, surplus_ways, ops):
    """One set: no associativity, or ways that cover the whole capacity."""
    ways = None if surplus_ways is None else (capacity or 1) + surplus_ways
    flat = Cache(capacity, ways)
    assert flat.n_sets == 1
    _drive(flat, RefFullyAssociativeCache(capacity), ops)


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from([(4, 1), (4, 2), (8, 2), (8, 4), (12, 3)]),
       ops=st.lists(_cache_op, max_size=60))
def test_set_associative_matches_reference(shape, ops):
    capacity, assoc = shape
    _drive(Cache(capacity, assoc), RefSetAssociativeCache(capacity, assoc),
           ops)


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(_cache_op, max_size=200))
def test_infinite_cache_matches_reference(ops):
    _drive(Cache(None), RefFullyAssociativeCache(None), ops)


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
    """The packed-int directory equals the reference's *live* entries.

    The reference keeps dead (NOT_CACHED, empty-mask) entries forever;
    the production table prunes them — so the comparison runs against
    ``live_lines()``, and ``hint`` ops are only sent for genuine sharers
    (as the protocol layer does: a replacement hint comes from a cluster
    that held the line).
    """
    flat = Directory(8)
    ref = RefDirectory(8)
    for kind, line, cluster in ops:
        entry = ref.peek(line)
        if kind == "read_fill":
            flat.record_read_fill(line, cluster)
            ref.record_read_fill(line, cluster)
        elif kind == "exclusive":
            assert flat.record_exclusive(line, cluster) == \
                ref.record_exclusive(line, cluster)
        elif kind == "hint":
            if entry is None or not entry.sharers:
                continue  # dead line: no cache can be evicting it
            flat.replacement_hint(line, cluster)
            ref.replacement_hint(line, cluster)
        elif kind == "writeback":
            flat.writeback(line, cluster)
            ref.writeback(line, cluster)
        elif kind == "downgrade":
            if entry is None or entry.state != DIR_EXCLUSIVE:
                continue  # raises in both
            flat.downgrade_owner(line, cluster)
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
    """Streaming eviction traffic must not grow the table (satellite fix)."""
    d = Directory(4)
    for line in range(1000):
        d.record_read_fill(line, 0)
        d.replacement_hint(line, 0)
    assert len(d) == 0
    assert d.lines() == []
    for line in range(1000):
        d.record_exclusive(line, 1)
        d.writeback(line, 1)
    assert len(d) == 0


# ------------------------------------ slot accounting, protocol × geometry

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
    leaky = next(free for free in mem.caches[0].free if free)
    leaky.pop()
    with pytest.raises(AssertionError, match="cache 0 set .* slot leak"):
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
    snoopy_mem = SnoopyClusterMemorySystem(config, app.allocator,
                                           snoop_penalty=0)
    snoopy = Engine(config, snoopy_mem).run(app.program)

    assert snoopy_mem.c2c_transfers == 0
    assert snoopy.to_json() == shared.to_json()
