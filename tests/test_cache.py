"""Unit tests for the slab-allocated cluster cache: ``n_sets`` sets of
``ways`` lines behind a slot-based API over flat array('q') columns.

:class:`TestEveryGeometry` holds what every geometry shares; the classes
before it pin the paper's fully associative cache at small fixed sizes and
the set-specific cases."""

import pytest

from repro.memory.cache import EXCLUSIVE, SHARED, Cache


class TestFullyAssociativeBasics:
    def test_miss_then_hit(self):
        c = Cache(4)
        assert c.lookup(1) == -1
        c.insert(1, SHARED)
        slot = c.lookup(1)
        assert slot >= 0
        assert c.state[slot] == SHARED

    def test_capacity_enforced(self):
        c = Cache(2)
        c.insert(1, SHARED)
        c.insert(2, SHARED)
        victim = c.insert(3, SHARED)
        assert victim is not None
        assert len(c) == 2

    def test_lru_victim_is_least_recent(self):
        c = Cache(2)
        c.insert(1, SHARED)
        c.insert(2, SHARED)
        c.lookup(1)  # 2 becomes LRU
        victim = c.insert(3, SHARED)
        assert victim.line == 2

    def test_peek_does_not_touch_lru(self):
        c = Cache(2)
        c.insert(1, SHARED)
        c.insert(2, SHARED)
        c.peek(1)  # must NOT refresh line 1
        victim = c.insert(3, SHARED)
        assert victim.line == 1

    def test_double_insert_rejected(self):
        c = Cache(4)
        c.insert(1, SHARED)
        with pytest.raises(ValueError):
            c.insert(1, EXCLUSIVE)

    def test_invalidate(self):
        c = Cache(4)
        c.insert(1, SHARED)
        assert c.invalidate(1) is True
        assert c.invalidate(1) is False
        assert 1 not in c

    def test_invalidate_pending_line(self):
        c = Cache(4)
        c.insert(1, SHARED, pending_until=100)
        assert c.invalidate(1) is True

    def test_downgrade(self):
        c = Cache(4)
        c.insert(1, EXCLUSIVE)
        c.downgrade(1)
        assert c.state_of(1) == SHARED

    def test_downgrade_missing_line_raises(self):
        c = Cache(4)
        with pytest.raises(KeyError):
            c.downgrade(7)

    def test_victim_state_reported(self):
        c = Cache(1)
        c.insert(1, EXCLUSIVE)
        victim = c.insert(2, SHARED)
        assert victim.state == EXCLUSIVE

    def test_eviction_counter(self):
        c = Cache(1)
        c.insert(1, SHARED)
        c.insert(2, SHARED)
        c.insert(3, SHARED)
        assert c.evictions == 2
        assert c.inserts == 3


class TestSlabColumns:
    """The flat-column state layout specifics."""

    def test_finite_columns_preallocated(self):
        c = Cache(8)
        assert len(c.state) == 8
        assert len(c.pending) == 8
        assert len(c.fetcher) == 8
        assert len(c.tag) == 8
        assert c.free == [[7, 6, 5, 4, 3, 2, 1, 0]]

    def test_tag_column_names_resident_line(self):
        c = Cache(4)
        c.insert(42, SHARED)
        slot = c.peek(42)
        assert c.tag[slot] == 42

    def test_fetcher_cell(self):
        c = Cache(4)
        c.insert(1, SHARED, fetcher=7)
        slot = c.peek(1)
        assert c.fetcher_of(1) == 7
        assert c.fetcher[slot] == 7
        c.fetcher[slot] = -1  # protocol layer marks the prefetch counted
        assert c.fetcher_of(1) == -1

    def test_invalidate_recycles_slot(self):
        c = Cache(2)
        c.insert(1, SHARED)
        slot = c.peek(1)
        c.invalidate(1)
        assert slot in c.free[0]
        c.insert(2, SHARED)
        c.insert(3, SHARED)
        assert len(c) == 2  # recycled slot reused, no overflow

    def test_eviction_reuses_victim_slot(self):
        c = Cache(1)
        c.insert(1, SHARED)
        slot = c.peek(1)
        c.insert(2, EXCLUSIVE)
        assert c.peek(2) == slot

    def test_slot_accounting_balances(self):
        c = Cache(4)
        for line in range(10):
            c.insert(line, SHARED)
            if line % 3 == 0:
                c.invalidate(line)
        c.check_slots()

    def test_infinite_growth_preserves_column_identity(self):
        c = Cache(None)
        state_col = c.state  # bound before any growth, like the kernel does
        pending_col = c.pending
        fetcher_col = c.fetcher
        for line in range(5000):  # forces several in-place extensions
            c.insert(line, SHARED, pending_until=line)
        assert state_col is c.state
        assert pending_col is c.pending
        assert fetcher_col is c.fetcher
        assert pending_col[c.peek(4999)] == 4999

    def test_pending_until_of(self):
        c = Cache(4)
        c.insert(1, SHARED, pending_until=50)
        assert c.pending_until_of(1) == 50
        assert c.pending_until_of(9) is None


class TestPending:
    def test_pending_until_future(self):
        c = Cache(4)
        c.insert(1, SHARED, pending_until=50)
        assert c.pending[c.lookup(1)] > 10
        assert not c.pending[c.lookup(1)] > 50
        assert not c.pending[c.lookup(1)] > 51

    def test_default_not_pending(self):
        c = Cache(4)
        c.insert(1, SHARED)
        assert not c.pending[c.lookup(1)] > 0


class TestInfiniteCache:
    def test_never_evicts(self):
        c = Cache(None)
        for line in range(10_000):
            assert c.insert(line, SHARED) is None
        assert len(c) == 10_000
        assert c.is_infinite

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            Cache(0)


class TestSetAssociative:
    def test_set_conflict_evicts_within_set(self):
        # 4 lines, 2-way: sets {0,2,...} and {1,3,...}
        c = Cache(capacity_lines=4, associativity=2)
        c.insert(0, SHARED)
        c.insert(2, SHARED)
        victim = c.insert(4, SHARED)  # third line mapping to set 0
        assert victim.line == 0
        assert 2 in c and 4 in c

    def test_no_cross_set_eviction(self):
        c = Cache(4, 2)
        c.insert(0, SHARED)
        c.insert(2, SHARED)
        assert c.insert(1, SHARED) is None  # other set has room
        assert len(c) == 3

    def test_lru_within_set(self):
        c = Cache(4, 2)
        c.insert(0, SHARED)
        c.insert(2, SHARED)
        c.lookup(0)
        assert c.insert(4, SHARED).line == 2

    def test_direct_mapped(self):
        c = Cache(4, 1)
        c.insert(0, SHARED)
        assert c.insert(4, SHARED).line == 0

    def test_capacity_divisibility_enforced(self):
        with pytest.raises(ValueError):
            Cache(5, 2)

    def test_slots_stay_within_owning_set(self):
        c = Cache(4, 2)
        c.insert(0, SHARED)   # set 0 owns slots 0..1
        c.insert(1, SHARED)   # set 1 owns slots 2..3
        assert c.peek(0) in (0, 1)
        assert c.peek(1) in (2, 3)

    def test_shared_api_surface(self):
        c = Cache(4, 2)
        c.insert(0, EXCLUSIVE)
        c.downgrade(0)
        assert c.state_of(0) == SHARED
        assert c.peek(0) >= 0
        assert c.invalidate(0)
        assert not c.is_infinite

    def test_resident_lines(self):
        c = Cache(4, 2)
        c.insert(0, SHARED)
        c.insert(1, SHARED)
        assert sorted(c.resident_lines()) == [0, 1]


class TestMakeCache:
    """Which geometry a (capacity, associativity) pair builds."""

    def test_none_assoc_gives_fully_associative(self):
        c = Cache(64, None)
        assert (c.n_sets, c.ways) == (1, 64)

    def test_infinite_always_fully_associative(self):
        c = Cache(None, 4)
        assert (c.n_sets, c.ways) == (1, None)

    def test_assoc_gives_set_associative(self):
        c = Cache(64, 4)
        assert (c.n_sets, c.ways) == (16, 4)

    def test_assoc_at_capacity_degrades_to_full(self):
        c = Cache(4, 8)
        assert (c.n_sets, c.ways) == (1, 4)


GEOMETRIES = [(8, None), (8, 8), (8, 2), (8, 1), (None, None), (None, 4)]


def geometry_id(geometry):
    return f"{geometry[0] or 'inf'}x{geometry[1] or 'full'}"


def only(*geometries):
    """Run a ``cache`` test on these geometries instead of all six."""
    return pytest.mark.parametrize("cache", geometries, indirect=True,
                                   ids=geometry_id)


@pytest.fixture(params=GEOMETRIES, ids=geometry_id)
def cache(request):
    return Cache(*request.param)


def conflicting(cache, count):
    """``count`` distinct lines that all map to set 1 % n_sets."""
    return [1 + k * cache.n_sets for k in range(count)]


class TestEveryGeometry:
    """Behaviour shared by one fully associative set, several sets, a
    direct-mapped cache and an infinite one."""

    def test_shape(self, cache):
        slots = cache.capacity_lines or 0
        assert cache.n_sets * (cache.ways or 0) == slots
        for column in (cache.state, cache.pending, cache.fetcher, cache.tag):
            assert len(column) == slots
        assert len(cache.sets) == len(cache.free) == cache.n_sets
        assert cache.is_infinite == (cache.capacity_lines is None)
        kernels = cache.kernels()
        assert len(kernels) == cache.n_sets
        for index, kern in enumerate(kernels):
            assert kern[0] is cache.sets[index]
            assert kern[1] is cache.state and kern[2] is cache.pending
            assert kern[3] is cache.fetcher and len(kern) == 4

    def test_miss_then_hit(self, cache):
        assert cache.lookup(5) == -1 and 5 not in cache
        assert cache.insert(5, SHARED, pending_until=50, fetcher=3) is None
        slot = cache.lookup(5)
        assert slot >= 0 and slot == cache.peek(5) and 5 in cache
        assert cache.tag[slot] == 5
        assert (cache.state[slot], cache.pending[slot],
                cache.fetcher[slot]) == (SHARED, 50, 3)
        assert (cache.state_of(5), cache.pending_until_of(5),
                cache.fetcher_of(5)) == (SHARED, 50, 3)
        assert cache.state_of(6) is None and cache.fetcher_of(6) is None
        with pytest.raises(ValueError):
            cache.insert(5, EXCLUSIVE)

    def test_full_set_evicts_its_lru_line(self, cache):
        if cache.is_infinite:
            for line in range(3000):  # past the initial slab: grows in place
                assert cache.insert(line, SHARED) is None
            assert len(cache) == 3000 and cache.evictions == 0
            return
        first, *rest, extra = conflicting(cache, cache.ways + 1)
        for line in (first, *rest):
            assert cache.insert(line, EXCLUSIVE) is None
        cache.peek(first)            # must not refresh
        if rest:
            cache.lookup(first)      # refreshes: rest[0] is now the LRU line
        victim = cache.insert(extra, SHARED)
        assert victim == ((rest[0] if rest else first), EXCLUSIVE)
        assert victim.line not in cache and extra in cache
        assert len(cache) == cache.ways
        assert (cache.evictions, cache.inserts) == (1, cache.ways + 1)

    @only((8, 2), (8, 1))
    def test_other_sets_are_untouched_by_a_conflict(self, cache):
        for line in conflicting(cache, cache.ways):
            cache.insert(line, SHARED)
        assert cache.insert(0, SHARED) is None  # set 0 has room
        assert cache.insert(conflicting(cache, cache.ways + 1)[-1],
                            SHARED).line == 1
        assert 0 in cache

    def test_slots_stay_inside_the_owning_set(self, cache):
        for line in range(64):
            cache.insert(line, SHARED)
            if line % 3 == 0:
                cache.invalidate(line)
        for line in cache.resident_lines():
            index = line % cache.n_sets
            assert cache.peek(line) in cache.sets[index].values()
            if cache.ways is not None:
                assert cache.peek(line) // cache.ways == index
        cache.check_slots()

    def test_invalidate_recycles_the_slot_into_its_set(self, cache):
        cache.insert(3, SHARED, pending_until=100)  # pending lines go too
        slot = cache.peek(3)
        assert cache.invalidate(3) is True
        assert cache.invalidate(3) is False
        assert 3 not in cache and len(cache) == 0
        assert cache.free[3 % cache.n_sets][-1] == slot
        cache.insert(3 + cache.n_sets, SHARED)
        assert cache.peek(3 + cache.n_sets) == slot

    @only((8, None), (8, 8), (8, 2), (8, 1))
    def test_eviction_reuses_the_victims_slot(self, cache):
        lines = conflicting(cache, cache.ways + 1)
        for line in lines[:-1]:
            cache.insert(line, SHARED)
        slot = cache.peek(lines[0])
        assert cache.insert(lines[-1], SHARED).line == lines[0]
        assert cache.peek(lines[-1]) == slot

    def test_downgrade(self, cache):
        cache.insert(1, EXCLUSIVE)
        cache.downgrade(1)
        assert cache.state_of(1) == SHARED
        with pytest.raises(KeyError):
            cache.downgrade(7)

    def test_resident_lines_are_set_by_set(self, cache):
        for line in (5, 2, 1, 0):
            cache.insert(line, SHARED)
        assert sorted(cache.resident_lines()) == [0, 1, 2, 5]
        assert cache.resident_lines() == [
            line for slot_of in cache.sets for line in slot_of]
        assert len(cache) == 4

    def test_check_slots_catches_a_leaked_slot(self, cache):
        cache.insert(1, SHARED)
        cache.check_slots()
        slot = cache.sets[1 % cache.n_sets].pop(1)  # dropped, never freed
        with pytest.raises(AssertionError, match="slot leak"):
            cache.check_slots()
        cache.free[1 % cache.n_sets].append(slot)
        cache.check_slots()

    def test_rejects_bad_geometry(self):
        for capacity, associativity in ((0, None), (-1, None), (8, 0),
                                        (8, -2), (5, 2), (8, 3)):
            with pytest.raises(ValueError):
                Cache(capacity, associativity)
