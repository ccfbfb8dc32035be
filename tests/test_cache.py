"""Unit tests for the cluster cache: ``n_sets`` sets of ``ways`` lines,
one :class:`~repro.memory.cache.Line` record per resident line.

:class:`TestEveryGeometry` holds what every geometry shares; the classes
before it pin the paper's fully associative cache at small fixed sizes and
the set-specific cases."""

import pytest

from repro.core.metrics import MissCounters
from repro.memory.cache import (EXCLUSIVE, READ_HIT, READ_MERGE, SHARED,
                                Cache)


class TestFullyAssociativeBasics:
    def test_miss_then_hit(self):
        c = Cache(4)
        assert c.lookup(1) is None
        c.insert(1, SHARED)
        record = c.lookup(1)
        assert record is not None
        assert record.state == SHARED

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
    """What the record layout promises the protocol back ends."""

    def test_fetcher_cell(self):
        c = Cache(4)
        c.insert(1, SHARED, fetcher=7)
        record = c.peek(1)
        assert record.fetcher == 7
        record.fetcher = -1  # protocol layer marks the prefetch counted
        assert c.peek(1).fetcher == -1

    def test_invalidate_recycles_slot(self):
        c = Cache(2)
        c.insert(1, SHARED)
        c.insert(2, SHARED)
        c.invalidate(1)
        assert c.insert(3, SHARED) is None  # the freed way takes it
        assert len(c) == 2 and c.evictions == 0

    def test_eviction_reuses_victim_slot(self):
        c = Cache(1)
        c.insert(1, SHARED, pending_until=5, fetcher=2)
        record = c.peek(1)
        c.insert(2, EXCLUSIVE, pending_until=9)
        assert c.peek(2) is record
        assert (record.state, record.pending_until, record.fetcher) == \
            (EXCLUSIVE, 9, -1)

    def test_slot_accounting_balances(self):
        c = Cache(4)
        invalidated = 0
        for line in range(10):
            c.insert(line, SHARED)
            if line % 3 == 0:
                invalidated += c.invalidate(line)
        # every inserted line is resident, evicted or invalidated
        assert len(c) == c.inserts - c.evictions - invalidated == 3
        c.check_sets()

    def test_infinite_growth_preserves_column_identity(self):
        c = Cache(None)
        lines = c.sets[0]  # bound before any insert
        for line in range(5000):
            c.insert(line, SHARED, pending_until=line)
        assert lines is c.sets[0] and len(lines) == 5000
        assert lines[4999].pending_until == 4999


class TestPending:
    def test_pending_until_future(self):
        c = Cache(4)
        c.insert(1, SHARED, pending_until=50)
        assert c.lookup(1).pending_until > 10
        assert not c.lookup(1).pending_until > 50
        assert not c.lookup(1).pending_until > 51

    def test_default_not_pending(self):
        c = Cache(4)
        c.insert(1, SHARED)
        assert not c.lookup(1).pending_until > 0


class TestProbeRead:
    """``Cache.probe_read``, the one hit / merge / prefetch rule of every
    protocol back end."""

    def test_absent_line_is_none_and_keeps_lru_order(self):
        c = Cache(2)
        c.insert(1, SHARED)
        c.insert(2, SHARED)
        ctr = MissCounters()
        assert c.probe_read(3, 0, 0, ctr) is None
        assert ctr == MissCounters()
        assert c.insert(3, SHARED).line == 1  # 1 is still the LRU line

    def test_pending_line_is_a_merge_counted_once_and_refreshed(self):
        c = Cache(2)
        c.insert(1, SHARED, pending_until=50, fetcher=0)
        c.insert(2, SHARED)
        ctr = MissCounters()
        assert c.probe_read(1, 1, 10, ctr) == (READ_MERGE, 40)
        assert (ctr.merges, ctr.prefetch_hits) == (1, 0)
        assert c.peek(1).fetcher == 0  # a merge is not a prefetch hit
        assert c.insert(3, SHARED).line == 2  # 1 became MRU

    def test_prefetched_line_is_one_prefetch_hit_then_plain_hits(self):
        c = Cache(4)
        c.insert(1, SHARED, pending_until=5, fetcher=0)
        ctr = MissCounters()
        assert c.probe_read(1, 0, 5, ctr) == (READ_HIT, 0)  # its fetcher
        assert ctr.prefetch_hits == 0
        assert c.probe_read(1, 1, 5, ctr) == (READ_HIT, 0)
        assert ctr.prefetch_hits == 1 and c.peek(1).fetcher == -1
        assert c.probe_read(1, 2, 6, ctr) == (READ_HIT, 0)
        assert (ctr.prefetch_hits, ctr.merges) == (1, 0)


class TestInfiniteCache:
    def test_never_evicts(self):
        c = Cache(None)
        for line in range(10_000):
            assert c.insert(line, SHARED) is None
        assert len(c) == 10_000
        assert (c.capacity_lines, c.ways, c.n_sets) == (None, None, 1)

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
        c.insert(0, SHARED)   # set 0 holds even lines
        c.insert(1, SHARED)   # set 1 holds odd lines
        assert list(c.sets[0]) == [0] and list(c.sets[1]) == [1]

    def test_shared_api_surface(self):
        c = Cache(4, 2)
        c.insert(0, EXCLUSIVE)
        c.downgrade(0)
        assert c.state_of(0) == SHARED
        assert c.peek(0) is not None
        assert c.invalidate(0)
        assert c.peek(0) is None

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
        assert cache.n_sets * (cache.ways or 0) == (cache.capacity_lines or 0)
        assert (cache.ways is None) == (cache.capacity_lines is None)
        assert cache.sets == [{}] * cache.n_sets
        assert len(cache) == 0 and cache.resident_lines() == []

    def test_miss_then_hit(self, cache):
        assert cache.lookup(5) is None and 5 not in cache
        assert cache.insert(5, SHARED, pending_until=50, fetcher=3) is None
        record = cache.lookup(5)
        assert record is cache.peek(5) and 5 in cache
        assert record is cache.sets[5 % cache.n_sets][5]
        assert (record.state, record.pending_until,
                record.fetcher) == (SHARED, 50, 3)
        assert cache.state_of(5) == SHARED
        assert cache.state_of(6) is None and cache.peek(6) is None
        with pytest.raises(ValueError):
            cache.insert(5, EXCLUSIVE)

    def test_full_set_evicts_its_lru_line(self, cache):
        if cache.ways is None:
            for line in range(3000):
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
        for index, lines in enumerate(cache.sets):
            assert all(line % cache.n_sets == index for line in lines)
            assert cache.ways is None or len(lines) <= cache.ways
        cache.check_sets()

    def test_invalidate_recycles_the_slot_into_its_set(self, cache):
        lines = conflicting(cache, cache.ways or 2)
        for line in lines:
            cache.insert(line, SHARED, pending_until=100)
        assert cache.invalidate(lines[0]) is True  # pending lines go too
        assert cache.invalidate(lines[0]) is False
        assert lines[0] not in cache and len(cache) == len(lines) - 1
        newcomer = 1 + len(lines) * cache.n_sets  # same set, now with room
        assert cache.insert(newcomer, SHARED) is None
        assert cache.resident_lines() == [*lines[1:], newcomer]
        assert cache.evictions == 0

    @only((8, None), (8, 8), (8, 2), (8, 1))
    def test_eviction_reuses_the_victims_slot(self, cache):
        lines = conflicting(cache, cache.ways + 1)
        for line in lines[:-1]:
            cache.insert(line, SHARED)
        record = cache.peek(lines[0])
        assert cache.insert(lines[-1], SHARED).line == lines[0]
        assert cache.peek(lines[-1]) is record

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
            line for lines in cache.sets for line in lines]
        assert len(cache) == 4

    def test_check_sets_catches_an_overfull_or_misplaced_set(self, cache):
        lines = conflicting(cache, (cache.ways or 64) + 1)
        for line in lines[:-1]:
            cache.insert(line, SHARED)
        cache.check_sets()
        own = cache.sets[1 % cache.n_sets]
        own[lines[-1]] = own[lines[0]]  # one past the ways, behind insert
        if cache.ways is None:
            cache.check_sets()  # an infinite set has no bound
        else:
            with pytest.raises(AssertionError, match="over its"):
                cache.check_sets()
        del own[lines[-1]]
        if cache.n_sets > 1:
            cache.sets[0][lines[0]] = own.pop(lines[0])  # odd line, set 0
            with pytest.raises(AssertionError, match="holds line 0x1 of"):
                cache.check_sets()

    def test_rejects_bad_geometry(self):
        for capacity, associativity in ((0, None), (-1, None), (8, 0),
                                        (8, -2), (5, 2), (8, 3)):
            with pytest.raises(ValueError):
                Cache(capacity, associativity)
