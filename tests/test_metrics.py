"""Unit tests for miss counters and time breakdowns."""

import pytest

from repro.core.metrics import MissCause, MissCounters, TimeBreakdown


class TestMissCounters:
    def test_misses_excludes_upgrades_and_merges(self):
        m = MissCounters(read_misses=3, write_misses=2, upgrade_misses=7,
                         merges=5)
        assert m.misses == 5

    def test_miss_rate(self):
        m = MissCounters(reads=60, writes=40, read_misses=5, write_misses=5)
        assert m.miss_rate == pytest.approx(0.1)

    def test_miss_rate_empty(self):
        assert MissCounters().miss_rate == 0.0

    def test_record_cause(self):
        m = MissCounters()
        m.record_cause(MissCause.COLD)
        m.record_cause(MissCause.COLD)
        m.record_cause(MissCause.COHERENCE)
        assert m.by_cause[MissCause.COLD] == 2
        assert m.by_cause[MissCause.COHERENCE] == 1
        assert m.by_cause[MissCause.CAPACITY] == 0

    def test_merged_into(self):
        a = MissCounters(reads=6, writes=4,
                         read_misses=3, write_misses=2, upgrade_misses=1,
                         merges=2, merge_refetches=1)
        a.record_cause(MissCause.CAPACITY)
        total = MissCounters()
        a.merged_into(total)
        a.merged_into(total)
        assert total.references == 20
        assert total.read_misses == 6
        assert total.by_cause[MissCause.CAPACITY] == 2
        assert total.merge_refetches == 2

    def test_references_and_hits_are_derived(self):
        m = MissCounters(reads=6, writes=4, read_misses=3, write_misses=2,
                         upgrade_misses=1)
        assert m.references == 10
        assert m.hits == 4
        m.reads += 1  # a hit: one stored-counter increment, both update
        assert m.references == 11
        assert m.hits == 5

    def test_round_trip_keeps_derived_keys(self):
        m = MissCounters(reads=6, writes=4, read_misses=3, write_misses=2)
        data = m.to_dict()
        assert data["references"] == 10
        assert data["hits"] == 5
        assert MissCounters.from_dict(data) == m

    def test_from_dict_rejects_inconsistent_payload(self):
        m = MissCounters(reads=6, writes=4, read_misses=3)
        data = m.to_dict()
        data["hits"] += 1
        with pytest.raises(ValueError, match="inconsistent"):
            MissCounters.from_dict(data)


class TestTimeBreakdown:
    def test_total(self):
        bd = TimeBreakdown(cpu=10, load=20, merge=5, sync=15)
        assert bd.total == 50

    def test_add(self):
        a = TimeBreakdown(cpu=1, load=2, merge=3, sync=4)
        a.add(TimeBreakdown(cpu=10, load=20, merge=30, sync=40))
        assert (a.cpu, a.load, a.merge, a.sync) == (11, 22, 33, 44)

    def test_fractions_sum_to_one(self):
        bd = TimeBreakdown(cpu=10, load=20, merge=5, sync=15)
        fr = bd.fractions()
        assert sum(fr.values()) == pytest.approx(1.0)
        assert fr["load"] == pytest.approx(0.4)

    def test_fractions_empty(self):
        assert TimeBreakdown().fractions() == {
            "cpu": 0.0, "load": 0.0, "merge": 0.0, "sync": 0.0}

    def test_normalized_to_baseline(self):
        bd = TimeBreakdown(cpu=50, load=25, merge=0, sync=25)
        norm = bd.normalized_to(200)
        assert norm["total"] == pytest.approx(50.0)
        assert norm["cpu"] == pytest.approx(25.0)

    def test_normalized_baseline_validation(self):
        with pytest.raises(ValueError):
            TimeBreakdown(cpu=1).normalized_to(0)
