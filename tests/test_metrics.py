"""Unit tests for miss counters and time breakdowns."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import (MissCause, MissCounters, NetworkStats,
                                RunResult, TimeBreakdown)


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

    def test_summed(self):
        a = MissCounters(reads=6, writes=4,
                         read_misses=3, write_misses=2, upgrade_misses=1,
                         merges=2, merge_refetches=1)
        a.by_cause[MissCause.CAPACITY] += 1
        total = MissCounters.summed([a, a])
        assert MissCounters.summed([]) == MissCounters()
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

    def test_mean(self):
        a = TimeBreakdown(cpu=1, load=2, merge=3, sync=4)
        m = TimeBreakdown.mean([a, TimeBreakdown(cpu=10, load=20, merge=30,
                                                 sync=40)])
        assert (m.cpu, m.load, m.merge, m.sync) == (5.5, 11.0, 16.5, 22.0)
        assert TimeBreakdown.mean([]) == TimeBreakdown()

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


def _payload() -> dict:
    counters = MissCounters(reads=6, writes=4, read_misses=1, write_misses=1)
    counters.by_cause[MissCause.COLD] += 1
    counters.by_cause[MissCause.CAPACITY] += 1
    return RunResult(
        execution_time=123, breakdown=TimeBreakdown(100, 20, 2, 1.5),
        per_processor=[TimeBreakdown(100, 20, 2, 1),
                       TimeBreakdown(1, 2, 3, 4)],
        misses=counters, per_cluster_misses=[counters, counters]).to_dict()


class TestRunResultDecoding:
    """``RunResult.from_dict`` checks every record as it builds it; each
    refusal is a ``ValueError``."""

    def test_round_trip_keeps_types(self):
        data = _payload()
        result = RunResult.from_dict(data)
        assert result.to_dict() == data
        assert type(result.breakdown.sync) is float
        assert type(result.per_processor[0].sync) is int

    @pytest.mark.parametrize("edit", [
        lambda p: p["per_processor"][1].update(load=True),
        lambda p: p["breakdown"].update(cpu=False),
        lambda p: p["per_cluster_misses"][0].update(merges=True),
        lambda p: p["misses"]["by_cause"].update(cold=True),
        lambda p: p.update(execution_time=True),
        lambda p: p["per_processor"][0].update(cpu="100"),
        lambda p: p["per_processor"][0].update(cpu=None),
    ], ids=["per-processor", "breakdown", "counter", "cause-count",
            "execution-time", "string", "null"])
    def test_refuses_bools_and_non_numbers(self, edit):
        data = _payload()
        edit(data)
        with pytest.raises(ValueError):
            RunResult.from_dict(data)

    def test_refuses_an_unknown_cause(self):
        data = _payload()
        data["per_cluster_misses"][1]["by_cause"]["warp-drive"] = 1
        with pytest.raises(ValueError, match="warp-drive"):
            RunResult.from_dict(data)

    @pytest.mark.parametrize("field", ["references", "hits"])
    def test_refuses_inconsistent_derived_counts(self, field):
        data = _payload()
        data["per_cluster_misses"][0][field] += 1
        with pytest.raises(ValueError, match="inconsistent"):
            RunResult.from_dict(data)

    @pytest.mark.parametrize("edit", [
        lambda p: p.pop("misses"),
        lambda p: p["per_processor"][0].pop("sync"),
        lambda p: p["per_cluster_misses"][0].pop("by_cause"),
        lambda p: p.update(per_processor=7),
        lambda p: p.update(breakdown=[1, 2, 3, 4]),
        lambda p: p["misses"].update(by_cause=[1]),
        lambda p: p.update(network={"messages": 1}),
    ], ids=["no-misses", "no-sync", "no-causes", "int-list", "list-record",
            "list-causes", "short-network"])
    def test_refuses_a_wrong_shape(self, edit):
        data = _payload()
        edit(data)
        with pytest.raises(ValueError):
            RunResult.from_dict(data)


# ------------------------------------------------------------- encoding

def _oracle(result: RunResult) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


_INT = st.integers(0, 2 ** 62)
_MEAN = st.floats(0, 2 ** 40, allow_nan=False).filter(
    lambda x: x != int(x))  # a non-integral mean


@st.composite
def _counters(draw):
    reads, writes = draw(_INT), draw(_INT)
    return MissCounters(reads, writes, *draw(st.lists(
        _INT, min_size=6, max_size=6)), by_cause=dict(zip(
            MissCause, draw(st.lists(_INT, min_size=3, max_size=3)))))


@st.composite
def _results(draw):
    n, ncl = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    breakdown = st.builds(TimeBreakdown, _INT, _INT, _INT, _INT)
    network = st.builds(NetworkStats, _INT, _INT, _INT, _INT, _INT,
                        st.floats(0, 1.5, allow_nan=False))
    return RunResult(
        execution_time=draw(_INT),
        breakdown=draw(st.builds(TimeBreakdown, _MEAN, _MEAN, _MEAN, _MEAN)),
        per_processor=draw(st.lists(breakdown, min_size=n, max_size=n)),
        misses=draw(_counters()),
        per_cluster_misses=draw(st.lists(_counters(), min_size=ncl,
                                         max_size=ncl)),
        network=draw(st.none() | network))


class TestToJson:
    """``to_json``'s one-pass text against ``json.dumps`` of ``to_dict``,
    the canonical form it must spell byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(_results())
    def test_the_text_is_json_dumps_of_to_dict(self, result):
        text = result.to_json()
        assert text == _oracle(result)
        assert RunResult.from_json(text) == result

    @pytest.mark.parametrize("edit", [
        lambda r: setattr(r.breakdown, "cpu", float("nan")),
        lambda r: setattr(r.breakdown, "load", float("inf")),
        lambda r: setattr(r.per_processor[0], "sync", True),
        lambda r: setattr(r.per_processor[0], "cpu", np.float64(2.5)),
        lambda r: setattr(r, "execution_time", 10 ** 400),
        lambda r: r.misses.by_cause.pop(MissCause.COLD),
    ], ids=["nan", "inf", "bool", "numpy-float", "vast-int",
            "partial-causes"])
    def test_a_value_json_spells_its_own_way_is_spelled_by_json(self, edit):
        result = RunResult.from_dict(_payload())
        edit(result)
        assert result.to_json() == _oracle(result)
