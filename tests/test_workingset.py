"""Tests for working-set profiling."""

import pytest

from repro.core.config import MachineConfig
from repro.core.workingset import (WorkingSetCurve, WorkingSetPoint, knee_of,
                                   overlap_benefit, working_set_curve)

CFG = MachineConfig(n_processors=8)


@pytest.fixture(scope="module")
def fmm_curve():
    return working_set_curve(
        "fmm", sizes_kb=(0.5, 4, None), cluster_size=1, base_config=CFG,
        app_kwargs={"n_particles": 256, "levels": 3, "n_steps": 1})


class TestCurve:
    def test_points_in_order(self, fmm_curve):
        assert [p.cache_kb for p in fmm_curve.points] == [0.5, 4, None]

    def test_miss_rate_monotone_nonincreasing(self, fmm_curve):
        rates = [p.miss_rate for p in fmm_curve.points]
        assert rates[0] >= rates[1] >= rates[2]

    def test_infinite_point_has_no_capacity_misses(self, fmm_curve):
        assert fmm_curve.infinite_point().capacity_misses == 0

    def test_rows_labels(self, fmm_curve):
        labels = [r[0] for r in fmm_curve.rows()]
        assert labels == ["0.5KB", "4KB", "inf"]


class TestKnee:
    def _curve(self, rates):
        c = WorkingSetCurve("x", 1)
        sizes = [1, 4, 16, None]
        for kb, r in zip(sizes, rates):
            c.points.append(WorkingSetPoint(kb, r, 0, 100))
        return c

    def test_knee_found(self):
        c = self._curve([0.5, 0.3, 0.102, 0.10])
        assert knee_of(c) == 16

    def test_knee_at_smallest(self):
        c = self._curve([0.10, 0.10, 0.10, 0.10])
        assert knee_of(c) == 1

    def test_knee_beyond_probes(self):
        c = self._curve([0.5, 0.4, 0.3, 0.1])
        assert knee_of(c) is None

    def test_requires_infinite_anchor(self):
        c = WorkingSetCurve("x", 1)
        c.points.append(WorkingSetPoint(4, 0.1, 0, 1))
        with pytest.raises(ValueError):
            knee_of(c)


class TestOverlap:
    def test_read_shared_app_overlaps(self):
        """Barnes' shared tree: clustering should cut capacity misses."""
        ratios = overlap_benefit(
            "barnes", cache_kb=1.0, cluster_sizes=(1, 4),
            base_config=CFG,
            app_kwargs={"n_particles": 256, "n_steps": 1})
        assert ratios[1] == pytest.approx(1.0)
        assert ratios[4] < 1.0
