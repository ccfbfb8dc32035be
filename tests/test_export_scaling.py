"""Tests for the §4 processor-scaling study."""

import pytest

from repro.core.scaling import (ScalingCurve, ScalingPoint,
                                effective_processors, pushout)


class TestScalingCurve:
    def test_speedups_anchored_at_smallest(self):
        c = ScalingCurve("x", 1, [ScalingPoint(4, 1000),
                                  ScalingPoint(8, 600),
                                  ScalingPoint(16, 500)])
        s = c.speedups()
        assert s[4] == 1.0
        assert s[8] == pytest.approx(1000 / 600)

    def test_effective_processors_rollover(self):
        # 4->8 gives 1.67x (effective), 8->16 gives 1.09x (not)
        c = ScalingCurve("x", 1, [ScalingPoint(4, 1000),
                                  ScalingPoint(8, 600),
                                  ScalingPoint(16, 550)])
        assert effective_processors(c, marginal_threshold=1.15) == 8

    def test_effective_processors_all_effective(self):
        c = ScalingCurve("x", 1, [ScalingPoint(4, 1000),
                                  ScalingPoint(8, 500),
                                  ScalingPoint(16, 250)])
        assert effective_processors(c) == 16

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            effective_processors(ScalingCurve("x", 1))

    def test_cluster_size_must_divide(self):
        with pytest.raises(ValueError):
            pushout("ocean", [4, 6], cluster_size=4,
                    app_kwargs={"n": 16, "n_vcycles": 1})


class TestScalingMeasured:
    def test_ocean_scales_then_rolls_over(self):
        """Fixed small Ocean problem: more processors help early, then
        communication/sync rolls the curve over — the §4 setting."""
        result = pushout("ocean", [4, 16], cluster_size=2,
                         app_kwargs={"n": 32, "n_vcycles": 1})
        s = result["speedups_unclustered"]
        assert s[16] > 1.2  # parallelism still pays at this size

    def test_pushout_structure(self):
        result = pushout("ocean", [4, 8, 16], cluster_size=4,
                         app_kwargs={"n": 16, "n_vcycles": 1})
        assert set(result["speedups_unclustered"]) == {4, 8, 16}
        assert result["effective_clustered"] in (4, 8, 16)
        assert result["effective_unclustered"] in (4, 8, 16)

    def test_clustering_pushes_out_ocean(self):
        """The paper's §4 claim on its own example: the clustered machine
        keeps scaling at least as far as the unclustered one."""
        result = pushout("ocean", [8, 16, 32], cluster_size=4,
                         app_kwargs={"n": 32, "n_vcycles": 1},
                         marginal_threshold=1.10)
        assert result["effective_clustered"] >= \
            result["effective_unclustered"]
