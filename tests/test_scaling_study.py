"""The §4 pushout study: tiers, pipeline routing, shapes, CLI.

``test_export_scaling.py`` pins the long-standing public surface
(curves, ``effective_processors``, ``pushout``).  This file covers what
the study layer added on top: tier presets for every application,
routing through a SweepExecutor (trace-cache sharing between the
clustered and unclustered curves, result-cache memoization, ``--jobs``), ``scaling_study`` /
``compare_shapes``, the rendered figures, and the ``scaling``
subcommand's exit-code contract.
"""

import json

import pytest

from repro.analysis.figures import render_scaling, render_shape_comparison
from repro.apps.registry import APP_NAMES
from repro.cli import main
from repro.core.executor import SweepExecutor
from repro.core.resultcache import ResultCache
from repro.core.scaling import (MEDIUM_PROBLEM_SIZES, SCALING_TIERS,
                                compare_shapes, pushout, scaling_curve,
                                scaling_problem, scaling_processor_counts,
                                scaling_study)
from repro.sim.compiled import clear_memory_cache

TINY = {"n": 32, "block": 8}
COUNTS = (4, 8)


class TestTierPresets:
    @pytest.mark.parametrize("tier", SCALING_TIERS)
    @pytest.mark.parametrize("app", APP_NAMES)
    def test_every_app_has_every_tier(self, app, tier):
        problem = scaling_problem(app, tier)
        assert isinstance(problem, dict) and problem

    def test_medium_sits_between_quick_and_paper(self):
        # spot-check the headline scale parameter of two grid apps
        from repro.apps.registry import (PAPER_PROBLEM_SIZES,
                                         QUICK_PROBLEM_SIZES)
        for app, key in (("lu", "n"), ("ocean", "n"), ("fft", "n_points")):
            assert QUICK_PROBLEM_SIZES[app][key] \
                <= MEDIUM_PROBLEM_SIZES[app][key] \
                <= PAPER_PROBLEM_SIZES[app][key]

    def test_processor_count_grids(self):
        for tier in SCALING_TIERS:
            counts = scaling_processor_counts(tier)
            assert counts == tuple(sorted(counts))
            assert all(c % 8 == 0 for c in counts)
        assert max(scaling_processor_counts("paper")) \
            > max(scaling_processor_counts("quick"))

    def test_unknown_tier_and_app_raise(self):
        with pytest.raises(ValueError, match="tier"):
            scaling_problem("lu", "enormous")
        with pytest.raises(ValueError, match="application"):
            scaling_problem("linpack", "quick")
        with pytest.raises(ValueError, match="tier"):
            scaling_processor_counts("enormous")

    def test_problem_copies_are_independent(self):
        scaling_problem("lu")["n"] = 7
        assert scaling_problem("lu")["n"] != 7


class TestPipelineRouting:
    def test_curves_share_the_trace_cache(self):
        """Both pushout curves replay one capture per processor count."""
        clear_memory_cache()
        executor = SweepExecutor()
        pushout("lu", COUNTS, 2, None, TINY, executor=executor)
        cache = executor.trace_cache
        # 2 counts x 2 curves = 4 lookups; the clustered curve's two are
        # hits because lu's trace key is cluster-size-independent
        assert cache.misses == len(COUNTS)
        assert cache.memory_hits == len(COUNTS)
        clear_memory_cache()

    def test_result_cache_memoizes_points(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache)
        first = scaling_curve("lu", COUNTS, 1, app_kwargs=TINY,
                              executor=executor)
        again = scaling_curve("lu", COUNTS, 1, app_kwargs=TINY,
                              executor=executor)
        assert [p.execution_time for p in first.points] \
            == [p.execution_time for p in again.points]
        assert cache.hits == len(COUNTS)

    def test_seed_changes_the_problem_not_the_api(self):
        a = scaling_curve("lu", COUNTS, 1, app_kwargs=TINY)
        b = scaling_curve("lu", COUNTS, 1, app_kwargs={**TINY, "seed": 99})
        assert [p.n_processors for p in a.points] \
            == [p.n_processors for p in b.points]


class TestStudyAndShapes:
    def test_study_structure(self):
        study = scaling_study("lu", "quick", cluster_size=2,
                              processor_counts=COUNTS)
        for key in ("app", "cluster_size", "processor_counts",
                    "speedups_unclustered", "speedups_clustered",
                    "effective_unclustered", "effective_clustered",
                    "tier", "problem", "cache_kb", "marginal_threshold"):
            assert key in study
        assert study["tier"] == "quick"
        assert study["processor_counts"] == sorted(COUNTS)

    def test_raytrace_quick_pushout(self):
        """The paper's claim holds at quick scale: clustering pushes the
        effective processor count out (strictly, for raytrace at 4 KB)."""
        study = scaling_study("raytrace", "quick", cluster_size=4,
                              cache_kb=4.0)
        assert study["effective_clustered"] > study["effective_unclustered"]

    def test_compare_shapes_identity_and_disjoint(self):
        speedups = {8: 1.0, 16: 1.8, 32: 2.5}
        cmp = compare_shapes(speedups, speedups)
        assert cmp["max_divergence"] == 0.0
        assert cmp["processor_counts"] == [8, 16, 32]
        with pytest.raises(ValueError):
            compare_shapes({8: 1.0}, {16: 1.0})

    def test_compare_shapes_normalises_magnitude_away(self):
        a = {8: 1.0, 16: 2.0}
        b = {8: 10.0, 16: 20.0}  # same shape, 10x the magnitude
        assert compare_shapes(a, b)["max_divergence"] == 0.0

    def test_render_scaling_and_shapes(self):
        study = scaling_study("lu", "quick", cluster_size=2,
                              processor_counts=COUNTS)
        text = render_scaling(study)
        assert "lu" in text and "pushout" in text
        for count in COUNTS:
            assert f"\n{count:>6}" in text
        cmp = compare_shapes(study["speedups_clustered"],
                             study["speedups_unclustered"])
        rendered = render_shape_comparison(cmp, "clustered", "flat")
        assert "max shape divergence" in rendered


class TestScalingCLI:
    def test_exit_code_matches_pushout_verdict(self, tmp_path, capsys):
        figure = tmp_path / "fig.txt"
        out = tmp_path / "study.json"
        rc = main(["scaling", "lu", "--counts", "4,8", "--clusters", "2",
                   "--no-cache", "--figure", str(figure),
                   "--json", str(out)])
        study = scaling_study("lu", "quick", cluster_size=2,
                              processor_counts=(4, 8))
        expect = 0 if study["effective_clustered"] \
            >= study["effective_unclustered"] else 1
        assert rc == expect
        assert "pushout" in figure.read_text(encoding="utf-8")
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload[0]["app"] == "lu"
        assert payload[0]["speedups_clustered"] \
            == {str(k): v for k, v in study["speedups_clustered"].items()}

    def test_protocol_flag_reaches_every_point(self, tmp_path, capsys):
        argv = ["scaling", "lu", "--counts", "4,8", "--clusters", "2",
                "--no-cache", "--json"]
        speedups = {}
        for proto in ("directory", "dls"):
            out = tmp_path / f"{proto}.json"
            assert main(["--protocol", proto, *argv, str(out)]) in (0, 1)
            payload = json.loads(out.read_text(encoding="utf-8"))
            speedups[proto] = (payload[0]["speedups_unclustered"],
                               payload[0]["speedups_clustered"])
        assert speedups["dls"] != speedups["directory"]
        study = scaling_study("lu", "quick", cluster_size=2,
                              processor_counts=(4, 8), protocol="dls")
        assert speedups["dls"][1] \
            == {str(k): v for k, v in study["speedups_clustered"].items()}

    def test_jobs_and_result_cache_reproduce_the_serial_output(self, capsys):
        argv = ["scaling", "lu", "--counts", "8,16"]
        assert main(["--no-cache", *argv]) == 0
        serial = capsys.readouterr().out
        assert main(["--jobs", "2", *argv]) == 0
        assert capsys.readouterr().out == serial
        assert main(argv) == 0
        cached = capsys.readouterr()
        assert cached.out == serial
        assert "4 hits, 0 misses" in cached.err

    def test_global_tier_flags_exit_2_and_tier_still_selects(self, capsys):
        """``--quick``/``--paper-scale`` never reached ``scaling`` (it has
        ``--tier``); they are refused, not ignored."""
        argv = ["scaling", "lu", "--counts", "4,8", "--clusters", "2",
                "--no-cache"]
        for flag in ("--quick", "--paper-scale"):
            assert main([flag, *argv]) == 2
            captured = capsys.readouterr()
            assert "--tier" in captured.err and captured.out == ""
        assert main([*argv, "--tier", "quick"]) in (0, 1)
        assert "lu" in capsys.readouterr().out

    def test_indivisible_counts_exit_2(self, capsys):
        rc = main(["scaling", "lu", "--counts", "4,10", "--no-cache"])
        assert rc == 2
        assert "does not divide" in capsys.readouterr().err

    def test_compare_tier_writes_shape_section(self, tmp_path, capsys):
        figure = tmp_path / "fig.txt"
        rc = main(["scaling", "lu", "--counts", "4,8", "--clusters", "2",
                   "--compare-tier", "quick", "--no-cache",
                   "--figure", str(figure)])
        assert rc in (0, 1)
        text = figure.read_text(encoding="utf-8")
        assert "max shape divergence: 0.000" in text  # same tier twice
