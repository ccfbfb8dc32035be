"""CLI smoke tests (tiny problem sizes via monkeypatched quick presets)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli

from test_native_properties import needs_kernel

TINY = {
    "lu": dict(n=32, block=8),
    "fft": dict(n_points=256),
    "ocean": dict(n=16, n_vcycles=1),
    "barnes": dict(n_particles=64, n_steps=1),
    "fmm": dict(n_particles=64, levels=2, n_steps=1),
    "radix": dict(n_keys=512, radix=16, n_digits=1),
    "raytrace": dict(width=8, height=8, n_spheres=8),
    "volrend": dict(volume_side=8, width=8, height=8, block=2),
    "mp3d": dict(n_particles=64, n_steps=1),
}


@pytest.fixture(autouse=True)
def tiny_quick(monkeypatch):
    monkeypatch.setattr(cli, "QUICK_PROBLEM_SIZES", TINY)


def run_cli(*argv):
    return cli.main(list(argv))


BASE = ["--processors", "8", "--quick"]


class TestRun:
    def test_run_prints_summary(self, capsys):
        assert run_cli(*BASE, "run", "ocean", "--clusters", "2",
                       "--cache", "4") == 0
        out = capsys.readouterr().out
        assert "execution time" in out
        assert "miss rate" in out

    def test_run_infinite_cache(self, capsys):
        assert run_cli(*BASE, "run", "radix") == 0
        assert "execution time" in capsys.readouterr().out

    def test_run_timing_probe_prints_phases(self, capsys):
        assert run_cli(*BASE, "run", "ocean", "--clusters", "2",
                       "--cache", "4", "--probe", "timing",
                       "--no-cache") == 0
        out = capsys.readouterr().out
        assert "execution time" in out          # normal summary intact
        assert "probe: timing" in out
        for phase in ("resolve", "build", "execute", "total"):
            assert phase in out

    def test_cold_tile_queue_point_is_captured_then_replayed(self, capsys):
        """A cold raytrace point reports ``capture`` (with its task
        count), then ``execute`` on a replay kernel — the phases of a
        static app, where it used to be one recording run."""
        import re

        assert run_cli(*BASE, "run", "raytrace", "--clusters", "2",
                       "--cache", "4", "--probe", "timing",
                       "--no-cache") == 0
        probe = capsys.readouterr().out.split("probe: timing")[1]
        phases = re.findall(r"^  (\S+) +[\d.]+ ms", probe, re.M)
        assert phases == ["resolve", "build", "capture", "execute", "total"]
        # an 8x8 image in 4x4 tiles
        assert re.search(r"capture .* ops=\d+ source_ops=\d+ tasks=4$",
                         probe, re.M)
        assert re.search(r"execute .* kernel=(native|python)", probe)
        assert "recorded=True" not in probe

    def test_run_probe_identical_result(self, capsys):
        assert run_cli(*BASE, "run", "ocean", "--clusters", "2",
                       "--cache", "4", "--no-cache") == 0
        plain = capsys.readouterr().out
        assert run_cli(*BASE, "run", "ocean", "--clusters", "2",
                       "--cache", "4", "--probe", "timing",
                       "--no-cache") == 0
        probed = capsys.readouterr().out
        # the probe adds lines after the summary but never changes it
        # (first line carries wall-clock time, so compare from line 2)
        plain_summary = plain.split("\n", 1)[1]
        assert plain_summary in probed

    def test_run_timing_probe_skips_the_result_cache(self, capsys):
        # a cache hit would time nothing, so the probe's executor has none
        assert run_cli(*BASE, "run", "lu", "--probe", "timing") == 0
        assert "[result cache:" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["run", "lu", "--probe", "timing"],
                                         ["compare", "lu"]])
    def test_a_failing_point_exits_1(self, command, capsys, monkeypatch):
        monkeypatch.setattr(cli, "QUICK_PROBLEM_SIZES",
                            {"lu": dict(n=33, block=8)})
        assert run_cli(*BASE, *command) == 1
        assert "1 sweep point(s) failed" in capsys.readouterr().err


class TestFigures:
    def test_fig2_subset(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2",
                       "fig2", "--apps", "radix") == 0
        out = capsys.readouterr().out
        assert "Figure 2 (radix)" in out
        assert "100.0" in out

    def test_fig3(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2", "fig3") == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_fig3_is_a_smaller_problem_than_fig2_ocean(self, monkeypatch):
        """Figure 3 halves the tier's Ocean grid at every tier — `--quick
        fig3` used to run the very grid `--quick fig2 --apps ocean` runs."""
        from repro.cli import figures

        refs = []
        render = figures.figure_from_cluster_sweep

        def spy(title, sweep):
            refs.append(sweep[1].result.misses.references)
            return render(title, sweep)

        monkeypatch.setattr(figures, "figure_from_cluster_sweep", spy)
        assert run_cli(*BASE, "--cluster-sizes", "1,2", "fig3") == 0
        assert run_cli(*BASE, "--cluster-sizes", "1,2",
                       "fig2", "--apps", "ocean") == 0
        fig3_refs, fig2_refs = refs
        assert 0 < fig3_refs < fig2_refs

    def test_fig3_default_grid_is_oceans_default(self):
        """``fig3`` sizes the default tier's half grid from the paper's
        ocean ``n`` without building the app, so the two must agree."""
        import inspect

        from repro.apps.ocean import OceanApp
        from repro.apps.registry import PAPER_PROBLEM_SIZES

        default = inspect.signature(OceanApp).parameters["n"].default
        assert default == PAPER_PROBLEM_SIZES["ocean"]["n"]

    def test_fig4_capacity(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2",
                       "--cache-sizes", "1,inf", "fig4") == 0
        out = capsys.readouterr().out
        assert "raytrace" in out
        assert "inf" in out

    def test_ascii_rendering(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2", "--ascii",
                       "fig2", "--apps", "radix") == 0
        assert "#" in capsys.readouterr().out


class TestTables:
    def test_table1(self, capsys):
        assert run_cli("table1") == 0
        assert "150" in capsys.readouterr().out

    def test_table4(self, capsys):
        assert run_cli("table4") == 0
        assert "0.125" in capsys.readouterr().out

    def test_table5_paper_only(self, capsys):
        assert run_cli("table5") == 0
        assert "1.055" in capsys.readouterr().out

    def test_table6(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2", "table6") == 0
        out = capsys.readouterr().out
        assert "barnes" in out and "mp3d" in out
        # ... then the paper's rows side by side, for the sizes it has
        block = out.split("Paper vs measured\n")[1].splitlines()
        assert block[0].split() == ["row", "1-way", "2-way"]
        assert block[2].split() == ["barnes", "paper", "1.00", "0.99"]
        assert block[3].split()[:2] == ["measured", "1.00"]
        assert len(block) == 2 + 2 * 4

    def test_table7(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2", "table7") == 0
        out = capsys.readouterr().out
        assert "ocean" in out and "lu" in out


class TestAnalysis:
    def test_workingset(self, capsys):
        assert run_cli(*BASE, "--cache-sizes", "1,inf",
                       "workingset", "fmm") == 0
        out = capsys.readouterr().out
        assert "miss rate" in out and "knee" in out
        # the overlap line: capacity misses, largest vs smallest cluster
        last = out.splitlines()[-1]
        assert last.startswith(
            "capacity misses at 8-way / 1-way (per-proc 1 KB): ")
        assert 0.0 <= float(last.rsplit(" ", 1)[1]) <= 1.5

    def test_ablation_associativity(self, capsys):
        assert run_cli(*BASE, "ablation", "associativity") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("Ablation: associativity")
        assert lines[1].split() == ["app", "assoc", "T(1p)", "T(8p)", "8p/1p"]
        rows = [ln.split() for ln in lines[2:]]
        assert [(r[0], r[1]) for r in rows] == [
            (app, assoc) for app in ("barnes", "ocean", "lu")
            for assoc in ("1-way", "4-way", "full")]
        for _, _, t1, t8, ratio in rows:
            t1, t8 = (int(t.replace(",", "")) for t in (t1, t8))
            assert float(ratio) == pytest.approx(t8 / t1, abs=5e-4)

    def test_merge_anatomy(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2",
                       "merge", "radix") == 0
        assert "load+merge" in capsys.readouterr().out


class TestParser:
    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("run", "notanapp")

    def test_command_required(self):
        with pytest.raises(SystemExit):
            run_cli()

    @pytest.mark.parametrize("argv", [
        ["--jobs", "0", "run", "ocean"],
        ["--jobs", "-2", "run", "ocean"],
        ["--timeout", "0", "run", "ocean"],
        ["--timeout", "-1.5", "run", "ocean"],
        ["--processors", "0", "run", "ocean"],
        ["--cluster-sizes", "0,2", "fig2"],
        ["--cluster-sizes", "-1", "fig2"],
        ["--cluster-sizes", "", "fig2"],
        ["--cache-sizes", "0,inf", "fig4"],
        ["--cache-sizes", "-4", "fig4"],
        ["run", "ocean", "--clusters", "0"],
        ["run", "ocean", "--cache", "0"],
        ["run", "ocean", "--cache", "-16"],
        ["run", "ocean", "--cache", "huge"],
        ["run", "lu", "--cache", "nan"],
        ["run", "lu", "--cache", "infinity"],
        ["--cache-sizes", "4,nan", "fig4"],
    ], ids=["jobs-zero", "jobs-negative", "timeout-zero",
            "timeout-negative", "processors-zero", "cluster-sizes-zero",
            "cluster-sizes-negative", "cluster-sizes-empty",
            "cache-sizes-zero", "cache-sizes-negative", "clusters-zero",
            "cache-zero", "cache-negative", "cache-garbage", "cache-nan",
            "cache-infinity", "cache-sizes-nan"])
    def test_nonpositive_resources_rejected(self, argv, capsys):
        """Bad sweep sizes and resources die with a one-line parser error
        (exit code 2), not a traceback from deep inside the executor."""
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_unknown_app_exit_code_is_2(self, capsys):
        for argv in (["run", "notanapp"],
                     ["fig2", "--apps", "notanapp"],
                     ["workingset", "notanapp"]):
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv)
            assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--quick", "--paper-scale", "run", "lu"],
        ["--paper-scale", "run", "lu", "--quick"],
    ], ids=["before", "split"])
    def test_contradictory_tiers_exit_2(self, argv, capsys):
        """``--quick --paper-scale`` used to run paper scale silently."""
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert "mutually exclusive" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["--timeout", "5", "fig2", "--apps", "ocean"],
        ["fig2", "--apps", "ocean", "--timeout", "5"],
        ["--jobs", "1", "fig2", "--apps", "ocean", "--timeout", "5"],
    ], ids=["before", "after", "jobs-one"])
    def test_timeout_without_a_pool_exits_2(self, argv, capsys):
        """A point running in-process cannot be abandoned: ``--timeout``
        without ``--jobs N`` used to be accepted and ignored."""
        assert run_cli(*BASE, *argv) == 2
        captured = capsys.readouterr()
        assert "--jobs N" in captured.err and captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_timeout_with_a_pool_is_accepted(self):
        args = cli.build_parser().parse_args(
            ["--jobs", "2", "fig2", "--apps", "ocean", "--timeout", "5"])
        assert cli._ignored_flag(args) is None

    @pytest.mark.parametrize("argv", [
        ["--quick", "scaling", "lu"],
        ["scaling", "lu", "--quick"],
        ["--paper-scale", "scaling", "raytrace"],
        ["scaling", "raytrace", "--paper-scale"],
    ], ids=["quick-before", "quick-after", "paper-before", "paper-after"])
    def test_tier_flags_on_scaling_exit_2(self, argv, capsys):
        """``--paper-scale scaling raytrace`` used to run the quick tier:
        ``scaling`` sizes its problems with ``--tier`` only."""
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert "--tier" in captured.err and captured.out == ""
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("argv, flag", [
        (["--ascii", "table6"], "--ascii"),
        (["--ascii", "workingset", "lu"], "--ascii"),
        (["fig2", "--apps", "lu", "--cache-sizes", "4"], "--cache-sizes"),
        (["--cache-sizes", "4,inf", "network"], "--cache-sizes"),
        (["--cluster-sizes", "1,2", "run", "lu"], "--cluster-sizes"),
        (["--cluster-sizes", "1,2", "table5"], "--cluster-sizes"),
        (["scaling", "lu", "--cluster-sizes", "1,2"], "--cluster-sizes"),
        (["--ascii", "--cluster-sizes", "1,2", "network"], None),
        (["--cache-sizes", "4,inf", "workingset", "lu"], None),
        (["--cache-sizes", "4,inf", "fig6"], None),
        (["--cluster-sizes", "1,2", "table7"], None),
        (["--cluster-sizes", "1,2,4,8", "run", "lu"], None),
        (["--jobs", "2", "run", "lu"], "--jobs"),
        (["--jobs", "2", "run", "lu", "--timeout", "5"], "--jobs"),
        (["--timeout", "5", "run", "lu"], "--timeout"),
        (["compare", "lu", "--jobs", "2"], "--jobs"),
        (["--jobs", "2", "trace", "lu"], "--jobs"),
        (["--jobs", "2", "table1"], "--jobs"),
        (["--jobs", "2", "table4"], "--jobs"),
        (["--jobs", "2", "table5", "--measure"], "--jobs"),
        (["--jobs", "2", "--timeout", "5", "serve"], "--timeout"),
        (["--jobs", "1", "run", "lu"], None),
        (["--jobs", "2", "serve"], None),
        (["--jobs", "2", "--timeout", "5", "scaling", "lu"], None),
        (["--jobs", "2", "--timeout", "5", "table6"], None),
    ])
    def test_unread_sweep_shape_flags_exit_2(self, argv, flag, capsys):
        """``--quick --ascii table6`` used to print no chart and exit 0,
        ``--cache-sizes 4 fig2`` to run infinite caches silently, and
        ``--jobs 2 --timeout 5 run`` to evaluate its one point in-process
        without a deadline: a non-default flag is refused where nothing
        reads it (repeating a default value is harmless)."""
        argv = ["--processors", "8", *argv]
        problem = cli._ignored_flag(cli.build_parser().parse_args(argv))
        if flag is None:
            assert problem is None
            return
        assert problem.startswith(f"{flag} changes nothing for")
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("argv, words", [
        *[(["--cluster-sizes", "1,3", *cmd], "--cluster-sizes 3 does not")
          for cmd in (["fig2", "--apps", "lu"], ["fig3"], ["fig4"], ["fig5"],
                      ["fig6"], ["fig7"], ["fig8"], ["table6"], ["table7"],
                      ["workingset", "lu"], ["ablation", "associativity"],
                      ["network"], ["merge", "lu"], ["study"])],
        *[([*cmd, "--clusters", "3"], "--clusters 3 does not divide")
          for cmd in (["run", "lu"], ["compare", "lu"], ["trace", "lu"],
                      ["workingset", "lu"])],
        *[(["--cluster-sizes", "2,4", *cmd], "must include 1")
          for cmd in (["fig2", "--apps", "lu"], ["fig3"], ["fig4"], ["fig5"],
                      ["fig6"], ["fig7"], ["fig8"], ["network"], ["study"])],
        (["--processors", "6", "fig2", "--apps", "lu"],
         "--cluster-sizes 4 does not divide --processors 6"),
    ])
    def test_unusable_grid_exits_2(self, argv, words, capsys):
        """``fig2 --cluster-sizes 1,3`` used to die in a traceback (or,
        with ``--no-cache``, exit 1 after simulating), ``run lu --clusters
        3`` in a traceback, and ``fig2 --cluster-sizes 2,4`` to simulate
        the grid before failing to find the 1p bar: a grid no machine can
        run, or a figure without its baseline, is refused up front."""
        argv = ["--quick", *argv]
        problem = cli._ignored_flag(cli.build_parser().parse_args(argv))
        assert problem is not None and words in problem
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert words in captured.err and captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_scaling_checks_clusters_against_its_counts(self, capsys):
        assert cli._ignored_flag(cli.build_parser().parse_args(
            ["--processors", "6", "scaling", "lu", "--clusters", "4"])) \
            is None
        assert run_cli("scaling", "lu", "--clusters", "3",
                       "--counts", "8,16") == 2
        assert "does not divide" in capsys.readouterr().err

    def test_scaling_with_no_app_studies_raytrace(self, capsys):
        """The documented default APP runs (Python 3.11's argparse used to
        check the list default against ``choices`` and exit 2); a name
        that is no app is still a one-line usage error."""
        assert run_cli("--no-cache", "scaling", "--counts", "4,8",
                       "--clusters", "2") == 0
        assert capsys.readouterr().out.startswith("# raytrace: ")
        with pytest.raises(SystemExit) as exc:
            run_cli("scaling", "lu", "nosuchapp")
        assert exc.value.code == 2
        assert "invalid choice: 'nosuchapp'" in capsys.readouterr().err

    def test_bad_network_load_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*BASE, "network", "ocean", "--loads", "0,1.5")
        assert exc.value.code == 2


class TestNetwork:
    def test_network_smoke(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2",
                       "network", "ocean", "--loads", "0,0.6") == 0
        out = capsys.readouterr().out
        assert "calibration check" in out
        assert "load 0.6" in out
        assert "peak util" in out

    def test_network_defaults_to_ocean(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2",
                       "network", "--loads", "0,0.3") == 0
        assert "ocean" in capsys.readouterr().out


class TestCompareAndTrace:
    def test_compare_organizations(self, capsys):
        assert run_cli(*BASE, "compare", "ocean", "--clusters", "2",
                       "--cache", "4") == 0
        out = capsys.readouterr().out
        assert "shared-cache cluster" in out
        assert "snoopy" in out
        assert "cache-to-cache transfers" in out

    def test_compare_repeat_reads_the_result_cache(self, capsys, tmp_path):
        argv = (*BASE, "--cache-dir", str(tmp_path), "compare", "lu")
        assert run_cli(*argv) == 0
        first = capsys.readouterr()
        assert "[result cache: 0 hits, 1 misses" in first.err
        assert run_cli(*argv) == 0
        second = capsys.readouterr()
        assert "[result cache: 1 hits, 0 misses" in second.err
        assert second.out == first.out

    def test_trace_stats(self, capsys):
        assert run_cli(*BASE, "trace", "radix") == 0
        out = capsys.readouterr().out
        assert "references" in out and "footprint" in out

    def test_trace_save(self, capsys, tmp_path):
        out_file = tmp_path / "t.npz"
        assert run_cli(*BASE, "trace", "radix", "--output",
                       str(out_file)) == 0
        assert out_file.exists()
        from repro.sim.trace import ReferenceTrace
        assert len(ReferenceTrace.load(out_file)) > 0

    def test_trace_save_prints_the_path_written(self, capsys, tmp_path):
        """numpy appends ``.npz`` to a bare path; the CLI names that file."""
        assert run_cli(*BASE, "trace", "radix", "--output",
                       str(tmp_path / "t")) == 0
        saved = capsys.readouterr().out.splitlines()[-1]
        assert saved == f"saved to {tmp_path / 't.npz'}"
        assert (tmp_path / "t.npz").exists()

    def test_compare_refuses_snoopy_against_itself(self, capsys):
        assert run_cli(*BASE, "--protocol", "snoopy", "compare",
                       "ocean") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "snoopy with itself" in captured.err


class TestCapacityFigureCommands:
    def test_fig5_mp3d(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2",
                       "--cache-sizes", "1,inf", "fig5") == 0
        assert "mp3d" in capsys.readouterr().out

    def test_fig8_volrend(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2",
                       "--cache-sizes", "1,inf", "fig8") == 0
        assert "volrend" in capsys.readouterr().out


class TestForkServer:
    def test_fork_server_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*BASE, "--jobs", "2", "--fork-server", "--no-cache",
                    "--cluster-sizes", "1,2", "fig2", "--apps", "radix")
        assert exc.value.code == 2
        assert ("unrecognized arguments: --fork-server"
                in capsys.readouterr().err)


def test_jobs_teardown_is_silent(tmp_path):
    """A --jobs run joins its pool before the interpreter finalizes.

    Left to race interpreter exit, the pool's teardown printed
    ``Exception ignored in: <module 'threading' …> OSError: [Errno 9] Bad
    file descriptor`` on roughly two cold runs in five; only a child
    process shows it, since the noise comes at interpreter exit.
    """
    env = os.environ.copy()
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    for run in range(6):
        env["REPRO_CACHE_DIR"] = str(tmp_path / f"cold-{run}")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--jobs", "2", "--quick",
             "fig2", "--apps", "lu"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "4 misses" in proc.stderr  # cold: every point ran in the pool
        assert "Exception ignored" not in proc.stderr


def test_batch_flag_is_unrecognised(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*BASE, "--batch", "fig2", "--apps", "fft")
    assert exc.value.code == 2
    assert "unrecognized arguments: --batch" in capsys.readouterr().err


def test_bench_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*BASE, "bench")
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestProtocolFlag:
    def test_run_with_each_protocol(self, capsys):
        times = {}
        for proto in ("directory", "snoopy", "dls"):
            assert run_cli(*BASE, "--protocol", proto, "run", "fft",
                           "--clusters", "2") == 0
            out = capsys.readouterr().out
            times[proto] = out
        # dls pays mandatory remote traffic, so its summary must differ
        assert times["dls"] != times["directory"]

    def test_trace_records_under_the_selected_protocol(self, capsys):
        durations = {}
        for proto in ("directory", "dls"):
            assert run_cli(*BASE, "--protocol", proto, "trace", "fft",
                           "--clusters", "2") == 0
            out = capsys.readouterr().out
            durations[proto] = next(line for line in out.splitlines()
                                    if "duration" in line)
        assert durations["dls"] != durations["directory"]

    def test_default_protocol_output_is_unchanged(self, capsys):
        # spelling out the default must be byte-identical to omitting it
        assert run_cli(*BASE, "run", "fft", "--clusters", "2") == 0
        implicit = capsys.readouterr().out
        assert run_cli(*BASE, "--protocol", "directory", "run", "fft",
                       "--clusters", "2") == 0
        assert capsys.readouterr().out == implicit

    def test_unknown_protocol_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*BASE, "--protocol", "mesiv2", "run", "fft")
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @needs_kernel
    @pytest.mark.parametrize("proto", ["snoopy", "dls"])
    def test_forced_native_runs_every_protocol_natively(self, proto, capsys,
                                                        monkeypatch):
        """``--native`` has no protocol left to refuse: the point runs,
        on the C kernel, and prints what the python replay prints."""
        # the flags write REPRO_NATIVE; have the teardown put it back
        monkeypatch.setenv("REPRO_NATIVE", "")
        argv = (*BASE, "--protocol", proto, "run", "fft", "--clusters", "2",
                "--probe", "timing")
        assert run_cli("--native", *argv) == 0
        forced = capsys.readouterr().out
        assert "kernel=native" in forced and "declined=" not in forced
        assert run_cli("--no-native", *argv) == 0
        python = capsys.readouterr().out
        assert "kernel=python declined=native-off-or-unavailable" in python

        def summary(out):  # between the timed header and the timed probe
            return out.split("# probe")[0].splitlines()[1:]

        assert summary(forced) == summary(python) != []


class TestStudyCommand:
    def test_study_prints_figure_and_table(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2", "study", "fft") == 0
        out = capsys.readouterr().out
        assert "Cross-protocol comparison: fft" in out
        for proto in ("directory", "snoopy", "dls"):
            assert proto in out
        assert "vs directory" in out

    def test_study_subset_always_keeps_directory_baseline(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2", "study", "fft",
                       "--protocols", "dls") == 0
        out = capsys.readouterr().out
        assert "dls" in out and "directory" in out
        assert "snoopy" not in out

    def test_study_honours_global_protocol_focus(self, capsys):
        assert run_cli(*BASE, "--protocol", "dls", "--cluster-sizes", "1,2",
                       "study", "fft", "--protocols", "snoopy") == 0
        out = capsys.readouterr().out
        assert "dls" in out and "snoopy" in out and "directory" in out

    def test_study_rejects_unknown_protocol_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*BASE, "study", "fft", "--protocols", "mesiv2")
        assert exc.value.code == 2
        assert "mesiv2" in capsys.readouterr().err

    def test_study_served_matches_local(self, capsys, serve_daemon):
        assert run_cli(*BASE, "--cluster-sizes", "1,2", "study", "fft",
                       "--protocols", "directory,dls") == 0
        local = capsys.readouterr().out
        assert run_cli(*BASE, "--cluster-sizes", "1,2", "study", "fft",
                       "--protocols", "directory,dls", "--server",
                       f"127.0.0.1:{serve_daemon.port}") == 0
        served = capsys.readouterr().out
        # the last line carries wall-clock time ([N.Ns]), and the served
        # run adds a /resolve round trip, so compare every line above it
        assert served.splitlines()[:-1] == local.splitlines()[:-1] != []
        assert served.splitlines()[-1].startswith("[")

    def test_study_server_refuses_another_machine(self, capsys,
                                                  serve_daemon):
        assert run_cli("--processors", "16", "--quick", "--cluster-sizes",
                       "1,2", "study", "fft", "--protocols", "directory",
                       "--server", f"127.0.0.1:{serve_daemon.port}") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n_processors: daemon 8, here 16" in captured.err

    def test_study_bad_server_spec_exits_2(self, capsys):
        assert run_cli(*BASE, "study", "fft", "--server", "nowhere") == 2
        assert "--server" in capsys.readouterr().err


#: what a result-cache hit must not import: the simulator, the trace
#: layer, the C kernel's driver, the daemon, the cost model, the process
#: pool and every application
HIT_PATH_FORBIDDEN = ("numpy", "repro.sim.engine", "repro.sim.compiled",
                      "repro.memory", "repro.native", "repro.service",
                      "repro.core.contention", "concurrent.futures.process")
SHOW_MODULES = ("import json, sys\n"
                "from repro import cli\n"
                "rc = cli.main(sys.argv[1:])\n"
                "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
                "raise SystemExit(rc)\n")


@pytest.mark.parametrize("argv", [
    ["fig2", "--apps", "lu"],
    ["--cache-sizes", "4,inf", "fig4"],
    ["fig3"],
], ids=["fig2", "fig4", "fig3"])
def test_cache_hit_imports_no_simulator(argv, tmp_path):
    """A figure served from the result cache imports only what it runs.

    Fill the cache with one CLI run, then repeat the command in a fresh
    interpreter: every point hits, stdout is the same figure, and
    neither numpy nor the simulator was ever imported.
    """
    import json

    env = os.environ.copy()
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    argv = ["--processors", "8", "--quick", "--cluster-sizes", "1,2", *argv]
    fill = subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert fill.returncode == 0, fill.stderr
    hit = subprocess.run([sys.executable, "-c", SHOW_MODULES, *argv],
                         capture_output=True, text=True, env=env)
    assert hit.returncode == 0, hit.stderr
    assert "hits, 0 misses" in hit.stderr

    def figure(stdout):
        return [line for line in stdout.splitlines()
                if not line.startswith("[")]

    assert figure(hit.stdout) == figure(fill.stdout)
    loaded = [m for m in json.loads(hit.stderr.splitlines()[-1])
              if m.split(".")[0] == "numpy"
              or m.startswith(HIT_PATH_FORBIDDEN)
              or (m.startswith("repro.apps.") and m != "repro.apps.registry")]
    assert loaded == []
