"""Golden regression tests: recorded artifacts vs fresh re-runs, by bytes.

Two layers of protection against drift from future refactors:

* the recorded artifacts under ``benchmarks/results/`` (default scale,
  minutes to regenerate — ``python tools/results.py`` does, in CI) are
  checked here for the paper's structural invariants: every baseline bar
  is 100.0 and Tables 6/7 anchor at 1.00;
* the quick fixtures under ``tests/golden/`` (seconds to regenerate) are
  **re-simulated here** and compared byte for byte.  The simulator is
  deterministic, so any difference is a real behaviour change, not noise.
  ``quick_probes.json`` pins the commands that run on a memory system the
  caller holds (``--quick table5 --measure``, ``compare``, ``trace``).

To intentionally re-record the quick fixtures after a behaviour-changing
(and justified) change, use the recipe in ``docs/EXECUTION.md``.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.analysis import (contention_slowdown, figure_from_capacity_sweep,
                            figure_from_cluster_sweep,
                            figure_from_contention_sweep,
                            figure_from_protocol_sweep, render_ascii,
                            render_protocol_comparison, render_rows,
                            render_slowdown)
from repro import cli
from repro.apps.registry import APP_NAMES, QUICK_PROBLEM_SIZES
from repro.core.config import MachineConfig
from repro.core.contention import PAPER_TABLE5, LoadLatencyProfiler
from repro.core.study import ClusteringStudy

RESULTS = Path(__file__).parent.parent / "benchmarks" / "results"
GOLDEN = Path(__file__).parent / "golden"

CFG = MachineConfig(n_processors=8)
GOLDEN_CASES = {
    "ocean": {"n": 16, "n_vcycles": 1},
    "radix": {"n_keys": 2048, "radix": 32},
    "lu": {"n": 32, "block": 8},
}

#: a ``render_rows`` bar row: [group] bar total cpu load merge sync
BAR_ROW = re.compile(r"^ *(?:\w+ +)?(\d+)p +(\d+\.\d)(?: +\d+\.\d){4}$", re.M)
#: a ``render_cost_table`` row: application, then one %.2f per cluster size
COST_ROW = re.compile(r"^ +(\w+)((?: +\d\.\d\d)+)$", re.M)


# ------------------------------------------------------ recorded artifacts


@pytest.mark.parametrize("path", sorted(RESULTS.glob("fig*.txt")),
                         ids=lambda p: p.stem)
def test_seed_artifact_invariants(path):
    """Every recorded figure obeys the paper's normalization contract:
    the 1p bar anchors its group at exactly 100.0."""
    bars = BAR_ROW.findall(path.read_text())
    baselines = [total for bar, total in bars if bar == "1"]
    assert baselines and len(bars) > len(baselines), \
        f"no bar rows in {path.name}"
    assert set(baselines) == {"100.0"}, f"{path.name} baseline is not 100"


@pytest.mark.parametrize("name", ["table6_clustered_4kb", "table7_clustered_inf"])
def test_seed_cost_tables_anchor_at_one(name):
    rows = COST_ROW.findall((RESULTS / f"{name}.txt").read_text())
    assert rows, f"no rows in {name}"
    for app, values in rows:
        assert values.split()[0] == "1.00", \
            f"{name}: {app} is not normalized to the 1-way time"


def test_seed_fig2_covers_all_nine_apps():
    recorded = {p.stem.removeprefix("fig2_") for p in RESULTS.glob("fig2_*.txt")}
    assert recorded == set(APP_NAMES)


# ------------------------------------------------------- quick-scale re-runs


def title_of(path: Path) -> str:
    return path.read_text().split("\n", 1)[0]


@pytest.mark.parametrize("app", sorted(GOLDEN_CASES))
def test_golden_cluster_sweep(app):
    """Fresh quick-scale bars are the recorded fixture, byte for byte."""
    path = GOLDEN / f"cluster_{app}.txt"
    study = ClusteringStudy(app, CFG, dict(GOLDEN_CASES[app]))
    sweep = study.cluster_sweep(None, (1, 2, 4))
    fresh = figure_from_cluster_sweep(title_of(path), sweep)
    assert render_rows(fresh) + "\n" == path.read_text()


def test_golden_capacity_sweep():
    path = GOLDEN / "capacity_ocean.txt"
    study = ClusteringStudy("ocean", CFG, dict(GOLDEN_CASES["ocean"]))
    sweep = study.capacity_sweep((1, None), (1, 2))
    fresh = figure_from_capacity_sweep(title_of(path), sweep)
    assert render_rows(fresh) + "\n" == path.read_text()


def contention_text(title: str) -> str:
    """Quick ocean's 0 / 0.6 mesh-load grid: bars, chart and slowdowns."""
    study = ClusteringStudy("ocean", CFG, dict(QUICK_PROBLEM_SIZES["ocean"]))
    sweep = study.contention_sweep((0.0, 0.6), (1, 2, 4))
    fig = figure_from_contention_sweep(title, sweep)
    return "\n".join([render_rows(fig), render_ascii(fig), render_slowdown(
        contention_slowdown(sweep), "slowdown vs zero load")]) + "\n"


def protocol_text(title: str) -> str:
    """Quick ocean's directory / snoopy / dls grid: bars, chart, table."""
    study = ClusteringStudy("ocean", CFG, dict(QUICK_PROBLEM_SIZES["ocean"]))
    sweep = study.protocol_sweep(("directory", "snoopy", "dls"), (1, 2, 4))
    fig = figure_from_protocol_sweep(title, sweep)
    return "\n".join([render_rows(fig), render_ascii(fig),
                      render_protocol_comparison(sweep)]) + "\n"


@pytest.mark.parametrize("name, render", [
    ("contention_ocean", contention_text),
    ("protocol_ocean", protocol_text),
])
def test_golden_grouped_figures(name, render):
    """The per-load and the one-global-baseline figures, byte for byte."""
    path = GOLDEN / f"{name}.txt"
    assert render(title_of(path)) == path.read_text()


PROBES = json.loads((GOLDEN / "quick_probes.json").read_text())


@pytest.mark.parametrize("app", sorted(PAPER_TABLE5))
def test_golden_table5_measured(app):
    """``--quick table5 --measure``'s factors, exactly."""
    profiler = LoadLatencyProfiler(MachineConfig(),
                                   dict(QUICK_PROBLEM_SIZES.get(app, {})))
    assert list(profiler.measure(app).factors) == \
        PROBES["table5_measure"][app]


def test_golden_compare_stdout(capsys):
    assert cli.main(["--quick", "compare", "mp3d", "--clusters", "4",
                     "--cache", "4"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        PROBES["compare_mp3d_sha256"]


def test_golden_trace_summary(capsys):
    assert cli.main(["--quick", "trace", "radix"]) == 0
    assert capsys.readouterr().out.splitlines() == PROBES["trace_radix"]


# ------------------------------------------------ multi-step N-body physics

#: every tier-1 barnes/fmm point runs one step, so no other test sees the
#: forces feed back into positions; these run two
NBODY_CASES = {"barnes": {"n_particles": 256, "n_steps": 2},
               "fmm": {"n_particles": 256, "levels": 3, "n_steps": 2}}
NBODY = json.loads((GOLDEN / "nbody_steps.json").read_text())


def nbody_digest(case: str) -> dict[str, str]:
    """``{"result": sha256 of RunResult.to_json(), "state": sha256 of the
    final pos then vel bytes}`` for a case ``"<app>/c<cluster>/<cache>"``."""
    from repro.apps.registry import build_app

    app, cluster, cache = case.split("/")
    cfg = MachineConfig(n_processors=16, cluster_size=int(cluster[1:]),
                        cache_kb_per_processor=(None if cache == "inf"
                                                else float(cache[:-2])))
    run = build_app(app, cfg, **NBODY_CASES[app])
    result = run.run()
    return {"result": hashlib.sha256(result.to_json().encode()).hexdigest(),
            "state": hashlib.sha256(run.pos.tobytes()
                                    + run.vel.tobytes()).hexdigest()}


@pytest.mark.parametrize("case", sorted(NBODY))
def test_golden_nbody_two_steps(case):
    """Barnes and FMM after two steps: step 0's forces move the bodies
    step 1 builds its tree and lists from, so one ulp of force drift
    changes these bytes."""
    assert nbody_digest(case) == NBODY[case]


# ------------------------------------------- what a capture computes, exactly

#: raytrace and mp3d capture once per trace key, and their numerics run
#: inside that drain; each case is ``"<app>/<config>"``, the quick size
#: on the default 64-processor machine and one small test configuration
CAPTURE_CASES = {
    "mp3d/quick": (MachineConfig(), QUICK_PROBLEM_SIZES["mp3d"]),
    "mp3d/small": (MachineConfig(n_processors=8),
                   {"n_particles": 500, "n_steps": 3, "collide_prob": 0.5}),
    "raytrace/quick": (MachineConfig(), QUICK_PROBLEM_SIZES["raytrace"]),
    "raytrace/small": (MachineConfig(n_processors=4),
                       {"width": 16, "height": 16, "n_spheres": 64}),
}
CAPTURED = json.loads((GOLDEN / "capture_state.json").read_text())


def _sha256(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def capture_state(case: str) -> dict:
    """What ``compiled_program()`` leaves in the app: mp3d's final
    ``pos``, ``vel`` and ``cells`` bytes, raytrace's image bytes and its
    primary-ray counts."""
    from repro.apps.registry import build_app

    config, sizes = CAPTURE_CASES[case]
    app = build_app(case.split("/")[0], config, **sizes)
    app.compiled_program()
    if app.name == "mp3d":
        return {"pos": _sha256(app.pos), "vel": _sha256(app.vel),
                "cells": _sha256(app.cells)}
    return {"image": _sha256(app.image), "rays_cast": app.rays_cast,
            "rays_hit": app.rays_hit}


@pytest.mark.parametrize("case", sorted(CAPTURE_CASES))
def test_golden_capture_state(case):
    """One ulp of drift in a particle, a cell accumulator or a pixel
    changes these bytes, whether or not it reaches the stored words."""
    assert capture_state(case) == CAPTURED[case]
