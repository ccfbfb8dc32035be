"""Smoke test of the benchmark itself (not collected by tier-1).

``python -m pytest benchmarks/e2e -q`` runs every workload once, short
(``--smoke``: one pass, LU at n=128), plain and traced, and checks that
what ``BENCHMARK.json`` promises is what ``run.py`` prints.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def result_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--traced",
         "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    # one run per workload: keep that run's two result lines
    workloads = {
        name: {section: lines[0] for section, lines in entry.items()}
        for name, entry in json.loads(out.read_text())["workloads"].items()}
    return workloads, out


def test_spec_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in SPEC[section]:
            names.append(metric["name"])
            assert metric["unit"], metric
            assert metric["better"] in ("lower", "higher"), metric
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_every_workload_reports_every_metric(result_set):
    workloads, _ = result_set
    assert list(workloads) == [w["name"] for w in SPEC["workloads"]]
    for name, entry in workloads.items():
        for section in ("end_to_end", "per_layer"):
            line = entry[section]
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] and line["failed"] == 0, (name, section)
            assert line["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            assert {k: v["unit"] for k, v in line["metrics"].items()} \
                == expected, (name, section)
        for metric, value in entry["end_to_end"]["metrics"].items():
            assert value["value"] > 0, (name, metric)


def test_every_layer_metric_is_measured_somewhere(result_set):
    workloads, _ = result_set
    for metric in SPEC["per_layer"]:
        if metric["name"] == "service.errors":
            continue  # an error counter that is not 0 fails the run
        assert any(entry["per_layer"]["metrics"][metric["name"]]["value"]
                   for entry in workloads.values()), metric["name"]


def test_mirror_property(result_set):
    workloads, _ = result_set

    def layer(workload, metric):
        return workloads[workload]["per_layer"]["metrics"][metric]["value"]

    assert layer("sweep36_native", "native.accept_ratio") == 1.0
    assert layer("lu512_paper", "native.accept_ratio") == 1.0
    assert layer("sweep18_fallback", "native.accept_ratio") == 0.0
    assert layer("cli_fig2_cold", "apps.captures") == 18
    assert layer("cli_fig2_cached", "core.resultcache.hits") == 36
    for warm in ("cli_fig2_cached", "sweep36_native", "sweep18_fallback",
                 "lu512_paper"):
        assert layer(warm, "apps.captures") == 0


def test_a_result_set_agrees_with_itself(result_set):
    _, out = result_set
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--agree", str(out),
         str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout
    assert "0 disagreement(s)" in proc.stdout


def test_exits_nonzero_without_the_package(tmp_path):
    """In a directory holding only the benchmark there is nothing to run."""
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for path in HERE.glob("*.*"):
        if path.is_file():
            (bare / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "sweep36_native", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
