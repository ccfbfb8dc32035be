"""The engine/sweep benchmark harness behind ``repro-clustering bench``."""

import json

import pytest

from repro.core.bench import (AppBenchResult, bench_engine, bench_sweep,
                              check_floor, write_report, SCHEMA_VERSION)
from repro.core.config import MachineConfig

TINY_LU = {"n": 32, "block": 8}
TINY_RAYTRACE = {"width": 8, "height": 8, "n_spheres": 8}
CFG = MachineConfig(n_processors=8, cluster_size=2,
                    cache_kb_per_processor=4.0)


def result_with(app="lu", source_ops=1000, replay_s=0.01, **over):
    fields = dict(app=app, n_processors=8, cluster_size=2,
                  source_ops=source_ops, stored_ops=source_ops,
                  generator_s=0.05, replay_s=replay_s,
                  capture_s=0.01)
    fields.update(over)
    return AppBenchResult(**fields)


class TestBenchEngine:
    def test_invariant_app_measures_all_paths(self):
        r = bench_engine("lu", CFG, app_kwargs=TINY_LU)
        assert r.app == "lu" and r.n_processors == 8
        assert r.source_ops > 0
        assert r.stored_ops <= r.source_ops  # WORK fusion only shrinks
        for t in (r.generator_s, r.replay_s, r.capture_s):
            assert t > 0
        assert r.replay_ops_per_s > 0 and r.replay_speedup > 0

    def test_dynamic_app_captures_via_recording(self):
        r = bench_engine("raytrace", CFG, app_kwargs=TINY_RAYTRACE)
        assert r.source_ops > 0 and r.replay_s > 0

    def test_repeats_keep_fastest(self):
        r = bench_engine("lu", CFG, app_kwargs=TINY_LU, repeats=2)
        assert r.replay_s > 0


class TestBenchSweep:
    def test_modes_identical_and_timed(self):
        sweep = bench_sweep(["lu"], MachineConfig(n_processors=8),
                            cluster_sizes=(1, 2), cache_kb=4.0,
                            kwargs_of={"lu": TINY_LU})
        assert sweep.identical
        assert sweep.n_points == 2
        for t in (sweep.generator_s, sweep.cold_s, sweep.warm_s):
            assert t > 0
        assert sweep.cold_speedup > 0 and sweep.warm_speedup > 0


class TestReport:
    def test_write_report_layout(self, tmp_path):
        out = tmp_path / "sub" / "BENCH_engine.json"  # parent auto-created
        payload = write_report(out, [result_with()], config=CFG,
                               extra={"note": "unit"})
        on_disk = json.loads(out.read_text())
        assert on_disk == json.loads(json.dumps(payload))
        assert on_disk["schema"] == SCHEMA_VERSION
        assert on_disk["engine"]["lu"]["replay_speedup"] == 5.0
        assert on_disk["config"]["n_processors"] == 8
        assert on_disk["note"] == "unit"


class TestFloor:
    def test_pass_and_fail(self):
        # 1000 ops / 0.01 s = 100k ops/s measured
        results = [result_with()]
        assert check_floor(results, {"lu": 100_000.0}) == []
        failures = check_floor(results, {"lu": 200_000.0})
        assert len(failures) == 1 and "lu" in failures[0]

    def test_tolerance_widens_the_floor(self):
        results = [result_with()]  # 100k measured
        assert check_floor(results, {"lu": 120_000.0}, tolerance=0.30) == []
        assert check_floor(results, {"lu": 120_000.0}, tolerance=0.0) != []

    def test_unknown_apps_ignored(self):
        assert check_floor([result_with()], {"fft": 1e12}) == []

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            check_floor([], {}, tolerance=1.5)


class TestBenchMemory:
    def test_streams_and_throughput(self):
        from repro.core.bench import bench_memory

        results = bench_memory(n_ops=5_000, repeats=1)
        assert [r.stream for r in results] == ["hit", "capacity", "sharing"]
        for r in results:
            assert r.n_ops == 5_000
            assert r.ops_per_s > 0
            assert r.to_dict()["ops_per_s"] == round(r.ops_per_s, 1)

    def test_memory_floor_keys(self):
        from repro.core.bench import MemoryBenchResult

        fast = MemoryBenchResult("hit", 1000, 0.001)     # 1M ops/s
        slow = MemoryBenchResult("sharing", 1000, 10.0)  # 100 ops/s
        floor = {"memory:hit": 1_000.0, "memory:sharing": 1_000_000.0}
        failures = check_floor([], floor, tolerance=0.1,
                               memory=[fast, slow])
        assert len(failures) == 1
        assert failures[0].startswith("memory:sharing")

    def test_report_carries_memory_and_jobs_sections(self, tmp_path):
        from repro.core.bench import JobsBenchResult, MemoryBenchResult

        payload = write_report(
            tmp_path / "b.json", [result_with()],
            memory=[MemoryBenchResult("hit", 1000, 0.001)],
            jobs=JobsBenchResult(["lu"], [1, 2], 2, 2, 1.0, 0.8))
        assert payload["memory"]["hit"]["n_ops"] == 1000
        assert payload["jobs"]["fork_speedup"] == 1.25
        on_disk = json.loads((tmp_path / "b.json").read_text())
        assert on_disk["memory"] == payload["memory"]


class TestBenchJobs:
    def test_process_vs_fork_identical(self):
        from repro.core.bench import bench_jobs

        r = bench_jobs(["lu"], CFG, cluster_sizes=(1, 2), jobs=2,
                       kwargs_of={"lu": TINY_LU})
        assert r.n_points == 2
        assert r.identical
        assert r.process_s > 0
        from repro.core.executor import fork_available
        if fork_available():
            assert r.fork_s is not None and r.fork_s > 0
            assert r.to_dict()["fork_speedup"] > 0
        else:
            assert r.fork_s is None
