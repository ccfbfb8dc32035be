"""Cross-application tests: every app must satisfy the framework contract."""

import pytest

from repro.apps.registry import (APP_NAMES, PAPER_PROBLEM_SIZES, app_class,
                                 build_app)
from repro.core.config import MachineConfig

#: tiny problem sizes so the whole matrix of checks stays fast
TINY = {
    "lu": dict(n=32, block=8),
    "fft": dict(n_points=256),
    "ocean": dict(n=16, n_vcycles=1),
    "barnes": dict(n_particles=64, n_steps=1),
    "fmm": dict(n_particles=64, levels=2, n_steps=1),
    "radix": dict(n_keys=512, radix=16, n_digits=2),
    "raytrace": dict(width=8, height=8, n_spheres=8),
    "volrend": dict(volume_side=8, width=8, height=8, block=2),
    "mp3d": dict(n_particles=64, n_steps=1),
}


def tiny_app(name, cluster=2, cache=4.0, n_processors=4, seed=12345):
    cfg = MachineConfig(n_processors=n_processors, cluster_size=cluster,
                        cache_kb_per_processor=cache)
    return build_app(name, cfg, seed=seed, **TINY[name])


class TestRegistry:
    def test_all_nine_apps_registered(self):
        assert len(APP_NAMES) == 9
        for name in APP_NAMES:
            assert app_class(name).name == name

    def test_unknown_app_helpful_error(self):
        with pytest.raises(KeyError, match="unknown application"):
            app_class("quicksort")

    def test_paper_sizes_cover_all_apps(self):
        assert set(PAPER_PROBLEM_SIZES) == set(APP_NAMES)

    def test_build_app_paper_scale_overridable(self):
        cfg = MachineConfig(n_processors=64)
        app = build_app("lu", cfg, **{**PAPER_PROBLEM_SIZES["lu"], "n": 64})
        assert app.n == 64
        assert app.block == 16  # from the paper preset


@pytest.mark.parametrize("name", APP_NAMES)
class TestContract:
    def test_runs_and_accounts_time(self, name):
        app = tiny_app(name)
        res = app.run()
        assert res.execution_time > 0
        for bd in res.per_processor:
            assert bd.total == res.execution_time
        assert res.misses.references > 0

    def test_deterministic_rerun(self, name):
        r1 = tiny_app(name).run()
        r2 = tiny_app(name).run()
        assert r1.execution_time == r2.execution_time
        assert r1.misses.references == r2.misses.references
        assert r1.misses.read_misses == r2.misses.read_misses

    def test_all_cluster_sizes_complete(self, name):
        for cluster in (1, 2, 4):
            app = tiny_app(name, cluster=cluster)
            res = app.run()
            assert res.execution_time > 0

    def test_infinite_cache_no_capacity_misses(self, name):
        from repro.core.metrics import MissCause
        app = tiny_app(name, cache=None)
        res = app.run()
        assert res.misses.by_cause[MissCause.CAPACITY] == 0

    def test_references_within_allocated_space(self, name):
        """Every emitted address must fall inside an allocated region."""
        from repro.sim.program import OP_READ, OP_WRITE
        app = tiny_app(name)
        app.ensure_setup()
        hi = max(r.end for r in app.space.regions()) + app.space.page_size
        checked = 0
        for op, arg in app.program(0):
            if op in (OP_READ, OP_WRITE):
                assert 0 <= arg < hi, f"{name} address {arg:#x} out of space"
                checked += 1
            if checked > 3000:
                break
        assert checked > 0

    def test_memory_invariants_after_run(self, name):
        from repro.memory.coherence import CoherentMemorySystem
        from repro.sim.engine import Engine
        cfg = MachineConfig(n_processors=4, cluster_size=2,
                            cache_kb_per_processor=4)
        app = build_app(name, cfg, **TINY[name])
        app.ensure_setup()
        mem = CoherentMemorySystem(cfg, app.allocator)
        Engine(cfg, mem).run(app.program)
        mem.check_invariants()

    def test_describe(self, name):
        assert name in tiny_app(name).describe()
