"""Cross-layer integration tests: snoopy-vs-shared-cache comparisons and
prefetch accounting end to end."""

import pytest

from repro.apps.registry import build_app
from repro.core.config import MachineConfig
from repro.core.metrics import MissCause
from repro.memory.coherence import CoherentMemorySystem
from repro.memory.snoopy import SnoopyClusterMemorySystem
from repro.sim.engine import Engine


def run_app_on(memory_cls, app_name, config, **kwargs):
    app = build_app(app_name, config, **kwargs)
    app.ensure_setup()
    mem = memory_cls(config, app.allocator)
    result = Engine(config, mem).run(app.program)
    return result, mem


class TestOrganisationComparison:
    @pytest.mark.parametrize("app,kwargs", [
        ("ocean", {"n": 16, "n_vcycles": 1}),
        ("radix", {"n_keys": 512, "radix": 16, "n_digits": 1}),
        ("mp3d", {"n_particles": 400, "n_steps": 1}),
    ])
    def test_both_organisations_complete(self, app, kwargs):
        cfg = MachineConfig(n_processors=8, cluster_size=4,
                            cache_kb_per_processor=4)
        shared, _ = run_app_on(CoherentMemorySystem, app, cfg, **kwargs)
        snoopy, mem = run_app_on(SnoopyClusterMemorySystem, app, cfg,
                                 **kwargs)
        assert shared.execution_time > 0
        assert snoopy.execution_time > 0
        mem.check_invariants()

    def test_shared_cache_pools_capacity(self):
        """At tiny caches, the shared cache's pooled capacity plus single
        shared copies must not lose badly to duplicated private caches on a
        read-shared workload."""
        cfg = MachineConfig(n_processors=8, cluster_size=4,
                            cache_kb_per_processor=0.5)
        kwargs = {"n_particles": 256, "n_steps": 1}
        shared, _ = run_app_on(CoherentMemorySystem, "barnes", cfg, **kwargs)
        snoopy, _ = run_app_on(SnoopyClusterMemorySystem, "barnes", cfg,
                               **kwargs)
        cap_shared = shared.misses.by_cause[MissCause.CAPACITY]
        cap_snoopy = snoopy.misses.by_cause[MissCause.CAPACITY]
        # the pooled organisation needs fewer capacity re-fetches of the
        # shared tree than 4 private caches thrashing separately
        assert cap_shared < cap_snoopy * 1.5

    def test_snoopy_c2c_happens_on_shared_data(self):
        cfg = MachineConfig(n_processors=8, cluster_size=4,
                            cache_kb_per_processor=8)
        _, mem = run_app_on(SnoopyClusterMemorySystem, "barnes", cfg,
                            n_particles=256, n_steps=1)
        assert mem.c2c_transfers > 0


class TestPrefetchAccounting:
    def test_prefetch_hits_bounded_by_hits(self):
        cfg = MachineConfig(n_processors=8, cluster_size=4,
                            cache_kb_per_processor=16)
        result, _ = run_app_on(CoherentMemorySystem, "fft", cfg,
                               n_points=1024)
        m = result.misses
        assert 0 <= m.prefetch_hits <= m.hits

    def test_prefetch_hits_reported_in_summary(self):
        from repro.sim.stats import summarize
        cfg = MachineConfig(n_processors=4, cluster_size=2,
                            cache_kb_per_processor=8)
        result, _ = run_app_on(CoherentMemorySystem, "ocean", cfg,
                               n=16, n_vcycles=1)
        assert "prefetch" in summarize(result).format()
