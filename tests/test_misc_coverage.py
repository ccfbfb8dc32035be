"""Coverage for remaining corners: registry presets, engine write cost
under a load latency, snoopy upgrade paths, summaries."""

import numpy as np
import pytest

from repro.apps.registry import PAPER_PROBLEM_SIZES, build_app
from repro.core.config import MachineConfig
from repro.memory.cache import EXCLUSIVE, SHARED
from repro.memory.coherence import CoherentMemorySystem
from repro.memory.snoopy import SnoopyClusterMemorySystem
from repro.sim.engine import PerfectMemory, run_program
from repro.sim.program import Write
from repro.sim.stats import summarize


class TestRegistryPresets:
    def test_paper_sizes_match_table2(self):
        assert PAPER_PROBLEM_SIZES["barnes"]["n_particles"] == 8192
        assert PAPER_PROBLEM_SIZES["fft"]["n_points"] == 65536
        assert PAPER_PROBLEM_SIZES["lu"]["n"] == 512
        assert PAPER_PROBLEM_SIZES["lu"]["block"] == 16
        assert PAPER_PROBLEM_SIZES["mp3d"]["n_particles"] == 50000
        assert PAPER_PROBLEM_SIZES["radix"]["n_keys"] == 262144
        assert PAPER_PROBLEM_SIZES["radix"]["radix"] == 256
        assert PAPER_PROBLEM_SIZES["ocean"]["n"] == 128

    def test_paper_scale_constructs(self):
        """Paper-scale apps must at least construct and set up."""
        cfg = MachineConfig(n_processors=64)
        app = build_app("lu", cfg, **PAPER_PROBLEM_SIZES["lu"])
        assert app.n == 512
        app = build_app("fft", cfg, **PAPER_PROBLEM_SIZES["fft"])
        assert app.n_points == 65536


class TestEngineHitCostWithRealMemory:
    def test_write_cost_fixed(self):
        """A load latency stalls reads only: writes cost 1 on the coherent
        memory and on a 3-cycle perfect one alike."""
        cfg = MachineConfig(n_processors=1)

        def prog(pid):
            return iter([Write(0)] * 5)

        t1 = run_program(cfg, prog).execution_time
        t3 = run_program(cfg, prog,
                         memory=PerfectMemory(load_cycles=3)).execution_time
        assert t1 == t3 == 5


class TestSnoopyUpgrades:
    def test_upgrade_counted_not_missed(self):
        cfg = MachineConfig(n_processors=4, cluster_size=2,
                            cache_kb_per_processor=4)
        mem = SnoopyClusterMemorySystem(cfg)
        mem.read(0, 0, now=0)
        mem.write(0, 0, now=200)
        assert mem.counters[0].upgrade_misses == 1
        assert mem.counters[0].write_misses == 0
        assert mem.caches[0].state_of(0) == EXCLUSIVE

    def test_write_hit_on_exclusive(self):
        cfg = MachineConfig(n_processors=4, cluster_size=2,
                            cache_kb_per_processor=4)
        mem = SnoopyClusterMemorySystem(cfg)
        mem.write(0, 0, now=0)
        mem.write(0, 0, now=200)
        assert mem.counters[0].hits == 1

    def test_c2c_after_upgrade_then_read(self):
        cfg = MachineConfig(n_processors=4, cluster_size=2,
                            cache_kb_per_processor=4)
        mem = SnoopyClusterMemorySystem(cfg)
        mem.write(0, 0, now=0)      # p0 exclusive
        mem.read(1, 0, now=200)     # mate snoops: c2c + downgrade
        assert mem.c2c_transfers == 1
        assert mem.caches[0].state_of(0) == SHARED


class TestSummaries:
    def test_summary_counts_consistent(self):
        cfg = MachineConfig(n_processors=4, cluster_size=2,
                            cache_kb_per_processor=4)
        app = build_app("radix", cfg, n_keys=512, radix=16, n_digits=1)
        result = app.run()
        s = summarize(result)
        assert s.references == result.misses.references
        assert s.cold_misses + s.coherence_misses + s.capacity_misses == \
            result.misses.misses
        assert 0.0 <= s.miss_rate <= 1.0
        text = s.format()
        assert "execution time" in text and "cpu" in text


class TestSeedVariation:
    @pytest.mark.parametrize("seed", [1, 7, 99])
    def test_different_seeds_still_correct(self, seed):
        cfg = MachineConfig(n_processors=4, cluster_size=2,
                            cache_kb_per_processor=8)
        app = build_app("fft", cfg, n_points=256, seed=seed)
        app.run()
        assert np.allclose(app.result(), app.reference(), atol=1e-8)

    def test_seed_changes_timing(self):
        cfg = MachineConfig(n_processors=4, cluster_size=2,
                            cache_kb_per_processor=2)
        times = set()
        for seed in (1, 2, 3):
            app = build_app("mp3d", cfg, n_particles=200, n_steps=1,
                            seed=seed)
            times.add(app.run().execution_time)
        assert len(times) > 1  # inputs differ, so timing differs
