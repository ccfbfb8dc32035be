"""Tests for reference-trace capture and its save/load format."""

import numpy as np

from repro.apps.registry import build_app
from repro.core.config import MachineConfig
from repro.memory.coherence import CoherentMemorySystem
from repro.sim.trace import (KIND_READ, KIND_WRITE, ReferenceTrace,
                             TracingMemory)


def record_ocean():
    cfg = MachineConfig(n_processors=4, cluster_size=2,
                        cache_kb_per_processor=4.0)
    app = build_app("ocean", cfg, n=16, n_vcycles=1)
    tm = TracingMemory(CoherentMemorySystem(cfg, app.allocator))
    result = app.run(memory=tm)
    return tm, result


class TestCapture:
    def test_records_every_reference(self):
        tm, result = record_ocean()
        trace = tm.trace()
        assert len(trace) == result.misses.references

    def test_read_write_split_matches(self):
        tm, result = record_ocean()
        s = tm.trace().summary()
        assert s["reads"] == result.misses.reads
        assert s["writes"] == result.misses.writes

    def test_times_nondecreasing_per_processor(self):
        tm, _ = record_ocean()
        trace = tm.trace()
        for p in range(4):
            mask = trace.processors == p
            t = trace.times[mask]
            assert np.all(np.diff(t) >= 0)

    def test_retries_not_double_recorded(self):
        """Merged-read retries are re-issues, not new references."""
        tm, result = record_ocean()
        assert len(tm.trace()) == result.misses.references

    def test_record_accessors(self):
        tm, _ = record_ocean()
        trace = tm.trace()
        assert set(np.unique(trace.kinds)) == {KIND_READ, KIND_WRITE}
        assert trace.times.min() >= 0
        assert trace.processors.max() == 3

    def test_footprint(self):
        tm, _ = record_ocean()
        trace = tm.trace()
        assert trace.footprint_bytes() == \
            len(np.unique(trace.lines)) * 64


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        tm, _ = record_ocean()
        trace = tm.trace()
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = ReferenceTrace.load(path)
        assert len(loaded) == len(trace)
        assert np.array_equal(loaded.lines, trace.lines)
        assert np.array_equal(loaded.times, trace.times)

    def test_empty_trace_summary(self):
        t = ReferenceTrace()
        assert t.summary()["references"] == 0
