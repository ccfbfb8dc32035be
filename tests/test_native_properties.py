"""Property suite for the native C replay kernel.

Generates random (deadlock-free) parallel programs, compiles them, and
requires the C kernel to reproduce the canonical python replay
(``execute_program(..., compiled=True)``) byte-for-byte — the same pin
the nine real applications carry, but over adversarial op streams:
degenerate phases, empty processors, lock convoys, tiny caches that
evict constantly.  Agreement covers the RunResult JSON *and* the full
memory-system end state (slot maps in dict order, free lists, histories,
counters, allocator placement), so a kernel that computed the right
numbers by a different path still fails.

Every test that needs the compiled kernel skips cleanly when no C
compiler is available (or the kernel is disabled in the environment);
the selection-semantics tests run everywhere, compiler or not.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.native as native
from repro.core.config import MachineConfig
from repro.memory.coherence import CoherentMemorySystem
from repro.runtime import RunRequest, RunSession
from repro.sim.compiled import TraceCache, clear_memory_cache, compile_program
from repro.sim.engine import SimulationDeadlock, execute_program
from repro.sim.nativereplay import (native_fusible, replay_native,
                                    try_replay_native)
from repro.sim.program import Barrier, Lock, Read, Unlock, Work, Write

from test_runtime import CFG, TINY, golden_payload

try:
    _LIB = native.kernel()  # auto mode: None when no compiler/artifact
except RuntimeError:  # forced on but unbuildable — treat as unavailable
    _LIB = None

needs_kernel = pytest.mark.skipif(
    _LIB is None, reason="native kernel unavailable (no C compiler)")

# ------------------------------------------------------------ generators
#
# A generated program is a phase table: ``table[pid][phase]`` is a list of
# atoms, and every processor ends every phase with the same barrier, so
# any table is deadlock-free by construction.  Atoms are private work,
# shared reads/writes over a small address window (to force sharing and
# invalidation traffic), or a lock-protected critical section (locks are
# always released by the acquirer, in order).

_ADDR = st.integers(min_value=0, max_value=1023)
_BASIC = st.one_of(
    st.tuples(st.just("work"), st.integers(min_value=0, max_value=20)),
    st.tuples(st.just("read"), _ADDR),
    st.tuples(st.just("write"), _ADDR),
)
_ATOM = st.one_of(
    _BASIC,
    st.tuples(st.just("cs"), st.integers(min_value=0, max_value=2),
              st.lists(_BASIC, max_size=4)),
)


@st.composite
def _programs(draw):
    n = draw(st.sampled_from([2, 4]))
    phases = draw(st.integers(min_value=1, max_value=3))
    table = [[draw(st.lists(_ATOM, max_size=10)) for _ in range(phases)]
             for _ in range(n)]
    return n, phases, table


def _factory_of(phases, table):
    def emit(atom):
        kind, arg = atom[0], atom[1]
        if kind == "work":
            yield Work(arg)
        elif kind == "read":
            yield Read(arg)
        elif kind == "write":
            yield Write(arg)
        else:  # critical section
            yield Lock(arg)
            for basic in atom[2]:
                yield from emit(basic)
            yield Unlock(arg)

    def factory(pid):
        for phase in range(phases):
            for atom in table[pid][phase]:
                yield from emit(atom)
            yield Barrier(phase)

    return factory


def _config(n, cluster, cache_kb):
    return MachineConfig(n_processors=n, cluster_size=cluster,
                         cache_kb_per_processor=cache_kb)


_CACHES = st.sampled_from([None, 0.0625, 0.25])  # infinite / 4 / 16 lines


@pytest.fixture
def force_native():
    """Force native selection for the test, restoring the env after."""
    prev = os.environ.get("REPRO_NATIVE")
    native.set_native(True)
    yield
    if prev is None:
        os.environ.pop("REPRO_NATIVE", None)
    else:
        os.environ["REPRO_NATIVE"] = prev


def _snapshot(memory):
    """The complete observable end state of a memory system.

    Includes iteration order everywhere order is observable (dict
    insertion order of slot maps and histories, free-list order), so the
    native writeback must leave the objects *indistinguishable* from the
    python replay's, not merely equal as sets.
    """
    alloc = memory.allocator
    return {
        "dtable": list(memory._dtable.items()),
        "dir": (memory.directory.invalidations_sent,
                memory.directory.replacement_hints,
                memory.directory.writebacks),
        "caches": [
            (list(c.slot_of.items()), list(c.free), c.inserts, c.evictions,
             len(c.state),
             [(c.state[s], c.pending[s], c.fetcher[s], c.tag[s])
              for s in c.slot_of.values()])
            for c in memory.caches],
        "histories": [list(h.items()) for h in memory._history],
        "counters": [(ctr.reads, ctr.writes, ctr.read_misses,
                      ctr.write_misses, ctr.upgrade_misses, ctr.merges,
                      ctr.merge_refetches, ctr.prefetch_hits,
                      dict(ctr.by_cause))
                     for ctr in memory.counters],
        "alloc": (list(alloc._page_home.items()), alloc._rr_next,
                  alloc.first_touch_pages),
    }


# ------------------------------------------------ native == canonical

@needs_kernel
@settings(max_examples=60, deadline=None)
@given(data=_programs(), cluster_pick=st.integers(min_value=0, max_value=2),
       cache_kb=_CACHES)
def test_native_matches_python_kernels(data, cluster_pick, cache_kb):
    n, phases, table = data
    cluster = [1, 2, n][cluster_pick]
    config = _config(n, cluster, cache_kb)
    program = compile_program(_factory_of(phases, table), n,
                              config.line_size)

    mem_python = CoherentMemorySystem(config)
    reference = execute_program(config, mem_python, program, compiled=True)

    mem_native = CoherentMemorySystem(config)
    assert native_fusible(mem_native)
    got = replay_native(config, mem_native, program, lib=_LIB)

    assert got.to_json() == reference.to_json()
    assert _snapshot(mem_native) == _snapshot(mem_python)


# ------------------------------------------------ error-path parity

@needs_kernel
def test_deadlock_message_matches_canonical(force_native):
    def factory(pid):
        if pid == 0:
            yield Barrier(0)
        else:
            yield Work(1)

    config = _config(2, 1, None)
    program = compile_program(factory, 2, config.line_size)
    with pytest.raises(SimulationDeadlock) as ref:
        execute_program(config, CoherentMemorySystem(config), program,
                        compiled=True)
    with pytest.raises(SimulationDeadlock) as got:
        replay_native(config, CoherentMemorySystem(config), program,
                      lib=_LIB)
    assert str(got.value) == str(ref.value)


@needs_kernel
@pytest.mark.parametrize("factory,exc", [
    (lambda pid: iter([Unlock(0)]), RuntimeError),          # bad release
    (lambda pid: iter([Lock(0), Lock(0)]), RuntimeError),   # re-acquire
])
def test_lock_errors_match_canonical(factory, exc):
    config = _config(2, 1, None)
    program = compile_program(factory, 2, config.line_size)
    with pytest.raises(exc) as ref:
        execute_program(config, CoherentMemorySystem(config), program,
                        compiled=True)
    with pytest.raises(exc) as got:
        replay_native(config, CoherentMemorySystem(config), program,
                      lib=_LIB)
    assert str(got.value) == str(ref.value)


# ------------------------------------------- runtime golden, native on

@needs_kernel
class TestGoldenNative:
    def test_runtime_golden_with_native_forced(self, force_native):
        """The 18-point pre-refactor golden grid, served by the C kernel."""
        golden = golden_payload()
        clear_memory_cache()
        session = RunSession(base_config=CFG, trace_cache=TraceCache())
        for app, kw in TINY.items():
            for c in (1, 2):
                result = session.run(RunRequest.make(app, c, 4.0, kw))
                assert result.to_json() == golden[f"{app}/c{c}/4k"], \
                    f"{app}/c{c}: native kernel diverged from golden"

    def test_per_point_seam_serves_eligible_points(self, force_native):
        from repro.apps.registry import build_app

        request = RunRequest.make("ocean", 2, 4.0, TINY["ocean"])
        config = request.config_for(CFG)
        app = build_app("ocean", config, **TINY["ocean"])
        program = app.compiled_program()
        fresh = build_app("ocean", config, **TINY["ocean"])
        result = try_replay_native(config, fresh, program)
        assert result is not None
        # canonical reference: the same app-owned allocator (setup has
        # already placed pages), driven by the python engine
        reference = build_app("ocean", config, **TINY["ocean"]).run(
            program=program)
        assert result.to_json() == reference.to_json()


# ------------------------------------------------ selection semantics
# (no compiler required: these pin the escape hatch and the fallback)

class TestSelection:
    def test_env_off_forces_python(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert native.enabled_mode() == "off"
        assert native.kernel() is None
        assert not native.selected()
        assert native.kernel_name() == "python"

    def test_set_native_round_trip(self):
        prev = os.environ.get("REPRO_NATIVE")
        try:
            native.set_native(True)
            assert os.environ["REPRO_NATIVE"] == "1"
            assert native.enabled_mode() == "on"
            native.set_native(False)
            assert os.environ["REPRO_NATIVE"] == "0"
            assert native.enabled_mode() == "off"
            native.set_native(None)
            assert "REPRO_NATIVE" not in os.environ
            assert native.enabled_mode() == "auto"
        finally:
            if prev is None:
                os.environ.pop("REPRO_NATIVE", None)
            else:
                os.environ["REPRO_NATIVE"] = prev

    def test_masked_compiler_means_unavailable(self, monkeypatch, tmp_path):
        """The CI no-compiler job's mechanism: REPRO_NATIVE_CC to nowhere."""
        monkeypatch.setenv("REPRO_NATIVE_CC", str(tmp_path / "no-such-cc"))
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        assert not native.available()
        assert native.kernel() is None  # auto mode degrades silently
        assert native.kernel_name() == "python"
        assert native.status()["kernel"] == "python"

    def test_forced_on_without_a_kernel_raises(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE_CC", str(tmp_path / "no-such-cc"))
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_NATIVE", "1")
        with pytest.raises(RuntimeError, match="REPRO_NATIVE=1"):
            native.kernel()

    def test_status_shape(self):
        status = native.status()
        assert set(status) == {"mode", "available", "loaded", "build_error",
                               "compiler", "abi", "kernel"}
        assert status["mode"] in ("on", "off", "auto")
        assert status["kernel"] in ("native", "python")
        assert status["abi"] == native.ABI_VERSION
