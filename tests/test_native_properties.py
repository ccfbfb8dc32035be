"""Property suite for the native C replay kernel.

Generates random (deadlock-free) parallel programs, compiles them, and
requires the C kernel to reproduce the canonical python replay
(``execute_program(..., compiled=True)``) byte-for-byte — the same pin
the nine real applications carry, but over adversarial op streams:
degenerate phases, empty processors, lock convoys, tiny caches that
evict constantly.  Agreement covers the RunResult JSON *and* every other
number the kernel returns (per-cluster evictions/inserts, the three
directory counters, first-touch pages), read from the python side's
memory system, so a kernel that replaced the wrong victim or pruned the
directory differently fails even where the miss counts happen to agree.

Every test that needs the compiled kernel skips cleanly when no C
compiler is available (or the kernel is disabled in the environment);
the selection-semantics tests run everywhere, compiler or not.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.native as native
from repro.apps import registry
from repro.apps.base import Application
from repro.core.config import MachineConfig
from repro.memory.allocation import PageAllocator
from repro.memory.coherence import CoherentMemorySystem
from repro.native import build
from repro.native.driver import run_native
from repro.runtime import RunRequest, RunSession
from repro.sim.compiled import TraceCache, clear_memory_cache, compile_program
from repro.sim.engine import SimulationDeadlock, execute_program
from repro.sim.nativereplay import native_decline_reason, try_replay_native
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


def _allocator(config):
    return PageAllocator(config.n_clusters, config.page_size,
                         config.line_size)


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

    memory = CoherentMemorySystem(config)
    reference = execute_program(config, memory, program, compiled=True)

    assert native_decline_reason(config) is None
    allocator = _allocator(config)
    out = run_native(_LIB, config, allocator, program)

    assert allocator.pages_bound == 0  # read, never written
    assert out.execution_time == reference.execution_time
    assert out.breakdowns == reference.per_processor
    assert out.counters == reference.per_cluster_misses
    assert [c.to_dict() for c in out.counters] == \
        [c.to_dict() for c in reference.per_cluster_misses]  # key order too
    assert out.evictions == [c.evictions for c in memory.caches]
    assert out.inserts == [c.inserts for c in memory.caches]
    directory = memory.directory
    assert (out.invalidations_sent, out.replacement_hints,
            out.writebacks) == (directory.invalidations_sent,
                                directory.replacement_hints,
                                directory.writebacks)
    assert out.first_touch_pages == memory.allocator.first_touch_pages


@needs_kernel
def test_driver_outputs_do_not_grow_with_capacity():
    """Nothing capacity-sized crosses the C boundary: 4 KB == 1500 KB."""
    def factory(pid):
        for line in range(200):
            yield Read(64 * (pid * 200 + line))
        yield Barrier(0)

    shapes = []
    for cache_kb in (4.0, 1500.0):
        config = _config(4, 2, cache_kb)
        program = compile_program(factory, 4, config.line_size)
        out = run_native(_LIB, config, _allocator(config), program)
        shapes.append([len(field) if isinstance(field, list) else 1
                       for field in out])
    assert shapes[0] == shapes[1] == [1, 4, 2, 2, 2, 1, 1, 1, 1]


# ------------------------------------------------ error-path parity
#
# A kernel fault makes the native path decline, so a native-selected
# session must raise exactly what a python-selected one does — from the
# python replay, the one home of these errors.

class _ScriptedApp(Application):
    """A registry app whose per-processor streams a test supplies."""

    name = "scripted"
    factory = None

    def setup(self):
        pass

    def program(self, pid):
        return type(self).factory(pid)


def _session_error(monkeypatch, factory, use_native):
    monkeypatch.setitem(registry._CLASSES, "scripted", _ScriptedApp)
    monkeypatch.setattr(_ScriptedApp, "factory", staticmethod(factory))
    native.set_native(use_native)
    session = RunSession(base_config=_config(2, 1, None))
    with pytest.raises(Exception) as caught:
        session.run(RunRequest.make("scripted", 1, None))
    return caught.value


@needs_kernel
def test_deadlock_message_matches_canonical(force_native, monkeypatch):
    def factory(pid):
        if pid == 0:
            yield Barrier(0)
        else:
            yield Work(1)

    got = _session_error(monkeypatch, factory, True)
    ref = _session_error(monkeypatch, factory, False)
    assert type(got) is type(ref) is SimulationDeadlock
    assert str(got) == str(ref)


@needs_kernel
@pytest.mark.parametrize("factory,exc", [
    (lambda pid: iter([Unlock(0)]), RuntimeError),          # bad release
    (lambda pid: iter([Lock(0), Lock(0)]), RuntimeError),   # re-acquire
])
def test_lock_errors_match_canonical(factory, exc, force_native, monkeypatch):
    got = _session_error(monkeypatch, factory, True)
    ref = _session_error(monkeypatch, factory, False)
    assert type(got) is type(ref) is exc
    assert str(got) == str(ref)


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


# -------------------------------------------------- artifact recovery

@needs_kernel
class TestStaleArtifact:
    """A cached artifact that will not load is rebuilt once, not kept."""

    @pytest.fixture
    def artifact(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        return build.artifact_path()

    def test_truncated_artifact_is_rebuilt(self, artifact):
        artifact.write_bytes(b"\x7fELF...")
        assert native.kernel() is not None
        assert native.build_error() is None
        assert artifact.stat().st_size > 1000

    def test_wrong_abi_artifact_is_rebuilt(self, artifact, tmp_path):
        import subprocess

        stale = tmp_path / "stale.c"
        stale.write_text(build.source_path().read_text().replace(
            f"#define ABI {build.ABI_VERSION}", "#define ABI 1"))
        subprocess.run([build.find_compiler(), "-shared", "-fPIC", "-o",
                        str(artifact), str(stale)], check=True)
        assert build.load().repro_abi() == build.ABI_VERSION

    def test_unloadable_fresh_artifact_raises(self, artifact, monkeypatch):
        artifact.write_bytes(b"junk")
        monkeypatch.setattr(
            build, "build", lambda force=False: artifact)  # rebuild no-ops
        with pytest.raises(build.BuildError, match="cannot load"):
            build.load()


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

    def test_status_reports_python_after_a_load_failure(self, monkeypatch):
        """A recorded failure means python runs, whatever compiler exists."""
        monkeypatch.delenv("REPRO_NATIVE", raising=False)

        def broken():
            raise native.BuildError("file too short")

        monkeypatch.setattr(native._build, "load", broken)
        # forget any earlier load; teardown puts all three back
        for name in ("_lib", "_lib_err", "_lib_key"):
            monkeypatch.setattr(native, name, None)
        assert native.kernel() is None
        status = native.status()
        assert status["build_error"] == "file too short"
        assert status["kernel"] == "python"

    def test_status_shape(self):
        status = native.status()
        assert set(status) == {"mode", "available", "loaded", "build_error",
                               "compiler", "abi", "kernel"}
        assert status["mode"] in ("on", "off", "auto")
        assert status["kernel"] in ("native", "python")
        assert status["abi"] == native.ABI_VERSION
