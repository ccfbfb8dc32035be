"""Barnes' capture: the engine decides its tree builds, a drain the rest.

``Application.run_recorded`` runs the generators on the python engine
only through the ``timed_barriers``-th barrier (Barnes: its last tree
build's), drains the phases after it barrier-phased and replays the
capture.  The capture must be byte for byte the one a recording of the
whole engine run stores, and its replay the generators' own result, on
every protocol, network and cache geometry — 2-way caches and
``REPRO_NATIVE=0`` through the python replay, the rest through the C
kernel when it can be built.
"""

import functools

import pytest

import repro.native as native
from repro.apps.registry import build_app
from repro.core.config import MachineConfig, NetworkConfig
from repro.memory import make_memory_system
from repro.sim.compiled import ProgramRecorder
from repro.sim.engine import Engine, PerfectMemory
from repro.sim.program import Barrier, Work

MACHINES = [(protocol, provider, assoc)
            for protocol in ("directory", "snoopy", "dls")
            for provider in ("table", "mesh") for assoc in (None, 2)]


def machine(protocol="directory", provider="table", assoc=None):
    return MachineConfig(n_processors=8, cluster_size=2,
                         cache_kb_per_processor=4.0, associativity=assoc,
                         protocol=protocol,
                         network=NetworkConfig(provider=provider))


def tiny(cfg, n_steps):
    app = build_app("barnes", cfg, n_particles=64, n_steps=n_steps)
    app.ensure_setup()
    return app


@functools.cache
def reference(cfg, n_steps):
    """``(blob, result JSON)``: a recording of the whole engine run, and
    the generators' own run (the oracle)."""
    app = tiny(cfg, n_steps)
    recorder = ProgramRecorder(app.program, cfg.n_processors, cfg.line_size)
    Engine(cfg, make_memory_system(cfg, app.allocator)).run(recorder.factory)
    return (bytes(recorder.finish().buffer),
            tiny(cfg, n_steps).run().to_json())


@pytest.fixture(params=["auto", "python"])
def native_mode(request, monkeypatch):
    if request.param == "python":
        monkeypatch.setenv("REPRO_NATIVE", "0")
    else:
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
    return request.param


@pytest.mark.parametrize("protocol,provider,assoc", MACHINES)
@pytest.mark.parametrize("n_steps", [1, 2])
def test_partial_recording_is_the_whole_runs(protocol, provider, assoc,
                                             n_steps, native_mode):
    cfg = machine(protocol, provider, assoc)
    app = tiny(cfg, n_steps)
    assert app.timed_barriers == 4 * n_steps - 2
    result, program = app.run_recorded()
    blob, oracle = reference(cfg, n_steps)
    assert bytes(program.buffer) == blob
    assert result.to_json() == oracle
    # the replay that served it, and a trace hit's on a fresh instance
    kernel = ("native" if native_mode == "auto" and assoc is None
              and native.kernel() is not None else "python")
    replayed, used = tiny(cfg, n_steps).replay(program)
    assert (used, replayed.to_json()) == (kernel, oracle)


def test_no_steps_is_all_drained():
    """With no tree build nothing is timed: the engine runs no op."""
    cfg = machine()
    app = tiny(cfg, 0)
    assert app.timed_barriers == 0
    result, program = app.run_recorded()
    assert (bytes(program.buffer), result.to_json()) == reference(cfg, 0)


@pytest.mark.parametrize("n_steps", [1, 2])
def test_one_barrier_fewer_changes_the_capture(n_steps):
    """The declaration has teeth: draining the last build in processor
    order stores another tree than the engine builds."""
    cfg = machine()
    app = tiny(cfg, n_steps)
    app.timed_barriers -= 1
    assert bytes(app.run_recorded()[1].buffer) != reference(cfg, n_steps)[0]


def test_a_stream_short_of_the_timed_barrier_is_refused():
    """A generator that ends before the declared barrier stops the engine
    run: nothing it did not decide is drained."""
    app = tiny(machine(), 1)
    app.timed_barriers = 6  # one start barrier + four in the one step
    with pytest.raises(ValueError, match="ended 1 barrier.s. short of the "
                                         "6 declared timed"):
        app.run_recorded()


def test_different_withheld_barrier_ids_are_refused():
    def factory(pid):
        yield Work(1)
        yield Barrier(pid)
        yield Work(2)

    cfg = MachineConfig(n_processors=2)
    recorder = ProgramRecorder(factory, 2, cfg.line_size, 1)
    with pytest.raises(ValueError, match="before the recorded run ended"):
        recorder.finish()
    Engine(cfg, PerfectMemory()).run(recorder.factory)
    with pytest.raises(ValueError, match=r"different barrier ids \[0, 1\]"):
        recorder.finish()
    same = ProgramRecorder(lambda pid: factory(0), 2, cfg.line_size, 1)
    Engine(cfg, PerfectMemory()).run(same.factory)
    assert same.finish().source_ops == 2 * 3
