"""Compiled-trace execution: capture, fusion, serialization, equivalence.

The acceptance property of the compiled path is **bit-identity**: replaying
a captured program must produce byte-identical canonical ``RunResult`` JSON
to driving the generators, at every cluster size.  The equivalence
classes here enforce that for all nine applications.
"""

import pytest

from repro.apps.registry import APP_NAMES, build_app
from repro.core.config import MachineConfig
from repro.memory.coherence import CoherentMemorySystem
from repro.sim.compiled import (CompiledProgram, ProgramRecorder,
                                TraceDecodeError, compile_program, decode,
                                opcodes)
from repro.sim.engine import Engine
from repro.sim.program import (OP_BARRIER, OP_LOCK, OP_READ, OP_UNLOCK,
                               OP_WORK, OP_WRITE)

#: smallest problem instances that still exercise every op kind
TINY_SIZES = {
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

#: captured by a recording run, once per machine
RECORDED_APPS = ("barnes",)
#: captured once as a frame plus a task table (``TASK`` ops)
TASK_APPS = ("raytrace", "volrend")


def tiny_app(name, cfg):
    app = build_app(name, cfg, **TINY_SIZES[name])
    app.ensure_setup()
    return app


def engine_for(cfg):
    return Engine(cfg, CoherentMemorySystem(cfg))


def capture(name, cfg):
    """Capture the way the executor does: drain if invariant, else record."""
    app = tiny_app(name, cfg)
    if app.stream_invariant:
        return app.compiled_program()
    recorder = ProgramRecorder(app.program, cfg.n_processors, cfg.line_size)
    engine_for(cfg).run(recorder.factory)
    return recorder.finish()


# --------------------------------------------------------------- equivalence

@pytest.mark.parametrize("name", APP_NAMES)
@pytest.mark.parametrize("cluster", [1, 4])
def test_replay_bit_identical_all_apps(name, cluster):
    """Generator and compiled replay agree byte-for-byte."""
    cfg = MachineConfig(n_processors=16, cluster_size=cluster,
                        cache_kb_per_processor=4.0)
    app = tiny_app(name, cfg)
    jsons = {engine_for(cfg).run(app.program).to_json()}
    program = capture(name, cfg)
    tiny_app(name, cfg)  # placement parity: setup runs either way
    jsons.add(engine_for(cfg).run_compiled(program).to_json())
    assert len(jsons) == 1


@pytest.mark.parametrize("name", ["lu", "mp3d"])
def test_replay_bit_identical_infinite_cache(name):
    cfg = MachineConfig(n_processors=8, cluster_size=2)
    app = tiny_app(name, cfg)
    reference = engine_for(cfg).run(app.program).to_json()
    program = capture(name, cfg)
    assert engine_for(cfg).run_compiled(program).to_json() == reference


def test_stream_invariant_capture_reusable_across_clusters():
    """One drain of an invariant app replays correctly at other cluster sizes."""
    cfg1 = MachineConfig(n_processors=8, cluster_size=1,
                         cache_kb_per_processor=4.0)
    program = capture("lu", cfg1)
    for cluster in (2, 4):
        cfg = MachineConfig(n_processors=8, cluster_size=cluster,
                            cache_kb_per_processor=4.0)
        app = tiny_app("lu", cfg)
        want = engine_for(cfg).run(app.program).to_json()
        tiny_app("lu", cfg)
        got = engine_for(cfg).run_compiled(program).to_json()
        assert got == want


@pytest.mark.parametrize("name",
                         [n for n in APP_NAMES
                          if n not in RECORDED_APPS + TASK_APPS])
@pytest.mark.parametrize("cluster", [1, 4])
def test_capture_routes_agree(name, cluster):
    """Recording an engine run and draining the generators store the same
    bytes — what a ``stream_invariant = True`` declaration promises."""
    cfg = MachineConfig(n_processors=16, cluster_size=cluster,
                        cache_kb_per_processor=4.0)
    assert tiny_app(name, cfg).stream_invariant
    recorded = tiny_app(name, cfg).run_recorded()[1]
    drained = tiny_app(name, cfg).compiled_program()
    assert bytes(recorded.buffer) == bytes(drained.buffer)


@pytest.mark.parametrize("name", RECORDED_APPS)
def test_dynamic_apps_refuse_static_drain(name):
    cfg = MachineConfig(n_processors=8, cluster_size=2)
    app = tiny_app(name, cfg)
    assert not app.stream_invariant
    with pytest.raises(ValueError, match="run_recorded"):
        app.compiled_program()


@pytest.mark.parametrize("name", TASK_APPS)
def test_one_task_trace_serves_every_machine(name):
    """A tile-queue app is drained once, with no engine and no memory
    system, and that one trace replays byte for byte what the generators
    do — taking tiles from the python counter in whatever order the
    machine at hand grants the lock — on every organisation."""
    from repro.core.config import NetworkConfig
    from repro.memory import make_memory_system

    program = tiny_app(name, MachineConfig(n_processors=16)).compiled_program()
    for cluster, cache_kb, protocol, provider in [
            (1, None, "directory", "table"), (4, 4.0, "directory", "mesh"),
            (8, 4.0, "snoopy", "table"), (2, 16.0, "dls", "mesh")]:
        cfg = MachineConfig(n_processors=16, cluster_size=cluster,
                            cache_kb_per_processor=cache_kb,
                            protocol=protocol,
                            network=NetworkConfig(provider=provider))
        results = []
        for run in (lambda e, a: e.run(a.program),
                    lambda e, a: e.run_compiled(program)):
            app = tiny_app(name, cfg)
            engine = Engine(cfg, make_memory_system(cfg, app.allocator))
            results.append(run(engine, app).to_json())
        assert results[0] == results[1], (cluster, cache_kb, protocol)


@pytest.mark.parametrize("name", TASK_APPS)
def test_task_trace_counts_the_ops_a_run_executes(name):
    """``total_ops`` / ``source_ops`` of a task program are what one
    replay executes and what the generators yield: the numbers a
    recording run's flat capture reports, ``TASK`` dispatches not
    counted."""
    from repro.sim.program import OP_TASK

    cfg = MachineConfig(n_processors=8, cluster_size=2,
                        cache_kb_per_processor=4.0)
    recorded = tiny_app(name, cfg).run_recorded()[1]
    drained = tiny_app(name, cfg).compiled_program()
    assert not recorded.task_lens and len(drained.task_lens[0]) == 4
    assert drained.total_ops == recorded.total_ops
    assert drained.source_ops == recorded.source_ops
    for words in drained.words:
        assert list(opcodes(words)) == [OP_BARRIER, OP_LOCK, OP_READ,
                                        OP_TASK, OP_WRITE, OP_UNLOCK,
                                        OP_BARRIER]
    # one int64 word per op: 7 frame ops on each of 8 processors + the table
    assert drained.nbytes == 8 * (7 * 8 + len(drained.task_words))


def test_run_recorded_result_matches_replay():
    """``run_recorded()``'s result, a replay of its capture, is the
    generators' own run, and so is a fresh instance's replay of it —
    the whole run recorded (raytrace) or the timed barriers only
    (barnes)."""
    cfg = MachineConfig(n_processors=8, cluster_size=2,
                        cache_kb_per_processor=4.0)
    for name in ("raytrace", "barnes"):
        want = tiny_app(name, cfg).run().to_json()
        result, program = tiny_app(name, cfg).run_recorded()
        # a fresh instance replays with its own (identically placed)
        # allocator
        replayed = tiny_app(name, cfg).run(program=program)
        assert result.to_json() == replayed.to_json() == want, name


# -------------------------------------------------------------- compilation

def synthetic_factory(pid):
    yield OP_WORK, 5
    yield OP_WORK, 7
    yield OP_WORK, 3
    yield OP_READ, 200
    yield OP_WORK, 2
    yield OP_WRITE, 130
    yield OP_BARRIER, 0
    yield OP_LOCK, 1
    yield OP_UNLOCK, 1


def test_work_fusion_collapses_runs():
    program = compile_program(synthetic_factory, 2, 64)
    ops, args = zip(*decode(program.words[0]))
    assert ops == (OP_WORK, OP_READ, OP_WORK, OP_WRITE, OP_BARRIER,
                   OP_LOCK, OP_UNLOCK)
    assert args[0] == 5 + 7 + 3          # fused run
    assert args[1] == 200 // 64          # pre-divided line number
    assert args[3] == 130 // 64
    assert program.source_ops == 2 * 9   # pre-fusion count preserved


@pytest.mark.parametrize("ops,message", [
    ([(OP_LOCK, 2 ** 60)], r"LOCK 1152921504606846976: operand outside"),
    ([(OP_BARRIER, -2 ** 60 - 1)], r"BARRIER -1152921504606846977: "),
    ([(OP_READ, 2 ** 60)], r"READ 1152921504606846976: "),  # line size 1
    # a fused WORK run whose total, not any one op, is too big
    ([(OP_WORK, 2 ** 60 - 1), (OP_WORK, 1)], r"WORK 1152921504606846976: "),
])
def test_out_of_range_operand_refused_at_capture(ops, message):
    """An operand one word cannot hold is a ValueError naming the op, from
    the drain and from a recording alike; the range's own ends are kept.
    At line size 64 the same lines' addresses are past int64 themselves,
    which a recording refuses as it records them."""
    for line_size in (1, 64):
        at = [(o, a * line_size if o in (OP_READ, OP_WRITE) else a)
              for o, a in ops]
        with pytest.raises(ValueError, match=message):
            compile_program(lambda pid: iter(at), 1, line_size)
        recorder = ProgramRecorder(lambda pid: iter(at), 1, line_size)
        with pytest.raises(ValueError, match=message):
            list(recorder.factory(0))
            recorder.finish()
    edges = [(OP_LOCK, 2 ** 60 - 1), (OP_BARRIER, -2 ** 60),
             (OP_WORK, 2 ** 60 - 2), (OP_WORK, 1)]
    program = compile_program(lambda pid: iter(edges), 1, 1)
    assert list(decode(program.words[0])) == [*edges[:2], (OP_WORK, 2 ** 60 - 1)]


def test_fused_replay_still_bit_identical():
    cfg = MachineConfig(n_processors=4, cluster_size=2,
                        cache_kb_per_processor=4.0)
    app = tiny_app("ocean", cfg)
    want = engine_for(cfg).run(app.program).to_json()
    program = tiny_app("ocean", cfg).compiled_program()
    assert program.total_ops < program.source_ops
    assert engine_for(cfg).run_compiled(program).to_json() == want


def test_compile_stores_task_bodies_and_refuses_misplaced_tasks():
    from repro.sim.program import Read, Task, Work

    def frame(pid):
        return iter([Work(1), Task(0), Work(2)])

    bodies = [[Work(3), Work(4), Read(128)], [], [Work(5)]]
    program = compile_program(frame, 2, 64, tasks=[bodies])
    assert program.task_lens == [[2, 0, 1]]      # WORK fused per body only
    assert list(decode(program.task_words)) == [(OP_WORK, 7), (OP_READ, 2),
                                                (OP_WORK, 5)]
    assert program.source_ops == 2 * 2 + 4       # TASK is not a yielded op
    assert program.total_ops == 2 * 2 + 3
    with pytest.raises(ValueError, match="TASK 1: no such queue"):
        compile_program(lambda pid: iter([Task(1)]), 2, 64, tasks=[bodies])
    with pytest.raises(ValueError, match="TASK 0: no such queue"):
        compile_program(frame, 2, 64)
    with pytest.raises(ValueError, match="TASK 0 inside a task body"):
        compile_program(frame, 2, 64, tasks=[[[Work(1), Task(0)]]])


def test_every_column_is_a_view_over_one_buffer(tmp_path):
    """Compiled, recorded, decoded or mapped, a program is one buffer in
    its blob's layout, and every column is an int64 ``memoryview`` of it:
    there is no second representation to keep in step."""
    cfg = MachineConfig(n_processors=8, cluster_size=2)
    compiled = tiny_app("raytrace", cfg).compiled_program()
    path = tmp_path / "t.trace"
    path.write_bytes(compiled.buffer)
    programs = [compiled, tiny_app("lu", cfg).run_recorded()[1],
                CompiledProgram.from_bytes(compiled.buffer),
                CompiledProgram.from_file(path)]
    for program in programs:
        columns = [*program.words, program.task_words]
        assert all(isinstance(col, memoryview) and col.format == "q"
                   and col.obj is program.buffer for col in columns)
    assert [p.mapped for p in programs] == [False, False, False, True]
    assert bytes(programs[3].buffer) == programs[2].buffer == compiled.buffer


def test_engine_rejects_mismatched_program():
    cfg = MachineConfig(n_processors=4, cluster_size=2)
    program = compile_program(synthetic_factory, 2, cfg.line_size)
    with pytest.raises(ValueError, match="processors"):
        engine_for(cfg).run_compiled(program)
    program = compile_program(synthetic_factory, 4, 32)
    with pytest.raises(ValueError, match="line size"):
        engine_for(cfg).run_compiled(program)


# ------------------------------------------------------------- serialization

def test_round_trip_preserves_everything():
    program = compile_program(synthetic_factory, 3, 64)
    clone = CompiledProgram.from_bytes(program.buffer)
    assert clone.n_processors == program.n_processors
    assert clone.line_size == program.line_size
    assert clone.source_ops == program.source_ops
    assert [list(w) for w in clone.words] == [list(w) for w in program.words]


@pytest.mark.parametrize("mutilate", [
    lambda b: b"XXXXXXXX" + b[8:],           # bad magic
    lambda b: b[:20],                        # truncated header
    lambda b: b[:-10],                       # truncated payload
    lambda b: b[:40] + bytes([b[40] ^ 0xFF]) + b[41:],  # flipped byte
    lambda b: b"",                           # empty
])
def test_corrupt_blobs_raise_decode_error(mutilate):
    blob = bytes(compile_program(synthetic_factory, 2, 64).buffer)
    with pytest.raises(TraceDecodeError):
        CompiledProgram.from_bytes(mutilate(blob))


def test_column_validation():
    from array import array
    with pytest.raises(ValueError, match="does not cover its column"):
        CompiledProgram([array("q")], 64, 0, tasks=(array("q"), [[1]]))
    with pytest.raises(ValueError, match="does not cover its column"):
        CompiledProgram([array("q")], 64, 0, tasks=(array("q", [8]), [[-1, 2]]))
