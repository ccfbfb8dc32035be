"""Property suite for the native C replay kernel.

Generates random (deadlock-free) parallel programs, compiles them, and
requires the C kernel to reproduce the canonical python replay
(``Engine.run_compiled``) byte-for-byte — the same pin
the nine real applications carry, but over adversarial op streams:
degenerate phases, empty processors, lock convoys, tiny caches that
evict constantly — under every protocol (directory, snoopy, dls) and
every latency provider (Table 1, mesh and crossbar with contention).
Agreement covers the RunResult JSON *and* every other number the kernel
returns (per-cache evictions/inserts, the directory's three counters or
DLS's write-backs, first-touch pages, the network counters field by
field), read from the python side's memory system, so a kernel that
replaced the wrong victim, pruned the directory differently or summed a
queueing delay in another order fails even where the miss counts happen
to agree.

Every test that needs the compiled kernel skips cleanly when no C
compiler is available (or the kernel is disabled in the environment);
the selection-semantics tests run everywhere, compiler or not.
"""

import os
import re
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.native as native
from repro.apps import registry
from repro.apps.base import Application
from repro.core.config import (PROTOCOLS, LatencyModel, MachineConfig,
                               NetworkConfig)
from repro.core.metrics import MissCause
from repro.core.resultcache import TraceStore
from repro.memory import make_memory_system
from repro.memory.allocation import PageAllocator
from repro.memory.coherence import CoherentMemorySystem
from repro.native import build
from repro.native.driver import run_native
from repro.runtime import RunPlan, RunRequest, RunSession
from repro.sim.compiled import (CompiledProgram, TraceCache,
                                clear_memory_cache, compile_program, decode,
                                trace_key)
from repro.sim.engine import Engine, SimulationDeadlock
from repro.sim.nativereplay import native_decline_reason, try_replay_native
from repro.sim.stats import build as build_result
from repro.sim.program import (OP_BARRIER, OP_LOCK, OP_READ, OP_TASK,
                               OP_UNLOCK, OP_WORK, OP_WRITE, Barrier, Lock,
                               Read, Task, Unlock, Work, Write)

from refmodel import words
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
# always released by the acquirer, in order), or a ``TASK`` on one of the
# program's task queues — whose bodies are lists of the other atoms, so
# they block, miss and contend like any stream, and whichever processor
# is first to a ``TASK`` at each event takes the queue's next body.

#: span of the kernel's calendar-queue ring (``#define W`` in kernel.c):
#: an event due W or more cycles after the last pop takes the far path
_W = int(re.search(r"^#define W (\d+)", build.source_path().read_text(),
                   re.M).group(1))

_ADDR = st.integers(min_value=0, max_value=1023)
# mostly short work (21 draws in 25), so processors stay entangled; the
# four long ones put an event just inside the ring, just outside it, and
# two laps out
_LONG = (_W - 1, _W, _W + 1, 2 * _W + 3)
_WORK = st.integers(min_value=0, max_value=20 + len(_LONG)).map(
    lambda k: k if k <= 20 else _LONG[k - 21])
_BASIC = st.one_of(
    st.tuples(st.just("work"), _WORK),
    st.tuples(st.just("read"), _ADDR),
    st.tuples(st.just("write"), _ADDR),
)
# lock ids: three that collide often, and two on either side of the
# kernel's first registry table chunk
_CS = st.tuples(st.just("cs"), st.sampled_from([0, 1, 2, 4095, 4096]),
                st.lists(_BASIC, max_size=4))
_ATOM = st.one_of(_BASIC, _CS)
_N_QUEUES = 2
_TAKE = st.tuples(st.just("take"),
                  st.integers(min_value=0, max_value=_N_QUEUES - 1))


@st.composite
def _programs(draw):
    n = draw(st.sampled_from([2, 4, 8, 16]))
    phases = draw(st.integers(min_value=1, max_value=3))
    # half the programs carry two task queues (either may be empty), and
    # every processor then ends its last phase draining both
    queues = draw(st.one_of(st.just([]), st.lists(
        st.lists(st.lists(_ATOM, max_size=6), max_size=6),
        min_size=_N_QUEUES, max_size=_N_QUEUES)))
    atom = st.one_of(_ATOM, _TAKE) if queues else _ATOM
    table = [[draw(st.lists(atom, max_size=10)) for _ in range(phases)]
             for _ in range(n)]
    for row in table:
        row[-1] += [("take", q) for q in range(len(queues))]
    return n, phases, table, queues


def _emit(atom):
    kind, arg = atom[0], atom[1]
    if kind == "work":
        yield Work(arg)
    elif kind == "read":
        yield Read(arg)
    elif kind == "write":
        yield Write(arg)
    elif kind == "take":
        yield Task(arg)
    else:  # critical section
        yield Lock(arg)
        for basic in atom[2]:
            yield from _emit(basic)
        yield Unlock(arg)


def _factory_of(phases, table):
    def factory(pid):
        for phase in range(phases):
            for atom in table[pid][phase]:
                yield from _emit(atom)
            yield Barrier(phase)

    return factory


def _tasks_of(queues):
    """``compile_program``'s ``tasks``: a body is its atoms, emitted."""
    return [[[op for atom in body for op in _emit(atom)] for body in queue]
            for queue in queues]


def _config(n, cluster, cache_kb, protocol="directory", network=None):
    return MachineConfig(n_processors=n, cluster_size=cluster,
                         cache_kb_per_processor=cache_kb, protocol=protocol,
                         network=network or NetworkConfig())


_CACHES = st.sampled_from([None, 0.0625, 0.25])  # infinite, 1, 4 lines/processor

#: the latency providers: Table 1, and the hop-priced model over both
#: topologies with queueing on, idle and under background load
_NETWORKS = st.sampled_from(
    [None]
    + [NetworkConfig(provider="mesh", topology=topology,
                     background_load=load)
       for topology in ("mesh", "crossbar") for load in (0.0, 0.3)])


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

def _assert_native_matches_python(config, factory, tasks=()):
    """Replay ``factory`` both ways; every number must agree.

    Returns the native output, for a directed case to check what the
    scenario was built to show.
    """
    program = compile_program(factory, config.n_processors,
                              config.line_size, tasks)
    memory = make_memory_system(config, _allocator(config))
    reference = Engine(config, memory).run_compiled(program)

    assert native_decline_reason(config) is None
    allocator = _allocator(config)
    out = run_native(_LIB, config, allocator, program)

    assert not allocator.page_homes  # read, never written
    assert out.execution_time == reference.execution_time
    assert out.breakdowns == reference.per_processor
    assert out.counters == reference.per_cluster_misses
    assert [c.to_dict() for c in out.counters] == \
        [c.to_dict() for c in reference.per_cluster_misses]  # key order too
    # one entry per cache: per cluster, per processor under snoopy
    assert out.evictions == [c.evictions for c in memory.caches]
    assert out.inserts == [c.inserts for c in memory.caches]
    if config.protocol == "dls":  # no directory: dirty victims only
        assert (out.invalidations_sent, out.replacement_hints,
                out.writebacks) == (0, 0, memory.writebacks)
    else:
        directory = memory.directory
        assert (out.invalidations_sent, out.replacement_hints,
                out.writebacks) == (directory.invalidations_sent,
                                    directory.replacement_hints,
                                    directory.writebacks)
    assert out.first_touch_pages == memory.allocator.first_touch_pages
    # field by field, the float with == : it is the same double or it
    # is a different sum
    assert out.network == reference.network
    total = memory.aggregate_counters()
    assert build_result(out.execution_time, out.breakdowns, total,
                        out.counters, out.network).to_json() \
        == reference.to_json()
    return out


@needs_kernel
@settings(max_examples=150, deadline=None)
@given(data=_programs(), cluster_pick=st.integers(min_value=0, max_value=2),
       cache_kb=_CACHES, protocol=st.sampled_from(PROTOCOLS),
       network=_NETWORKS)
def test_native_matches_python_replay(data, cluster_pick, cache_kb,
                                      protocol, network):
    n, phases, table, queues = data
    cluster = [1, 2, n][cluster_pick]
    _assert_native_matches_python(
        _config(n, cluster, cache_kb, protocol, network),
        _factory_of(phases, table), _tasks_of(queues))


# ----------------------------------------------------- directed cases
#
# Scenarios the fuzzer reaches only by luck, each built so that the
# scheduling or classification decision under test shows in the result.
# Table-1 latencies: a clean miss stalls 30 cycles at home, and a read
# occupies the cycle after its stall.

def _scripted(*streams):
    """A program factory over literal per-processor op lists."""
    return lambda pid: iter(streams[pid])


_X, _Y = 0, 64  # two lines of one page


@needs_kernel
def test_far_event_runs_before_a_ring_event_of_the_same_cycle():
    """Both due at W+10; the one queued first (far) must fetch.

    P0 queues its event at time 0, W+10 cycles out: far.  P1 queues one
    for the same cycle at time 31, W-21 cycles out: ring.  (P2 exists so
    that P1 is *queued* at 31 — an event the kernel pops, which is what
    moves the ring's base — rather than running ahead alone.)  Push
    order says P0 runs first: it misses on X and fetches, and P1 merges.
    """
    due = _W + 10
    out = _assert_native_matches_python(_config(4, 4, None), _scripted(
        [Work(due), Read(_X)],
        [Read(_Y), Work(due - 31), Read(_X)],
        [Work(20)],
        []))
    p0, p1 = out.breakdowns[:2]
    assert (p0.load, p0.merge) == (30, 0)
    assert (p1.load, p1.merge) == (30, 30)  # its own miss on Y, then X
    assert out.execution_time == due + 31


@needs_kernel
def test_far_events_of_one_cycle_run_in_push_order():
    """Two events queued W+10 cycles out at time 0 are both far; the far
    array must hand them back first-pushed first: P0 fetches, P1 merges."""
    out = _assert_native_matches_python(_config(2, 2, None), _scripted(
        [Work(_W + 10), Read(_X)],
        [Work(_W + 10), Read(_X)]))
    p0, p1 = out.breakdowns
    assert (p0.load, p0.merge) == (30, 0)
    assert (p1.load, p1.merge) == (0, 30)


@needs_kernel
def test_zero_work_chains_and_release_into_the_current_cycle():
    """WORK(0) re-queues at the current cycle behind what is already due,
    and the last arrival at a barrier releases everyone into that cycle."""
    def stream(pid):
        ops = []
        for phase in range(3):
            for k in range(4):
                ops += [Work(0), Read(64 * ((pid + k) % 6)), Work(0),
                        Write(64 * ((pid * k) % 6))]
            ops += [Work(0), Barrier(phase), Work(0)]
        return ops

    for cluster, cache_kb in ((1, None), (2, 0.0625), (4, 0.25)):
        _assert_native_matches_python(
            _config(4, cluster, cache_kb),
            _scripted(*[stream(pid) for pid in range(4)]))


@needs_kernel
@pytest.mark.parametrize("laps", [1, 2])
def test_lock_handoff_across_a_ring_wrap(laps):
    """UNLOCK at laps*W - 1 hands off at laps*W: bucket 0, behind the
    scan position.  Push order (releaser, then next holder) decides who
    fetches X there and who merges."""
    at = laps * _W - 1
    out = _assert_native_matches_python(_config(2, 2, None), _scripted(
        [Lock(0), Work(at - 1), Unlock(0), Read(_X)],
        [Work(5), Lock(0), Read(_X), Unlock(0)]))
    p0, p1 = out.breakdowns
    assert (p0.load, p0.merge) == (30, 0)
    assert (p1.load, p1.merge) == (0, 30)
    assert p1.sync == at - 5  # blocked from 5 until the release at `at`


@needs_kernel
def test_one_line_cold_capacity_coherence_capacity():
    """The latest loss decides a miss's cause, per cluster.

    4-line caches, one processor per cluster.  Cluster 0 loses X to an
    eviction, then to cluster 1's write, then to an eviction again;
    cluster 2 holds X all along and only ever loses it to the write.
    """
    def spill(base):  # four fresh lines: pushes everything else out
        return [Read(64 * (base + k)) for k in range(4)]

    out = _assert_native_matches_python(_config(4, 1, 0.25), _scripted(
        [Read(_X), *spill(10), Read(_X), Barrier(0), Barrier(1),
         Read(_X), *spill(20), Read(_X), Barrier(2)],
        [Barrier(0), Write(_X), Barrier(1), Barrier(2)],
        [Read(_X), Barrier(0), Barrier(1), Read(_X), Barrier(2)],
        [Barrier(0), Barrier(1), Barrier(2)]))
    cold, coherence, capacity = MissCause
    assert [c.by_cause for c in out.counters] == [
        {cold: 9, coherence: 1, capacity: 2},
        {cold: 1, coherence: 0, capacity: 0},
        {cold: 1, coherence: 1, capacity: 0},
        {cold: 0, coherence: 0, capacity: 0}]


@needs_kernel
def test_a_written_back_line_leaves_the_directory():
    """1-line cache: the write's victim is a dirty line, so evicting it
    is a writeback that empties the sharer set; the entry's EXCLUSIVE
    state must go with it, or the re-read would price a dirty owner."""
    out = _assert_native_matches_python(_config(2, 1, 0.0625), _scripted(
        [Write(_X), Read(_Y), Read(_X)], []))
    assert out.writebacks == 1 and out.replacement_hints == 1
    assert out.breakdowns[0].load == 60  # two clean misses at home


# ------------------------------------- directed cases, per back end
#
# Snoopy (one cache per processor, 6 bus cycles on every miss that
# leaves the cluster, 10 for a cache-to-cache transfer), DLS (lines live
# only in their home slice) and mesh pricing (doubles, rounded as python
# rounds), each where a kernel that got the arithmetic right and the
# side effects wrong would show.

@needs_kernel
def test_snoopy_cache_to_cache_transfer_binds_no_page():
    """P1's miss on X is served by cluster-mate P0 in 10 cycles, without
    a directory transaction and without touching page placement: X's
    page was bound by P0's miss, and the next first touch — Z, from the
    other cluster — gets the round-robin home python gives it, cluster 1,
    hence a local fill (30 + 6) and not a remote one (100 + 6)."""
    config = _config(4, 2, None, "snoopy")
    z = config.page_size  # first line of the next page
    out = _assert_native_matches_python(config, _scripted(
        [Read(_X)],
        [Work(50), Read(_X)],
        [Work(100), Read(z)],
        []))
    assert [bd.load for bd in out.breakdowns] == [36, 10, 36, 0]
    assert out.first_touch_pages == 2


@needs_kernel
def test_snoopy_page_binds_at_the_first_home_going_miss_after_a_transfer():
    """P1's first miss, on X, is served by cluster-mate P0; its next, on
    a line of a fresh page, binds that page to the next round-robin home,
    cluster 1 — a remote fill (100 + 6) — and P2's first touch of a third
    page lands on cluster 0, in both interpreters."""
    config = _config(4, 2, None, "snoopy")
    page = config.page_size
    out = _assert_native_matches_python(config, _scripted(
        [Read(_X)],
        [Work(50), Read(_X), Read(page)],
        [Work(300), Read(2 * page)],
        []))
    assert [bd.load for bd in out.breakdowns] == [36, 10 + 106, 106, 0]
    assert out.first_touch_pages == 3


@needs_kernel
@pytest.mark.parametrize("p1_evicts_too,hints", [(False, 0), (True, 1)])
def test_snoopy_victim_a_cluster_mate_still_holds_sends_no_hint(
        p1_evicts_too, hints):
    """One-line caches.  P0 evicts X while P1 still holds it: the
    cluster still caches the line, the directory hears nothing.  Only
    when P1 evicts it too does the (one) replacement hint go out."""
    w = 128
    out = _assert_native_matches_python(
        _config(2, 2, 0.0625, "snoopy"), _scripted(
            [Read(_X), Work(100), Read(_Y)],
            [Work(50), Read(_X)]
            + ([Work(200), Read(w)] if p1_evicts_too else [])))
    assert out.evictions == [1, int(p1_evicts_too)]
    assert (out.replacement_hints, out.writebacks) == (hints, 0)


@needs_kernel
def test_dls_remote_read_of_a_pending_home_line_queues_and_never_merges():
    """X is homed at cluster 0, whose own fill returns at 30.  Cluster
    1's read at 10 finds the home line pending: it queues behind the
    fill (20 cycles) on top of the remote transaction (100) in one
    stall, charged to load — a remote read is never a merge."""
    out = _assert_native_matches_python(_config(2, 1, None, "dls"), _scripted(
        [Read(_X)],
        [Work(10), Read(_X)]))
    p1 = out.breakdowns[1]
    assert (p1.load, p1.merge) == (120, 0)
    assert [c.merges for c in out.counters] == [0, 0]
    assert out.execution_time == 10 + 120 + 1


@needs_kernel
def test_dls_remote_homed_line_is_cold_then_coherence():
    """A cluster never caches a remote-homed line, so it misses on it
    every time: COLD on first touch, COHERENCE ever after — reads and
    write-throughs alike."""
    out = _assert_native_matches_python(_config(2, 1, None, "dls"), _scripted(
        [Read(_X)],
        [Work(10), Read(_X), Read(_X), Write(_X)]))
    cold, coherence, capacity = MissCause
    assert [c.by_cause for c in out.counters] == [
        {cold: 1, coherence: 0, capacity: 0},
        {cold: 1, coherence: 2, capacity: 0}]
    assert out.breakdowns[1].load == 120 + 100  # the second read: no queue


@needs_kernel
@pytest.mark.parametrize("local_clean,stall", [(30, 30), (31, 32)])
def test_mesh_latency_plus_delay_on_a_half_rounds_to_even(local_clean,
                                                           stall):
    """Background load 0.5 on an idle directory with unit occupancy is
    an M/D/1 wait of exactly 0.5; a local fill crosses no link, so
    ``latency + delay`` is ``local_clean + 0.5``.  python's ``round``
    takes a tie to the even neighbour: 30.5 -> 30 and 31.5 -> 32, where
    C's ``round()`` would say 31 and 32."""
    config = MachineConfig(
        n_processors=2, cluster_size=1,
        latency=LatencyModel(local_clean=local_clean),
        network=NetworkConfig(provider="mesh", background_load=0.5,
                              directory_cycles=1))
    out = _assert_native_matches_python(config, _scripted([Read(_X)], []))
    assert out.breakdowns[0].load == stall
    assert out.network.queue_delay_cycles == stall - local_clean
    assert out.network.peak_link_utilization == 0.0  # no link crossed


@needs_kernel
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("network", [None, NetworkConfig(provider="mesh")],
                         ids=["table1", "mesh"])
def test_lines_on_table_chunk_edges(protocol, network):
    """Lines on both sides of the kernel's 4096-entry table chunks, and
    far out at 2**31 and at the top line, 2**32 - 1 (a line's tag is
    unsigned), through 2-line caches: evictions and invalidations clear
    table entries, and later installs set them again."""
    edges = [0, 4095, 4096, 8191, 8192, 2**31, 2**32 - 1]
    # two lines per cache: per cluster of two, or per processor (snoopy)
    config = _config(4, 2, 0.125 if protocol == "snoopy" else 0.0625,
                     protocol, network)

    def factory(pid):
        for phase in range(3):
            shift = pid + phase
            for k, line in enumerate(edges[shift:] + edges[:shift]):
                op = Write if (k + shift) % 3 == 0 else Read
                yield op(line * config.line_size)
            yield Barrier(phase)

    out = _assert_native_matches_python(config, factory)
    assert min(out.evictions) > 0


@needs_kernel
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_sync_ids_on_table_chunk_edges(protocol):
    """Barrier and lock ids on both sides of the registries' 4096-entry
    table chunks, and one far out.  Every phase, all processors contend
    for one lock, arriving in an order that is not pid order, so the
    handoffs follow the wait list; then they meet at that phase's
    barrier."""
    ids = [4095, 4096, 8191, 2**31]
    config = _config(4, 2, None, protocol)

    def factory(pid):
        for phase, sid in enumerate(ids):
            yield Work(7 * ((3 * pid + phase) % 4))
            yield Lock(sid)
            yield Read(_X)
            yield Write(_X)
            yield Unlock(sid)
            yield Barrier(sid)

    out = _assert_native_matches_python(config, factory)
    assert min(bd.sync for bd in out.breakdowns) > 0


# ------------------------------------------------ operands are checked
#
# compile_program refuses these at capture, but a mapped trace's payload
# carries no checksum: the kernel is the only check between a flipped bit
# and its queue.  It must fault — the point is declined and the python
# replay decides — not read a bad opcode as UNLOCK or file an event
# before the ring's base.  Opcode 7 is the one a word can hold and no op
# has.

#: lines and sync ids outside [0, 2^32), which no table of the kernel
#: holds: python's replay takes any int, so only the kernel declines these
_FAR_LINES = [(OP_READ, -1), (OP_WRITE, 2**32)]
_FAR_IDS = [(OP_BARRIER, -1), (OP_LOCK, 2**32), (OP_UNLOCK, -1)]


@needs_kernel
@pytest.mark.parametrize("opcode,arg",
                         [(7, 0), (OP_WORK, -5), *_FAR_LINES, *_FAR_IDS])
def test_kernel_faults_on_a_bad_operand(opcode, arg, force_native):
    # after LOCK(0), so that opcode 7 read as UNLOCK(0) would be legal; a
    # far line or id is a fault, not a MemoryError
    config = _config(2, 1, None)
    program = CompiledProgram(
        [words([OP_LOCK, opcode], [0, arg]), array("q")],
        config.line_size, source_ops=2)
    assert try_replay_native(config, _ScriptedApp(config), program) is None


@needs_kernel
@pytest.mark.parametrize("opcode,arg", [*_FAR_LINES, *_FAR_IDS])
def test_a_declined_far_line_keeps_pythons_answer(opcode, arg, force_native,
                                                  monkeypatch):
    """The session behind the decline runs the point on python, and
    answers what ``REPRO_NATIVE=0`` answers: a result (a far line, a far
    lock taken) or python's error (a barrier one processor never reaches,
    an unlock of a lock nobody holds) — never a ``MemoryError``."""
    if opcode in (OP_READ, OP_WRITE):
        arg *= _config(2, 1, None).line_size
    factory = _scripted([(OP_LOCK, 0), (opcode, arg)], [])
    got = _session_answer(monkeypatch, factory, True)
    assert got == _session_answer(monkeypatch, factory, False)
    assert got[0] in ("python", SimulationDeadlock, RuntimeError)


@needs_kernel
def test_a_negative_read_line_decodes_alike(force_native, monkeypatch):
    """A READ of line -1 is one word with its sign in the operand: python
    decodes it back to ``(READ, -1)`` and runs it, the kernel decodes it
    to a line no table holds and declines, and the session answers what
    ``REPRO_NATIVE=0`` answers."""
    config = _config(2, 1, None)
    factory = _scripted([(OP_READ, -config.line_size), (OP_WORK, 2)],
                        [(OP_WORK, 1)])
    program = compile_program(factory, 2, config.line_size)
    assert list(decode(program.words[0])) == [(OP_READ, -1), (OP_WORK, 2)]
    assert try_replay_native(config, _ScriptedApp(config), program) is None
    got = _session_answer(monkeypatch, factory, True)
    assert got == _session_answer(monkeypatch, factory, False)
    assert got[0] == "python"


# What "python decides" means: the engine's one loop checks a stored
# operand exactly as it checks a generated one, so a bad trace is an
# error — not a clock that ran backwards (negative WORK) or an opcode
# taken for UNLOCK.

_BAD_STREAMS = [
    ([OP_WORK, OP_WORK, OP_READ], [10, -7, 3], "negative WORK cycles: -7"),
    ([OP_WORK, 7, OP_WORK], [5, 1, 5], "unknown opcode 7"),
]


def _bad_program(config, ops, args):
    """Processor 0 runs the bad stream, processor 1 is ``[WORK 5]``."""
    return CompiledProgram(
        [words(ops, args), words([OP_WORK], [5])],
        config.line_size, source_ops=len(ops) + 1)


@pytest.mark.parametrize("ops,args,message", _BAD_STREAMS)
def test_python_replay_rejects_a_bad_operand(ops, args, message):
    config = _config(2, 1, None)
    with pytest.raises(ValueError, match=message):
        Engine(config, CoherentMemorySystem(config)).run_compiled(
            _bad_program(config, ops, args))


@needs_kernel
@pytest.mark.parametrize("ops,args,message", _BAD_STREAMS)
def test_session_raises_on_a_bad_stored_operand(ops, args, message, tmp_path,
                                                force_native, monkeypatch):
    """A damaged trace in the store: the kernel declines, python raises —
    the session never returns a RunResult for it."""
    monkeypatch.setitem(registry._CLASSES, "scripted", _ScriptedApp)
    config = _config(2, 1, None)
    plan = RunPlan.resolve(RunRequest.make("scripted", 1, None), config)
    program = _bad_program(plan.config, ops, args)
    app = _ScriptedApp(plan.config)
    assert try_replay_native(plan.config, app, program) is None
    store = TraceStore(tmp_path)
    store.put_bytes(trace_key("scripted", {}, plan.config, app.seed),
                    program.buffer)
    clear_memory_cache()
    session = RunSession(base_config=config, trace_cache=TraceCache(store))
    with pytest.raises(ValueError, match=message):
        session.run_plan(plan)
    assert session.trace_cache.disk_hits == 1  # it was the stored trace
    clear_memory_cache()


# The same for ``TASK``: capture refuses each of these, both interpreters
# must.  ``frame`` is processor 0's column, ``queues`` the task table
# (per queue, a list of bodies); processor 1 is ``[WORK 5]``.

_BODY = ([OP_WORK, OP_READ], [3, 7])
_BAD_TASKS = [
    # queue id out of range, either side
    (([OP_TASK, OP_TASK], [0, 1]), [[_BODY]], "TASK 1: no such queue"),
    (([OP_TASK, OP_TASK], [0, -1]), [[_BODY]], "TASK -1: no such queue"),
    # a task body is a leaf
    (([OP_TASK], [0]), [[_BODY, ([OP_WORK, OP_TASK], [3, 0])]],
     r"TASK inside a task body \(task 1\)"),
    # a table nobody dispatches (queue 1 here), and a dispatch with no
    # table: without one, 6 is not an opcode of the program
    (([OP_TASK], [0]), [[_BODY], [_BODY]], "TASK 1: 1 tasks in the table"),
    (([OP_WORK, OP_TASK], [2, 0]), [], "unknown opcode 6"),
]


def _task_program(config, frame, queues):
    bodies = [body for queue in queues for body in queue]
    return CompiledProgram(
        [words(*frame), words([OP_WORK], [5])],
        config.line_size, source_ops=1,
        tasks=(words([op for ops, _ in bodies for op in ops],
                     [arg for _, args in bodies for arg in args]),
               [[len(ops) for ops, _ in queue] for queue in queues]))


@pytest.mark.parametrize("frame,queues,message", _BAD_TASKS)
def test_python_replay_rejects_a_bad_task(frame, queues, message):
    config = _config(2, 1, None)
    with pytest.raises(ValueError, match=message):
        Engine(config, CoherentMemorySystem(config)).run_compiled(
            _task_program(config, frame, queues))


@needs_kernel
@pytest.mark.parametrize("frame,queues,message", _BAD_TASKS)
def test_kernel_faults_on_a_bad_task(frame, queues, message, force_native):
    config = _config(2, 1, None)
    program = _task_program(config, frame, queues)
    assert try_replay_native(config, _ScriptedApp(config), program) is None


@needs_kernel
def test_a_well_formed_task_program_is_served(force_native):
    """The control for the two tests above: same shapes, nothing wrong —
    including a task of no ops and a queue of no tasks."""
    config = _config(2, 1, None)
    program = _task_program(config, ([OP_TASK, OP_TASK, OP_WORK], [0, 1, 2]),
                            [[_BODY, ([], []), _BODY], []])
    assert program.total_ops == 1 + 2 * 2 + 1
    got = try_replay_native(config, _ScriptedApp(config), program)
    want = Engine(config, CoherentMemorySystem(config)).run_compiled(program)
    assert got.to_json() == want.to_json()


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
    assert shapes[0] == shapes[1] == [1, 4, 2, 2, 2, 1, 1, 1, 1, 1]


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


def _scripted_run(monkeypatch, factory, use_native):
    """``factory`` run as the registry app on 2 processors, one cluster
    each, by a fresh session with the kernel selected or not."""
    monkeypatch.setitem(registry._CLASSES, "scripted", _ScriptedApp)
    monkeypatch.setattr(_ScriptedApp, "factory", staticmethod(factory))
    native.set_native(use_native)
    config = _config(2, 1, None)
    return RunSession(base_config=config).run_plan(
        RunPlan.resolve(RunRequest.make("scripted", 1, None), config))


def _session_answer(monkeypatch, factory, use_native):
    """The kernel and result JSON of a scripted run, or its error."""
    try:
        outcome = _scripted_run(monkeypatch, factory, use_native)
    except Exception as exc:  # compared with the other selection's
        return type(exc), str(exc)
    return outcome.kernel, outcome.result.to_json()


def _session_error(monkeypatch, factory, use_native):
    with pytest.raises(Exception) as caught:
        _scripted_run(monkeypatch, factory, use_native)
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
        assert native.status()["build_error"] is None
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
        assert native.status()["kernel"] == "python"

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
