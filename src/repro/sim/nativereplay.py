"""Native-kernel replay: eligibility gate and RunResult assembly.

Bridges :mod:`repro.native` (rank 2: the C kernel, its build layer, and
the raw driver) into the simulation layer.  :func:`replay_native` is the
drop-in twin of ``execute_program(..., compiled=True)`` on a directory
memory system: same validation, same exceptions, same byte-identical
:class:`~repro.core.metrics.RunResult` — the kernel returns the raw end
state, the driver writes it back into the live memory objects, and the
canonical :class:`~repro.sim.stats.StatsAssembler` builds the result
from those objects exactly as every other path does.

:func:`native_fusible` is deliberately conservative: an exact
:class:`CoherentMemorySystem` (a subclass could override the hot methods
the kernel re-implements) with fully-associative caches, flat latencies
only (the mesh provider is stateful python), at most 64 clusters (the
sharer mask lives in one machine word), a non-degenerate capacity, and a
*fresh* memory system (the kernel starts from empty state; every replay
constructs its memory fresh, so this only excludes exotic callers).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import repro.native as native
from ..core.metrics import MissCounters, RunResult
from ..memory.coherence import CoherentMemorySystem
from ..native.driver import NativeDeadlock, run_native
from .engine import SimulationDeadlock
from .stats import DEFAULT_ASSEMBLER
from .sync import SyncRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import MachineConfig
    from .compiled import CompiledProgram

__all__ = ["NATIVE_PROTOCOLS", "native_fusible", "replay_native",
           "try_replay_native"]

#: coherence protocols the C kernel implements.  Anything else degrades
#: silently to the canonical python path (the CLI's forced ``--native``
#: additionally refuses the combination up front, exit 2).
NATIVE_PROTOCOLS = frozenset({"directory"})

_FRESH = MissCounters()


def native_fusible(memory) -> bool:
    """Whether the C kernel can drive this memory system exactly.

    Requires an exact :class:`CoherentMemorySystem` with
    fully-associative kernel tuples, flat latencies, ≤ 64 clusters, a
    usable capacity, and fresh state.
    """
    if (type(memory) is not CoherentMemorySystem
            or memory._kernels is None
            or not memory._flat
            or len(memory.caches) > 64
            or memory._capacity_lines == 0):
        return False
    if memory._dtable:
        return False
    d = memory.directory
    if d.invalidations_sent or d.replacement_hints or d.writebacks:
        return False
    for cache in memory.caches:
        if cache.slot_of or cache.inserts or cache.evictions:
            return False
    for hist in memory._history:
        if hist:
            return False
    for ctr in memory.counters:
        if ctr != _FRESH:
            return False
    return True


def replay_native(config: "MachineConfig", memory: CoherentMemorySystem,
                  program: "CompiledProgram", lib=None) -> RunResult:
    """Replay ``program`` against ``memory`` with the C kernel.

    Byte-identical to ``execute_program(..., compiled=True)`` whenever
    :func:`native_fusible(memory)` holds; callers gate on it.
    """
    if lib is None:
        lib = native.kernel()
        if lib is None:
            raise RuntimeError("native kernel is not available")
    n = config.n_processors
    if program.n_processors != n:
        raise ValueError(
            f"compiled program has {program.n_processors} processors, "
            f"machine has {n}")
    if program.line_size != config.line_size:
        raise ValueError(
            f"compiled program captured at line size "
            f"{program.line_size}, machine uses {config.line_size}")
    try:
        execution_time, breakdowns = run_native(lib, config, memory, program)
    except NativeDeadlock as nd:
        # reconstruct the canonical deadlock message through the real
        # SyncRegistry (creation order preserved by the kernel's export)
        sync = SyncRegistry(n)
        for bid, episodes, waiting in nd.barriers:
            b = sync.barrier(bid)
            b.episodes = episodes
            b._waiting.extend(waiting)
        for lid, holder, acq, cont, waiting in nd.locks:
            lk = sync.lock(lid)
            lk.holder = holder
            lk.acquisitions = acq
            lk.contended_acquisitions = cont
            lk._queue.extend(waiting)
        detail = sync.idle_check() or "processors blocked forever"
        stuck = [p for p in range(n) if nd.finish[p] is None]
        raise SimulationDeadlock(
            f"{len(stuck)} processors never finished ({detail}); "
            f"first stuck: {stuck[:8]}") from None
    return DEFAULT_ASSEMBLER.assemble(execution_time, breakdowns, memory)


def try_replay_native(config: "MachineConfig", app,
                      program: "CompiledProgram") -> RunResult | None:
    """Per-point seam: run natively when selected and eligible, else None.

    Builds the same fresh memory system ``app.run(program=...)`` would,
    gates on :func:`native_fusible`, and leaves every ineligible case
    (python selected, mesh latencies, non-directory protocol, mismatched
    program) to the canonical path — including its exact validation
    errors.
    """
    if config.protocol not in NATIVE_PROTOCOLS:
        # the C kernel implements the directory protocol only; other
        # backends degrade silently to the canonical python replay
        return None
    lib = native.kernel()
    if lib is None:
        return None
    if (program.n_processors != config.n_processors
            or program.line_size != config.line_size):
        return None  # canonical path raises its own errors
    app.ensure_setup()
    memory = CoherentMemorySystem(config, app.allocator)
    if not native_fusible(memory):
        return None
    return replay_native(config, memory, program, lib=lib)
