"""Event-driven multiprocessor execution engine (the Tango-lite analog).

The engine interleaves per-processor operation streams in global timestamp
order using a binary heap of ``(time, sequence, processor)`` events.  One
event processes one operation; the sequence number makes tie-breaking — and
therefore every simulation — fully deterministic.

Timing rules (paper §3.1):

* WORK(c) advances the processor clock by ``c`` CPU-busy cycles.
* A READ that hits costs one CPU cycle (the engine simulates single-cycle
  hits, as ``kernel.c`` does; cluster-size-dependent hit time enters via
  the §6 estimator).
* A READ that misses stalls the processor for the Table-1 latency (charged
  to *load*), then completes as a hit.  A longer load latency is a
  memory system's answer, not an engine knob: :class:`PerfectMemory`
  reports ``load_cycles - 1`` cycles of load-use stall on every read.
* A READ to a pending line stalls until the outstanding fill returns
  (charged to *merge*) and is then **retried**: if the line was invalidated
  while pending the retry takes a fresh miss (paper §2).
* WRITEs never stall (store buffers + relaxed consistency) and cost one
  CPU cycle to issue.
* BARRIER/LOCK blocking is charged to *sync*; end-of-program slack (waiting
  for the slowest processor) is also charged to *sync*, so every
  processor's components sum exactly to the global execution time.

The memory system is any object with ``read(processor, line, now, is_retry)``
and ``write(processor, line, now)`` — normally
:class:`~repro.memory.coherence.CoherentMemorySystem`, or
:class:`PerfectMemory` for load-latency profiling.  Both methods are bound
once per run and called once per READ/WRITE op, which makes them the
engine's hottest downstream calls; the memory layer keeps them allocation-
free on hits by reading and writing each resident line's record in place
(see :mod:`repro.memory.cache`).  The engine in turn promises the memory
system monotonically non-decreasing ``now`` values per processor — the
ordering the pending/merge bookkeeping in those records relies on.

One loop, two sources
---------------------

There is exactly one scheduling loop, :meth:`Engine._loop`, and it pulls
each processor's next ``(opcode, arg)`` from an iterator.  Programs come
either from generators (:meth:`Engine.run`) or from a stored flat-array
capture (:meth:`Engine.run_compiled` on a :class:`~repro.sim.compiled.
CompiledProgram`, whose columns are zipped into the same kind of
iterator); nothing selects between interpreters because there is only
one, so operand validation (negative WORK, unknown opcode) holds for
stored traces exactly as it does for generators.

The loop's scheduling tail is one ``heappushpop`` of the processor's next
event.  When that event lands **strictly earlier** than the heap minimum
(or the heap is empty), ``heappushpop`` hands it straight back without
touching the heap, so the processor simply continues; the sequence number
it spent relabels all later sequence numbers monotonically, so the
relative order of every remaining event, including ties, is the order a
push of every event gives.  (An event *equal* to the heap minimum loses
the tie to the incumbent, which was pushed earlier and holds the smaller
sequence number.)  ``kernel.c`` keeps its own fast path for the same
case.
"""

from __future__ import annotations

from heapq import heappop, heappush, heappushpop

from ..core.config import MachineConfig
from ..core.metrics import MissCounters, RunResult, TimeBreakdown
from ..memory.coherence import READ_HIT, READ_MERGE, READ_MISS
from .program import (OP_BARRIER, OP_LOCK, OP_READ, OP_UNLOCK, OP_WORK,
                      OP_WRITE, ProgramFactory)
from .stats import assemble
from .sync import SyncRegistry

__all__ = ["Engine", "PerfectMemory", "SimulationDeadlock"]


class SimulationDeadlock(RuntimeError):
    """The event queue drained while processors were still blocked."""


class PerfectMemory:
    """A memory system in which every reference is resident.

    Used by the load-latency profiler (paper §6 / Table 5), where memory
    behaviour must be excluded so that only the load delay slot matters —
    the role Pixie played for the authors.  Every read takes
    ``load_cycles``: at 1 it is a plain hit, above that the extra cycles
    come back as a load-use stall (charged to *load*) before the hit.
    """

    def __init__(self, load_cycles: int = 1) -> None:
        if load_cycles < 1:
            raise ValueError("load_cycles must be >= 1")
        self._read = ((READ_HIT, 0) if load_cycles == 1
                      else (READ_MISS, load_cycles - 1))

    def read(self, processor: int, line: int, now: int,
             is_retry: bool = False) -> tuple[int, int]:
        return self._read

    def write(self, processor: int, line: int, now: int) -> None:
        return None

    def aggregate_counters(self) -> MissCounters:
        return MissCounters()


class Engine:
    """Run a program factory on a machine configuration.

    Parameters
    ----------
    config:
        Machine organisation; supplies processor count and line size.
    memory:
        Coherent memory system (or :class:`PerfectMemory`).
    """

    def __init__(self, config: MachineConfig, memory) -> None:
        self.config = config
        self.memory = memory
        self.sync = SyncRegistry(config.n_processors)

    # ------------------------------------------------------- entry points
    def run(self, program_factory: ProgramFactory) -> RunResult:
        """Execute ``program_factory(pid)`` on every processor to completion."""
        return self._loop([iter(program_factory(pid)).__next__
                           for pid in range(self.config.n_processors)],
                          self.config.line_size)

    def run_compiled(self, program) -> RunResult:
        """Replay a :class:`~repro.sim.compiled.CompiledProgram`.

        Bit-identical to :meth:`run` on the program the capture was
        compiled from.  A stored trace is just another iterator of ops:
        each processor's columns are zipped into the same ``(opcode, arg)``
        stream a generator would yield (``TASK`` ops expanded on the way —
        :meth:`CompiledProgram.streams
        <repro.sim.compiled.CompiledProgram.streams>`), and because stored
        READ/WRITE operands are already line numbers the loop divides
        them by 1.
        """
        n = self.config.n_processors
        if program.n_processors != n:
            raise ValueError(
                f"compiled program has {program.n_processors} processors, "
                f"machine has {n}")
        if program.line_size != self.config.line_size:
            raise ValueError(
                f"compiled program captured at line size "
                f"{program.line_size}, machine uses {self.config.line_size}")
        return self._loop(program.streams(), 1)

    # ------------------------------------------------------- the event loop
    def _loop(self, nexts: list, line_size: int) -> RunResult:
        """Interleave one ``(opcode, arg)`` source per processor to completion.

        ``nexts[pid]()`` returns processor ``pid``'s next op or raises
        ``StopIteration``; a READ/WRITE operand divided by ``line_size``
        is the line number (1 when the source already stores lines).
        """
        n = self.config.n_processors
        memory = self.memory
        read = memory.read
        write = memory.write
        sync = self.sync

        breakdowns = [TimeBreakdown() for _ in range(n)]
        retry_line: list[int | None] = [None] * n
        finish: list[int | None] = [None] * n

        # list of (time, seq, pid) is already a valid heap here (all zeros)
        heap: list[tuple[int, int, int]] = [(0, pid, pid) for pid in range(n)]
        seq = n
        n_running = n

        # Single flat loop: one iteration processes one operation.  The
        # reschedule tail is one heappushpop (the push of this processor's
        # next event and the pop of the minimum, fused); ``tn = None``
        # marks a blocked/finished processor whose next event comes solely
        # from the heap.
        t, _, pid = heappop(heap)
        bd = breakdowns[pid]
        nxt = nexts[pid]
        pending = retry_line[pid]
        while True:
            if pending is not None:
                outcome, stall = read(pid, pending, t, True)
                if outcome == READ_MERGE:
                    bd.merge += stall
                    tn = t + stall
                elif outcome == READ_HIT:
                    pending = None
                    bd.cpu += 1
                    tn = t + 1
                else:  # fresh miss after mid-flight invalidation
                    pending = None
                    bd.load += stall
                    bd.cpu += 1
                    tn = t + stall + 1
            else:
                try:
                    opcode, arg = nxt()
                except StopIteration:
                    finish[pid] = t
                    n_running -= 1
                    tn = None
                else:
                    # dispatch ordered by dynamic frequency: reads dominate
                    # every app once consecutive WORK ops are fused
                    if opcode == OP_READ:
                        line = arg // line_size
                        outcome, stall = read(pid, line, t, False)
                        if outcome == READ_HIT:
                            bd.cpu += 1
                            tn = t + 1
                        elif outcome == READ_MERGE:
                            bd.merge += stall
                            pending = line
                            tn = t + stall
                        else:
                            bd.load += stall
                            bd.cpu += 1
                            tn = t + stall + 1
                    elif opcode == OP_WORK:
                        if arg < 0:
                            raise ValueError(f"negative WORK cycles: {arg}")
                        bd.cpu += arg
                        tn = t + arg
                    elif opcode == OP_WRITE:
                        write(pid, arg // line_size, t)
                        bd.cpu += 1
                        tn = t + 1
                    elif opcode == OP_BARRIER:
                        releases = sync.barrier(arg).arrive(pid, t)
                        if releases is not None:
                            for rpid, wait in releases:
                                breakdowns[rpid].sync += wait
                                heappush(heap, (t, seq, rpid)); seq += 1
                        tn = None  # waiting (or rescheduled in the releases)
                    elif opcode == OP_LOCK:
                        if sync.lock(arg).acquire(pid, t):
                            bd.cpu += 1
                            tn = t + 1
                        else:
                            tn = None  # blocked; rescheduled by the releaser
                    elif opcode == OP_UNLOCK:
                        handoff = sync.lock(arg).release(pid, t)
                        bd.cpu += 1
                        if handoff is None:
                            tn = t + 1
                        else:
                            # push order (self, then next holder) fixes the
                            # tie-break at t+1 exactly as it always did
                            heappush(heap, (t + 1, seq, pid)); seq += 1
                            next_pid, wait = handoff
                            nbd = breakdowns[next_pid]
                            nbd.sync += wait
                            nbd.cpu += 1  # the acquisition cycle of its LOCK
                            heappush(heap, (t + 1, seq, next_pid)); seq += 1
                            tn = None
                    else:
                        raise ValueError(f"unknown opcode {opcode}")

            # ---- scheduling tail
            if tn is None:  # blocked or finished
                if not heap:
                    break
                t, _, npid = heappop(heap)
            else:
                t, _, npid = heappushpop(heap, (tn, seq, pid)); seq += 1
                if npid == pid:
                    continue
            retry_line[pid] = pending
            pid = npid
            bd = breakdowns[pid]
            nxt = nexts[pid]
            pending = retry_line[pid]

        return self._finalize(breakdowns, finish, n_running)

    # ------------------------------------------------------------ wrap-up
    def _finalize(self, breakdowns: list[TimeBreakdown],
                  finish: list[int | None], n_running: int) -> RunResult:
        n = self.config.n_processors
        if n_running > 0:
            detail = self.sync.idle_check() or "processors blocked forever"
            stuck = [pid for pid in range(n) if finish[pid] is None]
            raise SimulationDeadlock(
                f"{len(stuck)} processors never finished ({detail}); "
                f"first stuck: {stuck[:8]}")

        # end-of-run slack: every processor waits for the slowest, charged
        # to sync so components sum exactly to the execution time
        execution_time = max(f for f in finish if f is not None) if n else 0
        for pid in range(n):
            fin = finish[pid]
            assert fin is not None
            breakdowns[pid].sync += execution_time - fin

        return assemble(execution_time, breakdowns, self.memory)

