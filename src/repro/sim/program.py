"""Operation vocabulary for simulated parallel programs.

A simulated *program* is a function ``program(processor_id) -> iterator`` of
operations.  The engine pulls operations one at a time and charges their cost
to the issuing processor's clock, exactly as an execution-driven simulator
interleaves instrumented application threads (the paper's Tango-lite).

Operations are plain tuples ``(opcode, operand)`` — the engine executes
millions of them, so we avoid per-op object allocation beyond the tuple
itself.  Applications use the constructor helpers below rather than raw
tuples, keeping call sites readable:

>>> def worker(pid):
...     yield Work(100)          # 100 cycles of private computation
...     yield Read(0x1000)       # shared-data read (may stall)
...     yield Write(0x1000)      # shared-data write (never stalls)
...     yield Barrier(0)         # global barrier 0
...     yield Lock(3); yield Unlock(3)

``Work`` aggregates everything the paper charges to CPU busy time other than
shared references: instruction execution and private/stack references (which
are allocated locally and always hit).
"""

from __future__ import annotations

from typing import Callable, Iterator

__all__ = ["OP_WORK", "OP_READ", "OP_WRITE", "OP_BARRIER", "OP_LOCK",
           "OP_UNLOCK", "OP_TASK", "Work", "Read", "Write", "Barrier", "Lock",
           "Unlock", "Task", "Op", "Program", "ProgramFactory"]

OP_WORK = 0
OP_READ = 1
OP_WRITE = 2
OP_BARRIER = 3
OP_LOCK = 4
OP_UNLOCK = 5
#: trace-only: take the next task of a shared queue (see :func:`Task`)
OP_TASK = 6

#: An operation: (opcode, operand).
Op = tuple[int, int]
#: A per-processor instruction stream.
Program = Iterator[Op]
#: ``factory(processor_id) -> Program`` — what applications hand the engine.
ProgramFactory = Callable[[int], Program]


def Work(cycles: int) -> Op:
    """``cycles`` of processor-private computation (always ≥ 0)."""
    return (OP_WORK, cycles)


def Read(addr: int) -> Op:
    """Read of shared byte address ``addr`` (blocks on a miss)."""
    return (OP_READ, addr)


def Write(addr: int) -> Op:
    """Write of shared byte address ``addr`` (latency hidden)."""
    return (OP_WRITE, addr)


def Barrier(barrier_id: int) -> Op:
    """Arrive at global barrier ``barrier_id``; resume when all arrive."""
    return (OP_BARRIER, barrier_id)


def Lock(lock_id: int) -> Op:
    """Acquire lock ``lock_id`` (FIFO; waiting is charged to sync time)."""
    return (OP_LOCK, lock_id)


def Unlock(lock_id: int) -> Op:
    """Release lock ``lock_id`` (must be held by the issuing processor)."""
    return (OP_UNLOCK, lock_id)


def Task(queue_id: int) -> Op:
    """Take the next task of shared queue ``queue_id`` and run it.

    The one op a generator never yields to the engine: it stands, in a
    captured trace, for the python statement a task-queue code executes
    between two yields — ``task = self._next; self._next += 1``.  At the
    event where the generator would have been resumed, the interpreter
    takes the queue's next index; if a task remains it runs that task's
    stored sub-stream and comes back to the same ``TASK``, else it falls
    through.  It costs no simulated time and is not counted as an op
    (:mod:`repro.sim.compiled` expands it before the engine sees it;
    ``kernel.c`` dispatches it).
    """
    return (OP_TASK, queue_id)
