"""Event-driven multiprocessor execution engine and program vocabulary."""

from .compiled import (CompiledProgram, ProgramRecorder, TraceCache,
                       TraceDecodeError, compile_program, trace_key)
from .engine import Engine, PerfectMemory, SimulationDeadlock, run_program
from .program import (OP_BARRIER, OP_LOCK, OP_READ, OP_UNLOCK, OP_WORK,
                      OP_WRITE, Barrier, Lock, Op, Program, ProgramFactory,
                      Read, Unlock, Work, Write)
from .stats import RunSummary, summarize
from .trace import ReferenceTrace, TracingMemory
from .sync import BarrierState, LockState, SyncRegistry

__all__ = [
    "Engine", "PerfectMemory", "SimulationDeadlock", "run_program",
    "CompiledProgram", "ProgramRecorder", "TraceCache", "TraceDecodeError",
    "compile_program", "trace_key",
    "Work", "Read", "Write", "Barrier", "Lock", "Unlock",
    "OP_WORK", "OP_READ", "OP_WRITE", "OP_BARRIER", "OP_LOCK", "OP_UNLOCK",
    "Op", "Program", "ProgramFactory",
    "BarrierState", "LockState", "SyncRegistry",
    "RunSummary", "summarize",
    "ReferenceTrace", "TracingMemory",
]
