"""Event-driven multiprocessor execution engine and program vocabulary.

A lazy facade: each name imports its submodule on first access, so
``repro.sim.compiled`` can load without the engine, and neither needs
the numpy that ``trace`` imports.
"""

from importlib import import_module

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

#: lazily re-exported name -> defining submodule
_LAZY = {
    "Engine": ".engine", "PerfectMemory": ".engine",
    "SimulationDeadlock": ".engine", "run_program": ".engine",
    "CompiledProgram": ".compiled", "ProgramRecorder": ".compiled",
    "TraceCache": ".compiled", "TraceDecodeError": ".compiled",
    "compile_program": ".compiled", "trace_key": ".compiled",
    **{name: ".program" for name in (
        "Work", "Read", "Write", "Barrier", "Lock", "Unlock",
        "OP_WORK", "OP_READ", "OP_WRITE", "OP_BARRIER", "OP_LOCK",
        "OP_UNLOCK", "Op", "Program", "ProgramFactory")},
    "BarrierState": ".sync", "LockState": ".sync", "SyncRegistry": ".sync",
    "RunSummary": ".stats", "summarize": ".stats",
    "ReferenceTrace": ".trace", "TracingMemory": ".trace",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_LAZY[name], __name__),
                                      name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
