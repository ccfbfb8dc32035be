"""Native-kernel replay: eligibility gate and RunResult assembly.

Bridges :mod:`repro.native` (rank 2: the C kernel, its build layer, and
the raw driver) into the simulation layer.  :func:`try_replay_native` is
the per-point seam: when the kernel is selected and the machine is
eligible it returns the same byte-identical
:class:`~repro.core.metrics.RunResult` ``app.run(program=...)`` would —
the kernel returns the numbers a result is made of and
:func:`repro.sim.stats.build` makes the result from them —
and otherwise ``None``, leaving the point (and every error it may
raise) to the canonical python replay.

Eligibility is a pure function of the resolved
:class:`~repro.core.config.MachineConfig`
(:func:`native_decline_reason`): no memory system is constructed to
decide it, and none is constructed or mutated to run the point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import repro.native as native
from ..core.metrics import MissCounters, RunResult
from ..memory.cache import fully_associative
from ..native.driver import run_native
from .stats import build

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import MachineConfig
    from .compiled import CompiledProgram

__all__ = ["NATIVE_PROTOCOLS", "native_decline_reason", "try_replay_native"]

#: coherence protocols the C kernel implements.  Anything else degrades
#: to the canonical python path (the CLI's forced ``--native``
#: additionally refuses the combination up front, exit 2).
NATIVE_PROTOCOLS = frozenset({"directory"})


def native_decline_reason(config: "MachineConfig") -> str | None:
    """Why the C kernel cannot run this machine (``None``: it can).

    The kernel implements the directory protocol over fully associative
    caches with the flat Table-1 latencies (the mesh provider is
    stateful python) and keeps each sharer mask in one machine word.
    Capacity needs no check: ``cluster_cache_lines`` is at least 1.
    """
    if config.protocol not in NATIVE_PROTOCOLS:
        return f"{config.protocol}-protocol"
    if config.network.provider != "table":
        return f"{config.network.provider}-latency"
    if config.n_clusters > 64:
        return "over-64-clusters"
    if not fully_associative(config.cluster_cache_lines,
                             config.associativity):
        return "set-associative"
    return None


def try_replay_native(config: "MachineConfig", app,
                      program: "CompiledProgram") -> RunResult | None:
    """Per-point seam: run natively when selected and eligible, else None.

    Every case that is not a clean native run — python selected, an
    ineligible machine, a program captured for another machine, a
    kernel fault (deadlock, lock misuse, bad operand) — returns ``None``
    so the canonical path runs the point and raises its own exact
    errors; the application's allocator is left untouched for it.
    """
    if native_decline_reason(config) is not None:
        return None
    lib = native.kernel()
    if lib is None:
        return None
    if (program.n_processors != config.n_processors
            or program.line_size != config.line_size):
        return None
    app.ensure_setup()
    out = run_native(lib, config, app.allocator, program)
    if out is None:
        return None
    total = MissCounters()
    for ctr in out.counters:
        ctr.merged_into(total)
    return build(out.execution_time, out.breakdowns, total, out.counters,
                 None)
