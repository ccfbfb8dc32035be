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
from ..native.driver import cache_lines, run_native
from .stats import build

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import MachineConfig
    from .compiled import CompiledProgram

__all__ = ["native_decline_reason", "try_replay_native"]


def native_decline_reason(config: "MachineConfig") -> str | None:
    """Why the C kernel cannot run this machine (``None``: it can).

    The kernel implements every protocol and both latency providers,
    over fully associative caches, and keeps one bit per cache in a
    machine word: the sharer mask has a bit per cluster, the miss
    history a bit per cache — per processor under snoopy.  Geometry is
    judged on the capacity the protocol's caches really have
    (:func:`~repro.native.driver.cache_lines`): ways that cover a
    snoopy processor cache need not cover a shared cluster cache.
    Capacity itself needs no check: it is at least 1 line.
    """
    if config.n_clusters > 64:
        return "over-64-clusters"
    if config.protocol == "snoopy" and config.n_processors > 64:
        return "over-64-processors"
    if not fully_associative(cache_lines(config), config.associativity):
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
    app.ensure_placed()
    out = run_native(lib, config, app.allocator, program)
    if out is None:
        return None
    return build(out.execution_time, out.breakdowns,
                 MissCounters.summed(out.counters), out.counters, out.network)
