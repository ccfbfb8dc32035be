"""Marshal one replay into the C kernel and unpack the numbers it returns.

The kernel (:mod:`repro.native.build` compiles ``kernel.c``) runs the
entire replay — engine loop and memory-system transitions — in a
single call over zero-copy views of the program's ``array('q')``
opcode/operand columns, and fills three caller-allocated arrays whose
sizes depend only on the processor and cluster counts: per-processor
time breakdowns, per-cluster counters, and five totals.
:func:`run_native` unpacks them into a :class:`NativeOutput`; no memory
system is constructed or mutated, and the application's allocator is
only read (its page bindings seed the kernel's first-touch placement).

A kernel *fault* status (deadlock, lock misuse, dirty-owner miss, or an
operand capture would have refused: unknown opcode, negative WORK) makes
:func:`run_native` return ``None``: the caller declines the point and
the canonical python replay raises the canonical error.
"""

from __future__ import annotations

import ctypes
from typing import TYPE_CHECKING, NamedTuple

from ..core.metrics import MissCause, MissCounters, TimeBreakdown

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import MachineConfig
    from ..memory.allocation import PageAllocator

__all__ = ["NativeOutput", "run_native"]

#: per-cluster counter row length; layout in kernel.c (``NCTR``)
_NCTR = 13
_ST_NOMEM = -1


class NativeOutput(NamedTuple):
    """Everything one kernel call returns (sizes fixed by the machine)."""

    execution_time: int
    breakdowns: list[TimeBreakdown]
    #: per-cluster miss counters, the ``RunResult`` half of each row
    counters: list[MissCounters]
    #: per-cluster cache evictions / inserts (not part of ``RunResult``)
    evictions: list[int]
    inserts: list[int]
    invalidations_sent: int
    replacement_hints: int
    writebacks: int
    first_touch_pages: int


def _column_pointer(col, ptype):
    """``int64*`` over a program column without copying its payload.

    ``array('q')`` columns expose their buffer address directly; mapped
    programs carry ``memoryview`` slices over a copy-on-write file
    mapping, which ``ctypes.from_buffer`` turns into the same flat
    pointer — the kernel then reads the page cache in place (the mapping
    is ``ACCESS_COPY``, so the writability ``from_buffer`` demands never
    reaches the file; the kernel itself treats the columns as ``const``).
    An empty column has no buffer to take an address of — the kernel
    never dereferences a processor whose length is 0, so NULL is exact.
    """
    if len(col) == 0:
        return ctypes.cast(None, ptype)
    if hasattr(col, "buffer_info"):  # array('q')
        return ctypes.cast(col.buffer_info()[0], ptype)
    return ctypes.cast(ctypes.addressof(ctypes.c_char.from_buffer(col)),
                       ptype)


def run_native(lib, config: "MachineConfig", allocator: "PageAllocator",
               program) -> NativeOutput | None:
    """Replay ``program`` on ``config``'s machine natively.

    ``config`` must be eligible (``native_decline_reason`` in
    :mod:`repro.sim.nativereplay` is ``None``) and ``program`` captured
    for its processor count and line size.  Returns ``None`` when the
    kernel reports a fault; raises :class:`MemoryError` when it runs
    out of memory.  ``allocator`` is read, never written.
    """
    n = config.n_processors
    ncl = config.n_clusters
    c64 = ctypes.c_int64
    P = ctypes.POINTER(c64)

    # zero-copy column views; keep the arrays (or the mmap behind a
    # mapped program's memoryviews) referenced for the call
    ops_cols = program.ops
    args_cols = program.args
    ops_arr = (P * n)(*[_column_pointer(c, P) for c in ops_cols])
    args_arr = (P * n)(*[_column_pointer(c, P) for c in args_cols])
    lens = (c64 * n)(*[len(c) for c in ops_cols])

    ph = allocator.page_homes
    pages = (c64 * max(1, len(ph)))(*ph.keys())
    homes = (c64 * max(1, len(ph)))(*ph.values())

    cap = config.cluster_cache_lines
    latency = config.latency
    bd = (c64 * (4 * n))()
    ctr = (c64 * (_NCTR * ncl))()
    totals = (c64 * 5)()

    st = lib.repro_replay(
        n, ncl, config.cluster_size,
        ops_arr, args_arr, lens,
        -1 if cap is None else cap,
        latency.local_clean, latency.remote_clean,
        latency.local_dirty_remote, latency.remote_dirty_third_party,
        config.page_size // config.line_size, allocator.next_home,
        pages, homes, len(ph),
        bd, ctr, totals)
    if st == _ST_NOMEM:
        raise MemoryError("native replay kernel out of memory")
    if st != 0:
        return None

    breakdowns = [TimeBreakdown(cpu=bd[4 * p], load=bd[4 * p + 1],
                                merge=bd[4 * p + 2], sync=bd[4 * p + 3])
                  for p in range(n)]
    rows = [ctr[_NCTR * cl:_NCTR * (cl + 1)] for cl in range(ncl)]
    # by_cause in MissCause declaration order: it is the JSON key order
    counters = [MissCounters(*row[:8],
                             by_cause=dict(zip(MissCause, row[8:11])))
                for row in rows]
    return NativeOutput(totals[0], breakdowns, counters,
                        [row[11] for row in rows],
                        [row[12] for row in rows],
                        totals[1], totals[2], totals[3], totals[4])
