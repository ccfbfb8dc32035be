"""Marshal one replay into the C kernel and write its end state back.

The kernel (:mod:`repro.native.build` compiles ``kernel.c``) runs the
entire replay — engine loop and memory-system transitions — in a
single call over zero-copy views of the program's ``array('q')``
opcode/operand columns and returns the full observable end state in one
int64 blob.  :func:`run_native` writes that
state back **in place** into the live :class:`CoherentMemorySystem`
objects — slot maps rebuilt in exact LRU/dict order, columns extended
with the cache's own growth schedule, counters accumulated — so the
memory system afterwards is indistinguishable from one the python
replay drove, and the caller can assemble the identical
:class:`~repro.core.metrics.RunResult`.

Error statuses map to the exact exceptions (type and message) the
python kernel raises; deadlock (status 1) writes the state back and
raises :class:`NativeDeadlock` carrying the finish times and sync
registry snapshot so the sim layer can produce the canonical
``SimulationDeadlock`` message.
"""

from __future__ import annotations

import ctypes
from typing import TYPE_CHECKING

from ..core.metrics import MissCause, TimeBreakdown

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import MachineConfig
    from ..memory.coherence import CoherentMemorySystem

__all__ = ["NativeDeadlock", "run_native"]

_M64 = 0xFFFFFFFFFFFFFFFF
_CAUSES = (MissCause.COLD, MissCause.CAPACITY, MissCause.COHERENCE)


class NativeDeadlock(Exception):
    """Deadlock detected by the kernel; state already written back.

    Carries everything the sim layer needs to raise the canonical
    ``SimulationDeadlock``: per-processor finish times (``None`` for the
    stuck ones) and the sync-registry end state in creation order.
    """

    def __init__(self, finish, barriers, locks):
        super().__init__("native replay deadlock")
        self.finish = finish
        #: [(barrier_id, episodes, [(pid, arrived), ...]), ...]
        self.barriers = barriers
        #: [(lock_id, holder_or_None, acquisitions, contended,
        #:   [(pid, arrived), ...]), ...]
        self.locks = locks


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


def run_native(lib, config: "MachineConfig", memory: "CoherentMemorySystem",
               program) -> tuple[int, list[TimeBreakdown]]:
    """Replay ``program`` on ``memory`` natively; return (time, breakdowns).

    ``memory`` must be fresh and flat (the ``native_fusible`` gate in
    :mod:`repro.sim.nativereplay` guarantees it).  Mutates ``memory``
    and its allocator in place to the exact end state the canonical
    python replay would leave.
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

    alloc = memory.allocator
    ph = alloc._page_home
    pages = (c64 * max(1, len(ph)))(*ph.keys())
    homes = (c64 * max(1, len(ph)))(*ph.values())

    cap = memory._capacity_lines
    finish_a = (c64 * n)()
    bd = (c64 * (4 * n))()
    exec_time = c64()
    err = (c64 * 2)()
    blob_p = P()
    blob_len = c64()

    st = lib.repro_replay(
        n, ncl, config.cluster_size,
        ops_arr, args_arr, lens,
        -1 if cap is None else cap,
        memory._local_clean, memory._remote_clean,
        memory._local_dirty_remote, memory._remote_dirty_3p,
        memory._lines_per_page, alloc._rr_next,
        pages, homes, len(ph),
        finish_a, bd, ctypes.byref(exec_time), err,
        ctypes.byref(blob_p), ctypes.byref(blob_len))

    if st < 0:
        # no state was exported; mirror the python kernel's exceptions
        if st == -2:
            raise ValueError(
                "requesting cluster cannot be the dirty owner on a miss")
        if st == -3:
            raise RuntimeError(f"processor {err[0]} re-acquiring held lock")
        if st == -4:
            holder = None if err[1] < 0 else err[1]
            raise RuntimeError(
                f"processor {err[0]} releasing lock held by {holder}")
        if st == -5:
            raise MemoryError("native replay kernel out of memory")
        raise RuntimeError(f"native replay kernel failed (status {st})")

    data = blob_p[0:blob_len.value]
    lib.repro_release(blob_p)
    barriers, locks = _writeback(memory, ncl, data)

    breakdowns = [TimeBreakdown(cpu=bd[4 * p], load=bd[4 * p + 1],
                                merge=bd[4 * p + 2], sync=bd[4 * p + 3])
                  for p in range(n)]
    if st == 1:
        finish = [None if finish_a[p] < 0 else finish_a[p]
                  for p in range(n)]
        raise NativeDeadlock(finish, barriers, locks)
    return exec_time.value, breakdowns


def _writeback(memory, ncl: int, data: list) -> tuple[list, list]:
    """Apply the kernel's end-state blob to the live memory objects."""
    alloc = memory.allocator
    i = 2
    rr_next, n_ft = data[0], data[1]
    page_home = alloc._page_home
    for _ in range(n_ft):
        page_home[data[i]] = data[i + 1]
        i += 2
    alloc.first_touch_pages += n_ft
    alloc._rr_next = rr_next

    directory = memory.directory
    directory.invalidations_sent += data[i]
    directory.replacement_hints += data[i + 1]
    directory.writebacks += data[i + 2]
    n_dir = data[i + 3]
    i += 4
    dtable = memory._dtable
    for _ in range(n_dir):
        line, dstate, mask = data[i], data[i + 1], data[i + 2]
        i += 3
        dtable[line] = ((mask & _M64) << 2) | dstate

    for cl in range(ncl):
        ctr = memory.counters[cl]
        (n_reads, n_writes, rm, wm, um, mg, mrf, pf,
         n_cold, n_cap, n_coh) = data[i:i + 11]
        i += 11
        ctr.reads += n_reads
        ctr.writes += n_writes
        ctr.read_misses += rm
        ctr.write_misses += wm
        ctr.upgrade_misses += um
        ctr.merges += mg
        ctr.merge_refetches += mrf
        ctr.prefetch_hits += pf
        by_cause = ctr.by_cause
        by_cause[MissCause.COLD] += n_cold
        by_cause[MissCause.CAPACITY] += n_cap
        by_cause[MissCause.COHERENCE] += n_coh

        cache = memory.caches[cl]
        evictions, inserts, n_slots, n_res, n_free = data[i:i + 5]
        i += 5
        cache.evictions += evictions
        cache.inserts += inserts
        add = n_slots - len(cache.state)
        if add:
            # grow in place to the kernel's slot count; freed slots keep
            # placeholder values (unobservable: every slot is rewritten
            # on install before any read)
            zeros = bytes(8 * add)
            cache.state.frombytes(zeros)
            cache.pending.extend([0] * add)
            cache.fetcher.extend([-1] * add)
            cache.tag.frombytes(zeros)
        slot_of = cache.slot_of
        state_col = cache.state
        pending_col = cache.pending
        fetcher_col = cache.fetcher
        tag_col = cache.tag
        # resident lines arrive in LRU order == python dict order
        for _ in range(n_res):
            line, slot, dstate, pu, fetcher = data[i:i + 5]
            i += 5
            slot_of[line] = slot
            state_col[slot] = dstate
            pending_col[slot] = pu
            fetcher_col[slot] = fetcher
            tag_col[slot] = line
        cache.free[:] = data[i:i + n_free]
        i += n_free
        n_hist = data[i]
        i += 1
        hist = memory._history[cl]
        for _ in range(n_hist):
            hist[data[i]] = _CAUSES[data[i + 1]]
            i += 2

    barriers = []
    n_bar = data[i]
    i += 1
    for _ in range(n_bar):
        bid, episodes, n_wait = data[i:i + 3]
        i += 3
        waiting = [(data[i + 2 * k], data[i + 2 * k + 1])
                   for k in range(n_wait)]
        i += 2 * n_wait
        barriers.append((bid, episodes, waiting))
    locks = []
    n_lk = data[i]
    i += 1
    for _ in range(n_lk):
        lid, holder, acq, cont, n_wait = data[i:i + 5]
        i += 5
        waiting = [(data[i + 2 * k], data[i + 2 * k + 1])
                   for k in range(n_wait)]
        i += 2 * n_wait
        locks.append((lid, None if holder < 0 else holder, acq, cont,
                      waiting))
    return barriers, locks
