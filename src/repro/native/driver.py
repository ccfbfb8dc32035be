"""Marshal one replay into the C kernel and unpack the numbers it returns.

The kernel (:mod:`repro.native.build` compiles ``kernel.c``) runs the
entire replay — engine loop, memory-system transitions of any of the
three protocols, Table-1 or mesh miss pricing — in a single call that
reads the program's word columns in place, in its one buffer,
and fills caller-allocated arrays whose sizes depend only on the
processor and cluster counts: per-processor time breakdowns,
per-cluster counters, per-cache evictions/inserts, and ten totals plus
one double.  :func:`run_native` unpacks them into a
:class:`NativeOutput`; no memory system or latency provider is
constructed or mutated, and the application's allocator is only read
(its page bindings seed the kernel's first-touch placement).  The
arguments that depend on the program alone are built once per program
(:func:`_program_args`) and kept on it.

Mesh pricing: python builds the tables, C only walks them.  The routes
and calibrated base costs come from the very
:class:`~repro.network.latency.MeshLatency` and topology code the
python replay prices with (:func:`_mesh_tables`, memoised per cluster
count — a cache-size or load sweep builds them once), so the kernel
re-implements no topology.

A kernel *fault* status (deadlock, lock misuse, dirty-owner miss, or an
operand capture would have refused: unknown opcode, negative WORK, a
``TASK`` without a queue or inside a task) makes
:func:`run_native` return ``None``: the caller declines the point and
the canonical python replay raises the canonical error.
"""

from __future__ import annotations

import ctypes
import functools
from typing import TYPE_CHECKING, NamedTuple

from ..core.config import LatencyModel, MachineConfig
from ..core.metrics import (MissCause, MissCounters, NetworkStats,
                            TimeBreakdown)
from ..memory.snoopy import DEFAULT_C2C_LATENCY, DEFAULT_SNOOP_PENALTY
from ..network.contention import UTILIZATION_CAP, WARMUP_CYCLES
from ..network.latency import HOP_CYCLES, MeshLatency

if TYPE_CHECKING:  # pragma: no cover
    from ..memory.allocation import PageAllocator

__all__ = ["NativeOutput", "cache_lines", "run_native"]

#: per-cluster counter row length; layout in kernel.c (``NCTR``)
_NCTR = 11
_ST_NOMEM = -1
#: ``P_*`` of kernel.c
_PROTOCOLS = {"directory": 0, "snoopy": 1, "dls": 2}
_CAUSES = tuple(MissCause)  # iterating the enum is a python loop

_c64 = ctypes.c_int64
_P64 = ctypes.POINTER(_c64)


class _Mesh(ctypes.Structure):
    """``Mesh`` of kernel.c, field for field."""

    _fields_ = [("hop", _c64), ("dir_service", _c64), ("n_links", _c64),
                ("contention", _c64), ("warmup", _c64),
                ("background", ctypes.c_double), ("cap", ctypes.c_double),
                ("route_off", _P64), ("route_link", _P64),
                ("base3", ctypes.POINTER(ctypes.c_double))]


class NativeOutput(NamedTuple):
    """Everything one kernel call returns (sizes fixed by the machine)."""

    execution_time: int
    breakdowns: list[TimeBreakdown]
    #: per-cluster miss counters, the ``RunResult`` half of each row
    counters: list[MissCounters]
    #: per-cache evictions / inserts (not part of ``RunResult``): one
    #: entry per cluster, or per processor under snoopy
    evictions: list[int]
    inserts: list[int]
    invalidations_sent: int
    replacement_hints: int
    writebacks: int
    first_touch_pages: int
    #: interconnect counters (``None`` under the flat-table provider)
    network: NetworkStats | None


def cache_lines(config: "MachineConfig") -> int | None:
    """Capacity in lines of each of the protocol's caches (``None`` =
    infinite): the cluster's shared cache or LLC slice, or — under
    snoopy, which has none — each processor's own cache."""
    if config.protocol == "snoopy":
        return config.processor_cache_lines
    return config.cluster_cache_lines


@functools.cache  # a handful of cluster counts per process
def _mesh_tables(n: int):
    """``(n_links, route_off, route_link, base3)`` of the ``n``-cluster
    mesh.

    Routes in CSR form — leg ``a -> b`` crosses
    ``route_link[route_off[a * n + b]:route_off[a * n + b + 1]]``, so
    its hop count is the slice length — and the three-leg base cost per
    (requester, home), each a double produced by the expression
    :meth:`MeshLatency.miss_cycles` itself uses.  Nothing here depends
    on load, contention or directory occupancy, so the cluster count is
    the whole key.
    """
    mesh = MeshLatency(n)
    offsets, links = [0], []
    for a in range(n):
        for b in range(n):
            links.extend(mesh.topology.route(a, b))
            offsets.append(len(links))
    base3 = [mesh.three_leg_base(a, b) for a in range(n) for b in range(n)]
    return (mesh.topology.n_links,
            (_c64 * len(offsets))(*offsets),
            (_c64 * max(1, len(links)))(*links),
            (ctypes.c_double * len(base3))(*base3))


def _program_args(program) -> tuple:
    """The per-program half of ``repro_replay``'s arguments: the kernel
    reads the buffer in place through ``anchor``, an export that keeps it
    from being closed (a mapped buffer is ACCESS_COPY: the writability
    ``from_buffer`` demands never reaches the file)."""
    anchor = ctypes.c_char.from_buffer(program.buffer)
    base = ctypes.addressof(anchor)
    ptrs = [ctypes.cast(base + off, _P64) for off in program.section_offsets]
    n = len(program.words)
    t_off, q_end = program.task_offsets()
    n_queues = len(q_end)
    return (anchor, (_P64 * n)(*ptrs[:n]), (_c64 * n)(*map(len, program.words)),
            ptrs[-1], (_c64 * len(t_off))(*t_off),
            (_c64 * max(1, n_queues))(*q_end), n_queues, [0, *q_end[:-1]])


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
    n_caches = n if config.protocol == "snoopy" else ncl

    program.kernel_args = args = (program.kernel_args
                                  or _program_args(program))
    _, words, lens, t_words, t_off, q_end, n_queues, q_first = args
    # the kernel advances each queue's take counter: a fresh copy a call
    q_next = (_c64 * len(q_first))(*q_first)

    ph = allocator.page_homes
    pages = (_c64 * max(1, len(ph)))(*ph.keys())
    homes = (_c64 * max(1, len(ph)))(*ph.values())

    net = config.network
    mesh = None
    if net.provider == "mesh":
        n_links, route_off, route_link, base3 = _mesh_tables(ncl)
        mesh = ctypes.byref(_Mesh(
            HOP_CYCLES, net.directory_cycles, n_links, net.contention,
            WARMUP_CYCLES, net.background_load, UTILIZATION_CAP,
            route_off, route_link, base3))

    cap = cache_lines(config)
    bd = (_c64 * (4 * n))()
    ctr = (_c64 * (_NCTR * ncl))()
    cio = (_c64 * (2 * n_caches))()
    totals = (_c64 * 10)()
    peak = ctypes.c_double()

    st = lib.repro_replay(
        n, ncl, config.cluster_size,
        words, lens, t_words, t_off, q_next, q_end, n_queues,
        _PROTOCOLS[config.protocol], -1 if cap is None else cap,
        DEFAULT_SNOOP_PENALTY, DEFAULT_C2C_LATENCY,
        LatencyModel.LOCAL_CLEAN, LatencyModel.REMOTE_CLEAN,
        LatencyModel.LOCAL_DIRTY_REMOTE, LatencyModel.REMOTE_DIRTY_THIRD_PARTY,
        mesh,
        config.page_size // config.line_size, allocator.next_home,
        pages, homes, len(ph),
        bd, ctr, cio, totals, ctypes.byref(peak))
    if st == _ST_NOMEM:
        raise MemoryError("native replay kernel out of memory")
    if st != 0:
        return None

    # each output array is read with one slice, then split in python
    bd, ctr, cio, totals = bd[:], ctr[:], cio[:], totals[:]
    breakdowns = list(map(TimeBreakdown, *(bd[k::4] for k in range(4))))
    # by_cause in MissCause declaration order: it is the JSON key order
    counters = [MissCounters(*ctr[i:i + 8], dict(zip(_CAUSES,
                                                     ctr[i + 8:i + _NCTR])))
                for i in range(0, len(ctr), _NCTR)]
    network = (None if mesh is None
               else NetworkStats(*totals[5:], peak.value))
    return NativeOutput(totals[0], breakdowns, counters,
                        cio[0::2], cio[1::2], *totals[1:5], network)
