"""Marshal one replay into the C kernel and unpack the numbers it returns.

The kernel (:mod:`repro.native.build` compiles ``kernel.c``) runs the
entire replay — engine loop, memory-system transitions of any of the
three protocols, Table-1 or mesh miss pricing — in a single call that
reads the program's opcode/operand columns in place, in its one buffer,
and fills caller-allocated arrays whose sizes depend only on the
processor and cluster counts: per-processor time breakdowns,
per-cluster counters, per-cache evictions/inserts, and ten totals plus
one double.  :func:`run_native` unpacks them into a
:class:`NativeOutput`; no memory system or latency provider is
constructed or mutated, and the application's allocator is only read
(its page bindings seed the kernel's first-touch placement).

Mesh pricing: python builds the tables, C only walks them.  The routes
and calibrated base costs come from the very
:class:`~repro.network.latency.MeshLatency` and topology code the
python replay prices with (:func:`_mesh_tables`, memoised per
topology, cluster count, hop cost and latency table — a cache-size or
load sweep builds them once), so the kernel re-implements no topology.

A kernel *fault* status (deadlock, lock misuse, dirty-owner miss, or an
operand capture would have refused: unknown opcode, negative WORK, a
``TASK`` without a queue or inside a task) makes
:func:`run_native` return ``None``: the caller declines the point and
the canonical python replay raises the canonical error.
"""

from __future__ import annotations

import ctypes
from typing import TYPE_CHECKING, NamedTuple

from ..core.metrics import (MissCause, MissCounters, NetworkStats,
                            TimeBreakdown)
from ..memory.snoopy import DEFAULT_C2C_LATENCY, DEFAULT_SNOOP_PENALTY
from ..network.contention import UTILIZATION_CAP, WARMUP_CYCLES
from ..network.latency import MeshLatency

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import MachineConfig
    from ..memory.allocation import PageAllocator

__all__ = ["NativeOutput", "cache_lines", "run_native"]

#: per-cluster counter row length; layout in kernel.c (``NCTR``)
_NCTR = 11
_ST_NOMEM = -1
#: ``P_*`` of kernel.c
_PROTOCOLS = {"directory": 0, "snoopy": 1, "dls": 2}

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


#: (topology, n_clusters, hop cycles, latency table) -> the tables of
#: :func:`_mesh_tables`; a handful of entries per process
_TABLES: dict = {}


def _mesh_tables(config: "MachineConfig"):
    """``(n_links, route_off, route_link, base3)`` of the config's mesh.

    Routes in CSR form — leg ``a -> b`` crosses
    ``route_link[route_off[a * n + b]:route_off[a * n + b + 1]]``, so
    its hop count is the slice length — and the three-leg base cost per
    (requester, home), each a double produced by the expression
    :meth:`MeshLatency.miss_cycles` itself uses.  Nothing here depends
    on load, contention or directory occupancy, hence the key.
    """
    net = config.network
    n = config.n_clusters
    key = (net.topology, n, net.hop_cycles, config.latency)
    tables = _TABLES.get(key)
    if tables is None:
        mesh = MeshLatency(config)
        offsets, links = [0], []
        for a in range(n):
            for b in range(n):
                links.extend(mesh.topology.route(a, b))
                offsets.append(len(links))
        base3 = [mesh.three_leg_base(a, b)
                 for a in range(n) for b in range(n)]
        tables = _TABLES[key] = (
            mesh.topology.n_links,
            (_c64 * len(offsets))(*offsets),
            (_c64 * max(1, len(links)))(*links),
            (ctypes.c_double * len(base3))(*base3))
    return tables


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

    # zero-copy: the kernel reads the program's one buffer in place, at
    # its base address plus each section's offset (ops/args per
    # processor, then the task pair).  A mapped buffer is ACCESS_COPY, so
    # the writability from_buffer demands never reaches the file.
    base = ctypes.addressof(ctypes.c_char.from_buffer(program.buffer))
    ptrs = [ctypes.cast(base + off, _P64) for off in program.section_offsets]
    ops_arr = (_P64 * n)(*ptrs[0:2 * n:2])
    args_arr = (_P64 * n)(*ptrs[1:2 * n:2])
    lens = (_c64 * n)(*map(len, program.ops))

    # the task table; each queue's take counter starts at its first task
    t_off, q_end = program.task_offsets()
    n_queues = len(q_end)
    q_next = (_c64 * max(1, n_queues))(0, *q_end[:-1])

    ph = allocator.page_homes
    pages = (_c64 * max(1, len(ph)))(*ph.keys())
    homes = (_c64 * max(1, len(ph)))(*ph.values())

    net = config.network
    mesh = None
    if net.provider == "mesh":
        n_links, route_off, route_link, base3 = _mesh_tables(config)
        mesh = ctypes.byref(_Mesh(
            net.hop_cycles, net.directory_cycles, n_links, net.contention,
            WARMUP_CYCLES, net.background_load, UTILIZATION_CAP,
            route_off, route_link, base3))

    cap = cache_lines(config)
    latency = config.latency
    bd = (_c64 * (4 * n))()
    ctr = (_c64 * (_NCTR * ncl))()
    cio = (_c64 * (2 * n_caches))()
    totals = (_c64 * 10)()
    peak = ctypes.c_double()

    st = lib.repro_replay(
        n, ncl, config.cluster_size,
        ops_arr, args_arr, lens,
        ptrs[-2], ptrs[-1],
        (_c64 * len(t_off))(*t_off), q_next,
        (_c64 * max(1, n_queues))(*q_end), n_queues,
        _PROTOCOLS[config.protocol], -1 if cap is None else cap,
        DEFAULT_SNOOP_PENALTY, DEFAULT_C2C_LATENCY,
        latency.local_clean, latency.remote_clean,
        latency.local_dirty_remote, latency.remote_dirty_third_party,
        mesh,
        config.page_size // config.line_size, allocator.next_home,
        pages, homes, len(ph),
        bd, ctr, cio, totals, ctypes.byref(peak))
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
                             by_cause=dict(zip(MissCause, row[8:])))
                for row in rows]
    network = (None if mesh is None
               else NetworkStats(*totals[5:], peak.value))
    return NativeOutput(totals[0], breakdowns, counters,
                        cio[0::2], cio[1::2], *totals[1:5], network)
