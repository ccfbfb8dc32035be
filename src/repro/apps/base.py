"""Application framework: SPMD programs that really compute and emit
shared-memory reference streams.

Each application in :mod:`repro.apps` mirrors its SPLASH counterpart at the
level the paper's results depend on: the partitioning of shared data, the
phase/barrier structure, the communication topology, and the shape and size
of the per-process working sets.  The numerics are real — LU factorizes,
FFT transforms, Radix sorts, rays intersect spheres — so unit tests can
check each code against an independent reference, and the reference streams
are the streams of the actual algorithm, not a synthetic trace.

Conventions shared by all applications:

* **SPMD with global barriers.**  Every processor runs
  :meth:`Application.program` with its own id; barrier ids are drawn from a
  per-program :class:`PhaseBarriers` counter, which is safe because all
  processes pass the same barrier sequence.
* **Shared data lives in named regions** of one :class:`AddressSpace`;
  element-granularity ``Read``/``Write`` operations are emitted for shared
  accesses.  Private computation (including stack traffic, which the paper
  allocates locally so it always hits) is folded into ``Work`` cycles.
* **Placement**: applications that place data (paper §3.1) call
  :meth:`Application.place_partitions`, which assigns each processor's
  partition to that processor's *cluster* — so co-clustered processors'
  partitions share a home, exactly as on the simulated machine.
* **Determinism**: all randomness flows from ``numpy.random.default_rng``
  seeded with ``(app seed, processor id)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.compiled import CompiledProgram

import numpy as np

from ..core.config import MachineConfig
from ..core.metrics import RunResult
from ..memory import make_memory_system
from ..memory.address import AddressSpace, Region
from ..memory.allocation import PageAllocator
from ..sim.engine import Engine
from ..sim.program import (OP_READ, OP_WRITE, Barrier, Lock, Op, Read, Task,
                           Unlock, Write)

__all__ = ["Application", "PhaseBarriers", "TileQueueApplication",
           "direct_acceleration", "proc_grid_shape", "softened_pull"]


def softened_pull(m: np.ndarray | float, d: np.ndarray,
                  eps2: float) -> tuple[np.ndarray, np.ndarray]:
    """``(r2, m·d / (r2·√r2))`` per row of ``d``, with ``r2 = d·d + eps2``
    and ``m`` one mass per row or one for every row.

    Barnes and FMM evaluate their interactions as batches of rows and must
    produce the bits one ``d @ d`` per pair produced.  A stacked
    ``matmul`` of 1×k by k×1 runs the same dot kernel as ``d @ d``;
    ``einsum`` and ``(d * d).sum(1)`` round differently (the dot kernel
    may fuse multiply-add).  Callers accumulate the pulls in visit order
    (``np.add.at``), never with ``sum``, for the same reason.
    """
    r2 = np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0] + eps2
    return r2, np.reshape(m, (-1, 1)) * d / (r2 * np.sqrt(r2))[:, None]


def direct_acceleration(app: Any, body: int) -> np.ndarray:
    """O(n) reference acceleration of ``body`` from ``app``'s ``pos``,
    ``mass`` and ``eps2``: the tests' check on Barnes' and FMM's force
    phases, which bind it as their ``direct_acceleration`` method."""
    d = app.pos - app.pos[body]
    r2 = np.einsum("ij,ij->i", d, d) + app.eps2
    r2[body] = 1.0
    w = app.mass / (r2 * np.sqrt(r2))
    w[body] = 0.0
    return (w[:, None] * d).sum(axis=0)


class PhaseBarriers:
    """Sequential barrier-id source for one process.

    All processes of an SPMD program create their own instance and call it
    at the same program points, so matching calls produce matching ids.
    """

    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next = 0

    def __call__(self) -> int:
        bid = self._next
        self._next += 1
        return bid


def proc_grid_shape(n_processors: int) -> tuple[int, int]:
    """Near-square (rows, cols) factorization of the processor count.

    Ocean/Raytrace/Volrend partition a 2-D plane over a processor grid; for
    the paper's 64 processors this is 8×8.  Columns ≥ rows so that
    consecutive processor ids sweep along a row (the adjacency clustering
    exploits).
    """
    rows = int(np.sqrt(n_processors))
    while n_processors % rows:
        rows -= 1
    return rows, n_processors // rows


class Application(ABC):
    """Base class for the nine workloads.

    Subclasses implement :meth:`setup` (allocate + place regions, build the
    numerical problem) and :meth:`program` (the per-processor operation
    stream).  ``run()`` wires everything into the engine.

    Parameters
    ----------
    config:
        Machine organisation the run will use.
    seed:
        Master seed for all application randomness.
    """

    #: short registry name, set by subclasses
    name: str = "base"

    #: whether one capture (:meth:`compiled_program`) replays on every
    #: machine sharing this config's
    #: :meth:`~repro.core.config.MachineConfig.trace_signature` (processor
    #: count, line/page size).  Barnes sets this False: its processors
    #: insert bodies into a tree the others are building, so what each
    #: reads depends on simulated timing — capture requires
    #: :meth:`run_recorded`, and a capture is only valid for the exact
    #: machine configuration that produced it.  (The tile-queue codes are
    #: invariant at task granularity: :class:`TileQueueApplication`.)
    stream_invariant: bool = True

    def __init__(self, config: MachineConfig, seed: int = 12345) -> None:
        self.config = config
        self.seed = seed
        self.space = AddressSpace(page_size=config.page_size,
                                  line_size=config.line_size)
        self.allocator = PageAllocator(config.n_clusters, config.page_size,
                                       config.line_size)
        self._setup_done = False

    # ------------------------------------------------------------ lifecycle
    @abstractmethod
    def setup(self) -> None:
        """Allocate shared regions, place data, build the input problem."""

    @abstractmethod
    def program(self, pid: int) -> Iterator[Op]:
        """The operation stream of processor ``pid``."""

    def ensure_setup(self) -> None:
        if not self._setup_done:
            self.setup()
            self._setup_done = True

    def compiled_program(self) -> "CompiledProgram":
        """Capture this application's operation streams once, for replay.

        Drains :meth:`program` for every processor into a
        :class:`~repro.sim.compiled.CompiledProgram` (flat arrays, line
        numbers pre-divided, consecutive WORK ops fused).  The capture is
        valid for any machine sharing this config's
        :meth:`~repro.core.config.MachineConfig.trace_signature` — cluster
        size, cache sizing, and the network model may all differ.

        Only available when :attr:`stream_invariant` holds; Barnes must
        capture with :meth:`run_recorded` instead (its streams depend on
        simulated timing, which a static drain cannot know).
        """
        from ..sim.compiled import compile_program

        if not self.stream_invariant:
            raise ValueError(
                f"{self.name} streams depend on simulated timing "
                f"(stream_invariant=False); capture with run_recorded()")
        self.ensure_setup()
        return compile_program(self.program, self.config.n_processors,
                               self.config.line_size)

    def run_recorded(self) -> "tuple[RunResult, CompiledProgram]":
        """Generator-path run that also captures the executed streams.

        Works for every application — Barnes is the one that needs it —
        because the capture *is* the executed interleaving.
        Replaying the returned program on an identically-configured
        machine is bit-identical to the returned result; for
        :attr:`stream_invariant` apps the capture is additionally valid
        across cluster/cache/network variations, like
        :meth:`compiled_program`'s.
        """
        from ..sim.compiled import ProgramRecorder

        self.ensure_setup()
        memory = make_memory_system(self.config, self.allocator)
        recorder = ProgramRecorder(self.program, self.config.n_processors,
                                   self.config.line_size)
        result = Engine(self.config, memory).run(recorder.factory)
        return result, recorder.finish()

    def run(self, program: "CompiledProgram | None" = None,
            memory=None) -> RunResult:
        """Simulate this application on ``self.config`` and return the result.

        With ``program`` (a :class:`~repro.sim.compiled.CompiledProgram`,
        typically from :meth:`compiled_program` or a trace cache), the
        engine replays the capture instead of re-driving the generators —
        bit-identical, much faster.  Setup still runs either way: data
        *placement* depends on cluster geometry even though the operation
        streams do not.

        ``memory`` is a memory system the caller keeps to read afterwards
        (a :class:`~repro.sim.trace.TracingMemory`, a snoopy back end for
        its cache-to-cache count, a
        :class:`~repro.sim.engine.PerfectMemory`); by default the one
        ``self.config.protocol`` selects is built over this app's
        allocator.
        """
        self.ensure_setup()
        if memory is None:
            memory = make_memory_system(self.config, self.allocator)
        engine = Engine(self.config, memory)
        if program is not None:
            return engine.run_compiled(program)
        return engine.run(self.program)

    # ---------------------------------------------------------- rng helpers
    def rng(self, *stream: int) -> np.random.Generator:
        """Deterministic generator for a named stream (e.g. a processor id)."""
        return np.random.default_rng([self.seed, *stream])

    # ------------------------------------------------------ placement helpers
    def place_partitions(self, region: Region, n_partitions: int | None = None) -> None:
        """Place partition ``i`` of ``region`` at processor ``i``'s cluster.

        This is the SPLASH "my partition in my local memory" idiom under
        clustering: partitions of co-clustered processors share a home.
        With ``n_partitions=None`` the region splits over all processors.
        """
        n = self.config.n_processors if n_partitions is None else n_partitions
        if n <= 0:
            raise ValueError("n_partitions must be positive")
        chunk = region.size // n
        if chunk == 0:
            self.allocator.place_region(region, 0)
            return
        for i in range(n):
            start = region.base + i * chunk
            size = chunk if i < n - 1 else region.end - start
            cluster = self.config.cluster_of(i % self.config.n_processors)
            self.allocator.place_range(start, size, cluster)

    # ------------------------------------------------------ emission helpers
    def read_span(self, region: Region, start: int, count: int) -> Iterator[Op]:
        """Emit reads covering elements ``[start, start+count)`` of a region.

        One ``Read`` is emitted per cache line touched plus ``Work`` cycles
        for the remaining loads in the line: once the first load of a line
        completes the rest are guaranteed single-cycle hits (fully
        associative LRU, just touched), so this is timing- and
        coherence-equivalent to per-element emission while costing ~8×
        fewer engine events for dense sweeps.
        """
        return self._span(OP_READ, region, start, count)

    def write_span(self, region: Region, start: int, count: int) -> Iterator[Op]:
        """Emit writes covering elements ``[start, start+count)``; one
        ``Write`` per line plus ``Work`` for the rest (same argument as
        :meth:`read_span`; writes never stall)."""
        return self._span(OP_WRITE, region, start, count)

    def _span(self, opcode: int, region: Region, start: int,
              count: int) -> Iterator[Op]:
        """The one span emitter: ``opcode`` at the first element of each
        line of ``[start, start+count)``, then ``Work`` for the rest.  The
        public methods return it rather than ``yield from`` it, so a span
        costs its caller no extra generator frame per op."""
        if count <= 0:
            return
        line_size = self.config.line_size
        esz = region.element_size
        addr = region.element(start)
        end = addr + count * esz
        line = addr // line_size
        last_line = (end - 1) // line_size
        while line <= last_line:
            lo = max(addr, line * line_size)
            hi = min(end, (line + 1) * line_size)
            n_elems = (hi - lo) // esz
            yield (opcode, lo)
            if n_elems > 1:
                yield (0, n_elems - 1)  # OP_WORK: the guaranteed hits
            line += 1

    def place_interleaved(self, region: Region) -> None:
        """Place a region's pages round-robin across clusters.

        This is the paper's "distributed randomly among processors" for the
        read-only scene/volume data of Raytrace and Volrend: no owner, pages
        spread evenly so no home cluster becomes a hot spot.
        """
        page = self.config.page_size
        first = region.base // page
        last = (region.end - 1) // page
        for k, pg in enumerate(range(first, last + 1)):
            if self.allocator.bound_home(pg) is None:
                self.allocator.place_page(pg, k % self.config.n_clusters)

    def partition_slice(self, total: int, pid: int) -> range:
        """Contiguous share of ``total`` items owned by processor ``pid``."""
        n = self.config.n_processors
        per = total // n
        extra = total % n
        lo = pid * per + min(pid, extra)
        hi = lo + per + (1 if pid < extra else 0)
        return range(lo, hi)

    # ------------------------------------------------------------- describe
    def describe(self) -> str:
        """One-line description used by the CLI and experiment logs."""
        return f"{self.name} on {self.config.describe()}"


class TileQueueApplication(Application):
    """An image-plane code whose processors take tiles from one queue.

    Raytrace and Volrend render a ``width`` x ``height`` image in
    ``queue_tile``-square tiles handed out by a lock-protected global
    counter (SPLASH's task queues and task stealing: a static partition
    idles the processors whose tiles miss the scene).  Which tile a
    processor takes next is decided by the order the simulated machine
    grants that lock — and it is the *only* thing simulated time decides:
    the references a tile emits, :meth:`tile_ops`, are a pure function of
    the tile.  So the app is stream-invariant at task granularity:

    * :meth:`program` is the code as a processor runs it — take a tile
      under the lock, render it, repeat — with the counter in python;
    * :meth:`compiled_program` captures the same thing once, with no
      engine and no memory system, as a seven-op per-processor frame
      whose ``TASK 0`` stands where the python counter was, plus one
      sub-stream per tile (:func:`~repro.sim.program.Task`).  The take
      happens at the same event either way, so the trace replays
      bit-identically on every cluster size, cache, protocol and network.

    Subclasses allocate ``rqueue`` (the queue head) and ``rpixels`` in
    :meth:`setup` and implement :meth:`tile_ops`, which fills ``image``.
    """

    def __init__(self, config: MachineConfig, width: int, height: int,
                 queue_tile: int, seed: int) -> None:
        super().__init__(config, seed)
        self.pr, self.pc = proc_grid_shape(config.n_processors)
        if height % self.pr or width % self.pc:
            raise ValueError(
                f"image {width}x{height} must tile over the {self.pr}x"
                f"{self.pc} processor grid")
        if height % queue_tile or width % queue_tile:
            raise ValueError("queue_tile must divide the image dimensions")
        self.width, self.height = width, height
        self.tile_h, self.tile_w = height // self.pr, width // self.pc
        self.queue_tile = queue_tile
        self.n_tiles = (height // queue_tile) * (width // queue_tile)
        self.image = np.zeros((height, width))
        self._next_tile = 0

    @abstractmethod
    def tile_ops(self, tile: int) -> Iterator[Op]:
        """Render tile ``tile`` into ``image``, yielding its references."""

    def begin_render(self) -> None:
        """Reset what one rendering of the image accumulates."""
        self._next_tile = 0
        self.image.fill(0.0)

    def tile_pixels(self, tile: int) -> Iterator[tuple[int, int]]:
        """``(py, px)`` of every pixel of a tile, row by row."""
        qt = self.queue_tile
        ty, tx = divmod(tile, self.width // qt)
        for py in range(ty * qt, (ty + 1) * qt):
            for px in range(tx * qt, (tx + 1) * qt):
                yield py, px

    def _pixel_elem(self, py: int, px: int) -> int:
        """Tile-contiguous pixel layout ([proc][local row][local col]),
        like Ocean's grid."""
        pi, li = divmod(py, self.tile_h)
        pj, lj = divmod(px, self.tile_w)
        return ((pi * self.pc + pj) * self.tile_h + li) * self.tile_w + lj

    def program(self, pid: int) -> Iterator[Op]:
        """Render via the dynamic tile queue."""
        bar = PhaseBarriers()
        self.begin_render()  # runs in every program before any grab
        qaddr = self.rqueue.element(0)
        yield Barrier(bar())
        while True:
            yield Lock(0)
            yield Read(qaddr)
            tile = self._next_tile
            self._next_tile += 1
            yield Write(qaddr)
            yield Unlock(0)
            if tile >= self.n_tiles:
                break
            yield from self.tile_ops(tile)
        yield Barrier(bar())

    def compiled_program(self) -> "CompiledProgram":
        """Capture :meth:`program` once, for every machine (see the class).

        The frame is :meth:`program` up to its first take; a task is what
        runs from one take to the next — the rest of the grab that took
        it, the tile, and the next grab up to *its* take — so replay
        executes exactly the ops the generators would have.
        """
        from ..sim.compiled import compile_program

        self.ensure_setup()
        self.begin_render()
        qaddr = self.rqueue.element(0)

        def frame(pid: int) -> Iterator[Op]:
            bar = PhaseBarriers()
            return iter((Barrier(bar()), Lock(0), Read(qaddr), Task(0),
                         Write(qaddr), Unlock(0), Barrier(bar())))

        def task(tile: int) -> Iterator[Op]:
            yield Write(qaddr)
            yield Unlock(0)
            yield from self.tile_ops(tile)
            yield Lock(0)
            yield Read(qaddr)

        return compile_program(
            frame, self.config.n_processors, self.config.line_size,
            tasks=[[task(tile) for tile in range(self.n_tiles)]])
