"""Compiled-trace execution: a captured program is one self-describing buffer.

The execution engine historically pulled one ``(opcode, arg)`` tuple per
simulated operation out of a per-processor Python generator.  Each pull is a
generator resumption plus a tuple allocation plus a tuple unpack — pure
interpreter overhead that dwarfs the simulated work for memory-light ops.
Worse, every sweep point regenerated the *identical* stream from scratch:
the reference stream of an application depends only on the problem
(app + kwargs + seed) and the stream-relevant machine fields
(:meth:`~repro.core.config.MachineConfig.trace_signature` — processor
count, line size, page size), **not** on cluster size, cache capacity,
latency table, or network model.  A cluster-size × cache-size grid can
therefore capture each app's program once and replay it everywhere.

This module provides that capture/replay layer:

* :class:`CompiledProgram` — one buffer laid out as the program's
  ``RPROTRC4`` blob: one int64 **word per op** per processor, plus a
  **task table** for the task-queue codes, behind a JSON header.  A
  word is ``arg << 3 | opcode``, so ``word & 7`` is the opcode and
  ``word >> 3`` (arithmetic) the operand, for any operand in
  ``[-2**60, 2**60)``.  READ/WRITE operands are pre-divided by the line
  size and consecutive WORK ops are fused at compile time; the engine
  replays a program by decoding its ``memoryview`` columns, the native
  kernel by address;
* :func:`compile_program` — drain a generator-based program factory (and
  the bodies of its task queues) once into a :class:`CompiledProgram`.
  While an app is captured, each batch it builds as arrays reaches the
  drain as one ``OP_WORDS`` item, a processor's part of a
  :class:`~repro.sim.program.Batch`; the words of every part (the very
  words its per-op tuples would store) are built once, in numpy, and
  each part's appended at C speed.  Every other run of the app yields
  the same ops as tuples, so the per-op drain stays the oracle;
* :func:`trace_key` — content hash identifying one compiled trace
  (version, app, kwargs, seed, stream-relevant machine fields);
* :class:`TraceCache` — process-wide in-memory LRU of compiled programs
  plus an optional persistent tier
  (:class:`~repro.core.resultcache.TraceStore`), so a sweep compiles each
  app once per process and ``--jobs`` worker processes share traces via
  disk.

**Task queues.**  What simulated time decides in a task-queue code
(Raytrace, Volrend) is one integer per grab — which task the processor
that holds the queue lock takes next — while the references a task emits
are a pure function of the task.  A capture therefore stores each task's
sub-stream once and a ``TASK q`` op (:func:`~repro.sim.program.Task`) in
the per-processor frame where the grab was; replay takes the next index
of a per-replay counter there, runs that sub-stream and returns to the
same ``TASK`` until the queue is empty.  The counter is taken at the
event where the generator would have been resumed, and the lock around
it serialises the takes, so take order *is* lock-grant order in either
interpreter and the trace is as machine-independent as a static app's.

**One layout, in memory and on disk.**  ``RPROTRC4`` is an aligned,
uncompressed int64 section of words per processor (and one for the task
table) behind a JSON header that declares the item size and byte order (the
host's).  Every capture is packed once, by the constructor, into an
anonymous ``mmap`` of the blob's final size, column by column, releasing
each drained column once it is copied; :meth:`TraceCache.put` writes that
buffer to the store as it is, the one trace write.
:meth:`CompiledProgram.from_file` maps a stored blob copy-on-write
(``mmap.ACCESS_COPY``) as the buffer of a program that is otherwise the
same object.  A mapped program costs ~0 resident
bytes until touched, its pages are shared between every process
mapping the same blob (``--jobs`` workers, the sweep daemon, parallel
CLI runs), and the native kernel (:mod:`repro.native`) replays any
program by its buffer's address — no copy.  The python engine decodes
each column with C-level ``map`` calls (``zip`` of the opcode and
operand maps boxes one op at a time), so paper-scale traces (512² LU ≈
22 MB) stream through a bounded footprint.  A blob written on a host
of the other byte order fails to decode, like any corrupt blob; one
whose magic is a retired ``RPROTRC`` version is a plain store miss,
overwritten by the recapture.

The in-memory LRU is governed by a **byte budget** (``_LRU_BYTES``,
256 MiB) that charges mapped programs a token constant — so paper-scale
mapped traces stay resident while in-memory ones are evicted by size —
and by a fixed count of mapped programs (store hits), because each
mapping holds a file descriptor.

Replay is **bit-identical** to generator execution: the engine's golden
and equivalence suites (``tests/test_golden_regression.py``,
``tests/test_compiled.py``, ``tests/test_tracestream.py``) compare
canonical ``RunResult`` JSON byte-for-byte.  A corrupted or stale disk
trace is never fatal — it decodes to a miss (with a warning) and the
program is regenerated.
"""

from __future__ import annotations

import functools
import hashlib
import json
import mmap
import sys
import threading
import warnings
import zlib
from array import array
from collections import OrderedDict
from itertools import repeat
from operator import and_, countOf, rshift
from typing import Any, Mapping

from ..core.resultcache import TraceStore
from .program import (OP_BARRIER, OP_READ, OP_TASK, OP_UNLOCK, OP_WORDS,
                      OP_WORK, OP_WRITE, Batch, ProgramFactory)

__all__ = ["CompiledProgram", "RetiredTraceFormat", "TraceCache",
           "TraceDecodeError", "compile_program", "decode", "opcodes",
           "trace_key", "clear_memory_cache", "trace_cache_info"]

# The in-memory LRU's byte budget.  Sized so a full 9-app quick sweep (a
# few MB per in-memory trace) never evicts, while a single paper-scale
# in-memory trace (512² LU is ~22 MB of words) still fits several times
# over.  Mapped traces are charged _MAPPED_RESIDENT_BYTES each, so the
# budget alone would admit ~64k of them.
_LRU_BYTES = 256 * 1024 * 1024

#: accounting charge for a mapped program: its python-side footprint is a
#: handful of memoryview objects; the column payload lives in the
#: (evictable, shared) page cache, not the heap
_MAPPED_RESIDENT_BYTES = 4096

#: the most mapped programs the LRU holds, least recently used evicted
#: first: CPython's mmap keeps a duplicate of the file's descriptor for
#: the mapping's life, and Linux's default soft limit is 1024 of them
_MAX_MAPPED = 128

#: serialization magic: bump the trailing digit on any format change; a
#: blob whose digit is lower (a retired version) is a store miss, not a
#: corruption
_MAGIC = b"RPROTRC4"

_ITEMSIZE = 8  # int64 words

#: a word is ``arg << _OP_BITS | opcode``; operands span [-2**60, 2**60)
_OP_BITS = 3
_OP_MASK = (1 << _OP_BITS) - 1
_ARG_LIMIT = 1 << (63 - _OP_BITS)


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or ``None`` where the C library has none."""
    import ctypes

    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _align8(n: int) -> int:
    return (n + 7) & ~7


class TraceDecodeError(ValueError):
    """A serialized compiled trace is corrupt, truncated, or incompatible."""


class RetiredTraceFormat(TraceDecodeError):
    """A blob in a retired ``RPROTRC`` layout: stale, not corrupt."""


def opcodes(col):
    """The opcodes of a word column, one at a time, at C speed."""
    return map(and_, col, repeat(_OP_MASK))


def decode(col):
    """A word column as ``(opcode, arg)`` pairs — the engine's op stream."""
    return zip(opcodes(col), map(rshift, col, repeat(_OP_BITS)))


class CompiledProgram:
    """One program across all processors, as one ``RPROTRC4`` buffer.

    ``buffer`` is the whole blob: magic, uint32-LE header length, JSON
    header, zero pad to 8 bytes, then int64 sections back to back in host
    byte order — one ``words`` section per processor, then the task
    table's ``task_words``.  ``section_offsets`` are their byte offsets
    in the buffer, in that order.  Every column is a ``memoryview.cast
    ('q')`` slice of the buffer, whichever way the program was made:
    packed from drained columns (the constructor), copied from a blob
    (:meth:`from_bytes`) or mapped from a file (:meth:`from_file`,
    ``mapped`` is then true).

    Word ``i`` of ``words[pid]`` is the ``i``-th operation of processor
    ``pid``, ``arg << 3 | opcode`` (:func:`decode` splits it).  Opcodes
    are the :mod:`repro.sim.program` constants; READ/WRITE args are
    **line numbers** (already divided by ``line_size``), all other args
    are verbatim.

    A program whose columns hold ``TASK q`` ops carries the **task
    table** they index: ``task_words`` is one more column holding every
    task's sub-stream back to back, queue after queue, and
    ``task_lens[q][t]`` is the length of task ``t`` of queue ``q``.  A
    static program's table is empty.

    Instances are immutable by convention (the engine only reads them, and
    the native kernel takes ``const`` pointers), so one compiled program
    can be replayed concurrently by any number of engines and shared
    through :class:`TraceCache`.
    """

    __slots__ = ("buffer", "section_offsets", "mapped", "n_processors",
                 "line_size", "source_ops", "task_lens", "words",
                 "task_words")

    def __init__(self, words: list, line_size: int, source_ops: int, *,
                 tasks=None) -> None:
        """Pack int64 word columns (``array('q')``, say) into a new buffer.

        ``tasks`` is ``(task_words, task_lens)``, see above;
        ``source_ops`` is the operation count before WORK fusion (what a
        generator would yield).  The blob's head — magic, uint32-LE
        header length, JSON header, zero pad to 8 bytes — is built here,
        with the payload's CRC, computed once.  The buffer is an
        anonymous mapping of the blob's final size, written column by
        column.  A page of the mapping costs memory only once written,
        and each column of ``words`` leaves the list once it is copied,
        its freed pages handed back to the OS (a drained column sits
        inside the heap, where ``free`` keeps them), so the drain and its
        packed copy are never held at once.
        """
        task_words, task_lens = (tasks if tasks is not None
                                 else (array("q"), []))
        lens = [n for queue in task_lens for n in queue]
        if len(task_words) != sum(lens) \
                or not all(isinstance(n, int) and n >= 0 for n in lens):
            raise ValueError("task table does not cover its column")
        crc = 0
        for col in [*words, task_words]:
            crc = zlib.crc32(col, crc)
        header = {"n_processors": len(words), "line_size": line_size,
                  "source_ops": source_ops,
                  "counts": [len(w) for w in words], "tasks": task_lens,
                  "itemsize": _ITEMSIZE, "byteorder": sys.byteorder,
                  "crc32": crc, "payload_offset": 0}
        # the header records its own payload offset, which depends on the
        # header's length: fix-point it (at most a step or two)
        while True:
            text = json.dumps(header, sort_keys=True).encode("utf-8")
            offset = _align8(12 + len(text))
            if offset == header["payload_offset"]:
                break
            header["payload_offset"] = offset
        buf = mmap.mmap(-1, offset + _ITEMSIZE * (
            sum(map(len, words)) + len(task_words)))
        buf.write(_MAGIC + len(text).to_bytes(4, "little") + text)
        buf.seek(offset)
        trim = _malloc_trim()
        for pid in range(len(words)):
            buf.write(words[pid])
            words[pid] = None
            if trim is not None:
                trim(0)
        buf.write(task_words)
        self._attach(buf, header, mapped=False)

    def _attach(self, buf, header, mapped: bool) -> None:
        """Become the program over ``buf``, whose ``header`` is valid."""
        self.buffer = buf
        self.mapped = mapped
        self.n_processors = len(header["counts"])
        self.line_size = header["line_size"]
        self.source_ops = header["source_ops"]
        self.task_lens = header["tasks"]
        view = memoryview(buf)
        pos = header["payload_offset"]
        self.section_offsets, sections = [], []
        for n in [*header["counts"], sum(map(sum, self.task_lens))]:
            self.section_offsets.append(pos)
            sections.append(view[pos:pos + n * _ITEMSIZE].cast("q"))
            pos += n * _ITEMSIZE
        self.words, self.task_words = sections[:-1], sections[-1]

    def task_offsets(self) -> tuple[list[int], list[int]]:
        """The task table as both interpreters index it.

        ``(offsets, queue_end)``: numbering tasks across queues in table
        order, task ``k`` is entries ``[offsets[k], offsets[k + 1])`` of
        the task column, and queue ``q`` hands out tasks
        ``queue_end[q - 1]`` (0 for the first queue) up to
        ``queue_end[q]``.
        """
        offsets, queue_end = [0], []
        for queue in self.task_lens:
            for n in queue:
                offsets.append(offsets[-1] + n)
            queue_end.append(len(offsets) - 1)
        return offsets, queue_end

    def streams(self) -> list:
        """One ``__next__`` per processor: what :meth:`Engine._loop
        <repro.sim.engine.Engine._loop>` pulls a replay's ops from.

        A static program's are :func:`decode` of its columns.  A task
        program's are generators that expand every ``TASK`` in place
        (:func:`_expand_tasks`) around one take counter per queue, fresh
        for this replay and shared by all of them, so the loop never
        meets opcode 6.  A queue no column dispatches would never be
        drained; the kernel finds that out at the end of its run, here
        it is refused before the start.
        """
        if not self.task_lens:
            return [decode(w).__next__ for w in self.words]
        dispatched = {a for w in self.words for o, a in decode(w)
                      if o == OP_TASK}
        for q, queue in enumerate(self.task_lens):
            if queue and q not in dispatched:
                raise ValueError(f"TASK {q}: {len(queue)} tasks in the "
                                 f"table and no TASK op to take them")
        offsets, queue_end = self.task_offsets()
        taken = [0, *queue_end[:-1]]
        return [_expand_tasks(decode(w), self.task_words, offsets,
                              queue_end, taken).__next__
                for w in self.words]

    # ----------------------------------------------------------------- size
    @property
    def total_ops(self) -> int:
        """Operations one replay executes, across all processors: the
        stored (post-fusion) ops of every column and of every task once,
        ``TASK`` dispatches themselves not counted."""
        total = sum(map(len, self.words))
        if self.task_lens:
            total += len(self.task_words) - sum(
                countOf(opcodes(w), OP_TASK) for w in self.words)
        return total

    @property
    def nbytes(self) -> int:
        """Payload size: the buffer past its header (mapped or not)."""
        return len(self.buffer) - self.section_offsets[0]

    @property
    def resident_nbytes(self) -> int:
        """What this program charges against the in-memory LRU budget.

        A buffer on the heap costs its full payload; a mapped one lives in
        the shared, evictable page cache and costs a token constant.
        """
        return _MAPPED_RESIDENT_BYTES if self.mapped else self.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "mapped" if self.mapped else "in memory"
        return (f"CompiledProgram({self.n_processors} processors, "
                f"{self.total_ops:,} ops, line_size={self.line_size}, "
                f"{kind})")

    # -------------------------------------------------------- serialization
    @classmethod
    def _adopt(cls, buf, *, mapped: bool = False,
               check_crc: bool = False) -> "CompiledProgram":
        """The program over ``buf``, a whole ``RPROTRC4`` blob.

        The one validator of stored bytes: magic, header, item size and
        byte order (the host's), and every section the header promises —
        columns and task table alike — against ``len(buf)``, so a header
        that lies is a :class:`TraceDecodeError`, never a read past the
        buffer.  Sections lie back to back in header order, so a negative
        length is the only way one could reach outside the payload.  The
        payload's CRC is read only with ``check_crc``.  A retired
        version's magic is a :class:`RetiredTraceFormat`.
        """
        try:
            _check_magic(bytes(buf[:8]))
            hlen = int.from_bytes(buf[8:12], "little")
            if hlen <= 0 or 12 + hlen > len(buf):
                raise TraceDecodeError("truncated header")
            header = json.loads(bytes(buf[12:12 + hlen]).decode("utf-8"))
            if (header["itemsize"], header["byteorder"]) \
                    != (_ITEMSIZE, sys.byteorder):
                raise TraceDecodeError("foreign item size or byte order")
            lens = header["counts"] + [n for queue in header["tasks"]
                                       for n in queue]
            if not all(isinstance(n, int) and n >= 0 for n in lens):
                raise TraceDecodeError("bad section length")
            offset = header["payload_offset"]
            if (offset < 12 + hlen or offset % _ITEMSIZE
                    or offset + _ITEMSIZE * sum(lens) != len(buf)):
                raise TraceDecodeError("payload length mismatch")
            if check_crc and (zlib.crc32(memoryview(buf)[offset:])
                              != header["crc32"]):
                raise TraceDecodeError("payload CRC mismatch")
            program = cls.__new__(cls)
            program._attach(buf, header, mapped)
            return program
        except TraceDecodeError:
            raise
        except Exception as exc:  # truncated/garbled in any other way
            raise TraceDecodeError(f"undecodable trace: {exc!r}") from exc

    @classmethod
    def from_bytes(cls, blob) -> "CompiledProgram":
        """The program over a copy of ``blob`` — eager, CRC-checked.

        Raises :class:`TraceDecodeError` on any corruption: bad magic,
        truncation, malformed header, CRC mismatch, or an encoding written
        by an incompatible platform (item size / byte order).
        """
        return cls._adopt(bytearray(blob), check_crc=True)

    @classmethod
    def from_file(cls, path) -> "CompiledProgram":
        """The program over a memory mapping of a stored blob.

        The mapping is ``ACCESS_COPY`` (private copy-on-write): writable
        from Python's side — which ``ctypes.from_buffer`` requires for the
        zero-copy native hand-off — while the file itself is never
        modified and clean pages remain shared page-cache memory.  Map
        validation is **structural only** (:meth:`_adopt` without the
        CRC): a truncated blob fails here and degrades to a cache miss,
        while reading every payload byte to CRC it would defeat lazy
        paging — the format relies on the store's atomic writes, like
        every other consumer.

        Raises ``OSError`` if the file cannot be opened or mapped (a
        plain store miss: out of descriptors or address space says
        nothing about the blob) and :class:`TraceDecodeError` for anything
        wrong with its bytes.
        """
        with open(path, "rb") as fh:
            # rejected without mapping: another format, or an empty file
            _check_magic(fh.read(8))
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
            program = cls._adopt(mm, mapped=True)
        if hasattr(mm, "madvise"):  # replay touches columns in order
            mm.madvise(mmap.MADV_SEQUENTIAL)
        return program


def _check_magic(magic: bytes) -> None:
    if magic != _MAGIC:
        if (magic[:7] == _MAGIC[:7] and magic[7:].isdigit()
                and magic[7:] < _MAGIC[7:]):
            raise RetiredTraceFormat(f"retired format {magic.decode()}")
        raise TraceDecodeError("bad magic")


def _expand_tasks(frame, task_words, offsets, queue_end, taken):
    """``frame``'s ops with every ``TASK q`` expanded where it stands.

    The python half of ``TASK``'s semantics (``kernel.c`` has the other):
    a generator is resumed at the event where its processor wants its
    next op, and that is where the take happens — ``taken[q]`` is read
    and advanced, the task's sub-stream is yielded op by op, and control
    returns to the same ``TASK`` until queue ``q`` is empty.  Every
    processor's generator shares ``taken``, as the app's generators
    shared one python counter.  A task body is a leaf: a ``TASK`` inside
    one is refused when the task is taken.
    """
    for op in frame:
        if op[0] != OP_TASK:
            yield op
            continue
        q = op[1]
        if not 0 <= q < len(queue_end):
            raise ValueError(f"TASK {q}: no such queue "
                             f"(the program has {len(queue_end)})")
        while taken[q] < queue_end[q]:
            k = taken[q]
            taken[q] = k + 1
            body = task_words[offsets[k]:offsets[k + 1]]
            if OP_TASK in opcodes(body):
                raise ValueError(f"TASK inside a task body (task {k})")
            yield from decode(body)


_OP_NAMES = ("WORK", "READ", "WRITE", "BARRIER", "LOCK", "UNLOCK")


def _out_of_range(opcode: int, arg: int) -> ValueError:
    return ValueError(f"{_OP_NAMES[opcode]} {arg}: operand outside "
                      f"[-2**60, 2**60), which a trace word cannot hold")


def _words(opcodes, args, edges: list[int], line_size: int):
    """Every part's words of a batch in one numpy pass (part ``k`` its
    ops ``edges[k]:edges[k + 1]``): READ/WRITE operands divided into
    lines, a WORK run one word of its sum, never across a part's edge.
    Returns ``(words, word edges)``, or ``None`` for an opcode outside
    WORK..UNLOCK, a negative stored operand, or operands whose sum might
    reach ``2**60``: those are stored, or refused, op by op."""
    import numpy as np  # only batches need it, and only apps make them

    if len(opcodes) and (opcodes.min() < OP_WORK
                         or opcodes.max() > OP_UNLOCK):
        return None
    lines = args // np.array([1, line_size, line_size, 1, 1, 1]).take(opcodes)
    if len(opcodes) and (lines.min() < 0 or int(lines.max()) * len(lines)
                         >= _ARG_LIMIT):
        return None
    work = opcodes == OP_WORK
    keep = np.ones(len(work) + 1, dtype=bool)
    keep[1:-1] = ~(work[1:] & work[:-1])
    keep[edges] = True
    at = np.flatnonzero(keep[:-1])
    out = np.add.reduceat(lines, at) if len(at) else lines
    out <<= _OP_BITS
    out |= opcodes[at]
    return out, np.searchsorted(at, edges).tolist()


def _drain_part(words: array, batch: Batch, k: int, line_size: int,
                was_work: bool) -> bool:
    """Append part ``k`` of ``batch`` to a word column; return whether
    the last word is a WORK.  The first part drained builds every
    part's words (:func:`_words`).  A leading WORK fuses into a WORK
    word last in ``words``; where that overflows, or :func:`_words`
    declined, the part is drained op by op."""
    if batch.words is None:
        batch.words = _words(batch.opcodes, batch.args, batch.edges,
                             line_size) or False
    a, b = batch.edges[k], batch.edges[k + 1]
    if a == b:
        return was_work
    if batch.words:
        out, at = batch.words
        part = out[at[k]:at[k + 1]]
        first = int(part[0])
        try:
            if was_work and not first & _OP_MASK:
                words[-1] += first
                part = part[1:]
        except OverflowError:
            pass
        else:
            words.frombytes(memoryview(part).cast("B"))
            return not out[at[k + 1] - 1] & _OP_MASK
    return _drain(zip(batch.opcodes[a:b].tolist(), batch.args[a:b].tolist()),
                  words, line_size, was_work, 0, phased=False)[1]


def _drain(gen, words: array, line_size: int, was_work: bool,
           n_queues: int, phased: bool) -> tuple[int, bool, bool]:
    """Append ``gen``'s ops to a word column as a trace stores them.

    Stops after a BARRIER when ``phased`` (else only at exhaustion).
    The capture-only item ``(OP_WORDS, (batch, k))`` is a rare-opcode
    branch, counted as the source ops of part ``k`` of a
    :class:`~repro.sim.program.Batch`, which :func:`_drain_part`
    appends (a batch with a BARRIER or TASK in any part is refused at
    its first); a WORK after it fuses into its last word as after the
    per-op tuples.

    ``n_queues`` bounds the operand of a ``TASK``; a task body passes
    -1, which refuses them all.  An operand (or a fused WORK total) that
    one word cannot hold is a ``ValueError``: ``array('q')`` refuses the
    word, and the word fits exactly when the operand is in range.  That
    needs python ``int`` operands, which every app yields: a numpy
    integer's shift would wrap instead.
    Returns ``(source ops consumed, whether the last stored op is a
    WORK, whether a BARRIER stopped the drain)``.
    """
    append = words.append
    n = 0
    for opcode, arg in gen:
        n += 1
        if opcode == OP_WORK:
            if arg < 0:
                raise ValueError(f"negative WORK cycles: {arg}")
            if was_work:
                try:
                    words[-1] += arg << _OP_BITS
                except OverflowError:
                    raise _out_of_range(
                        opcode, (words[-1] >> _OP_BITS) + arg) from None
                continue
            was_work = True
        elif opcode == OP_READ or opcode == OP_WRITE:
            was_work = False
            arg //= line_size
        else:
            if not 0 <= opcode <= OP_UNLOCK:
                if opcode == OP_WORDS and type(arg) is tuple:
                    batch, k = arg
                    ops = batch.opcodes  # stop only at a per-op barrier
                    if batch.words is None and {OP_BARRIER, OP_TASK} & set(
                            ops[ops >= OP_BARRIER].tolist()):
                        raise ValueError("a BARRIER or TASK inside an "
                                         "OP_WORDS item")
                    n += batch.edges[k + 1] - batch.edges[k] - 1
                    was_work = _drain_part(words, batch, k, line_size,
                                           was_work)
                    continue
                if opcode != OP_TASK:
                    raise ValueError(f"unknown opcode {opcode}")
                if not 0 <= arg < n_queues:
                    raise ValueError(
                        f"TASK {arg} inside a task body" if n_queues < 0
                        else f"TASK {arg}: no such queue (the program "
                             f"has {n_queues})")
                n -= 1  # a dispatch, not an op a generator yields
            was_work = False
        try:
            append(arg << _OP_BITS | opcode)
        except OverflowError:
            raise _out_of_range(opcode, arg) from None
        if opcode == OP_BARRIER and phased:
            return n, was_work, True
    return n, was_work, False


def _drain_phased(gens, all_words: list, line_size: int, was_work: list,
                  n_queues: int) -> int:
    """Drain every processor's ``gens[pid]`` into ``all_words[pid]``, one
    barrier phase at a time, and return the source ops consumed.

    Within a phase the generators advance in processor order, each up to
    and including its next BARRIER; one that is exhausted leaves the
    rotation.  ``was_work[pid]`` says whether the last word already in
    ``all_words[pid]`` is a WORK, so a WORK that follows fuses into it.
    """
    source_ops = 0
    running = list(range(len(gens)))
    while running:
        still_running = []
        for pid in running:
            n, was_work[pid], at_barrier = _drain(
                gens[pid], all_words[pid], line_size, was_work[pid],
                n_queues, phased=True)
            source_ops += n
            if at_barrier:
                still_running.append(pid)
        running = still_running
    return source_ops


def compile_program(program_factory: ProgramFactory, n_processors: int,
                    line_size: int, tasks=()) -> CompiledProgram:
    """Drain every processor's generator once into a :class:`CompiledProgram`.

    * READ/WRITE byte addresses become line numbers (divided by
      ``line_size`` here, once), hoisting the division out of the replay
      loop entirely;
    * a run of consecutive WORK ops collapses into one WORK carrying the
      summed cycles — SPMD emission helpers pad spans with WORK, so fusion
      typically removes 10-30% of stored ops;
    * each op is stored as one word, ``arg << 3 | opcode``, and a batch
      item's words at C speed (:func:`_words`, built once for every
      part of a phase; only an app's own capture makes its batches
      items, for the length of its drain);
    * operands are validated (negative WORK, unknown opcode, an operand
      outside ``[-2**60, 2**60)``) as they are stored; the replay loop
      checks them again, because a stored trace may come back from disk.

    ``tasks`` is the program's task queues: ``tasks[q]`` an iterable of
    op iterables, one per task of queue ``q`` in take order, which the
    factory's generators dispatch with ``Task(q)`` ops where a
    lock-protected python counter would have handed them out.  Each body
    is drained once, after the per-processor streams, into the program's
    task table.

    The drain is **barrier-phased**, mirroring the engine's interleaving at
    the granularity that matters: several applications (Radix's parallel
    prefix, Barnes' tree phases, the task-grid codes) compute shared Python
    state in one barrier phase that the next phase's streams read, so no
    generator may run ahead of a barrier until every generator has reached
    it.  Within a phase, generators advance in processor order — safe
    because SPMD phases are race-free between barriers (that is what the
    barrier is *for*; an app whose stream content depended on intra-phase
    timing would not be deterministic across machine organisations in the
    first place, and the equivalence suite would catch it).
    """
    if n_processors <= 0:
        raise ValueError("n_processors must be positive")
    if line_size <= 0:
        raise ValueError("line_size must be positive")
    all_words = [array("q") for _ in range(n_processors)]
    source_ops = _drain_phased(
        [iter(program_factory(pid)) for pid in range(n_processors)],
        all_words, line_size, [False] * n_processors, len(tasks))
    task_words, task_lens = array("q"), []
    for queue in tasks:
        lens = []
        for body in queue:
            before = len(task_words)
            source_ops += _drain(body, task_words, line_size, False, -1,
                                 phased=False)[0]
            lens.append(len(task_words) - before)
        task_lens.append(lens)
    return CompiledProgram(all_words, line_size, source_ops,
                           tasks=(task_words, task_lens))


class ProgramRecorder:
    """Capture a program's streams *while* an engine executes them.

    The barrier-phased drain of :func:`compile_program` is correct only for
    applications whose streams are independent of intra-phase timing (or
    depend on it through a task queue alone, which a ``TASK`` op carries).
    Barnes violates that in its tree build: its processors insert bodies
    into one tree under per-cell locks, so what each reads is the tree as
    the others have left it — something only a real engine run knows.
    For it, wrap the factory::

        recorder = ProgramRecorder(app.program, n, line_size, timed)
        engine.run(recorder.factory)
        program = recorder.finish()

    ``factory`` is a drop-in :data:`~repro.sim.program.ProgramFactory` that
    appends every yielded ``(opcode, arg)`` as it is to a raw column pair
    of its processor before handing it to the engine, so the recording
    is the *executed* interleaving by construction.

    ``timed_barriers`` is how many leading barriers close a phase whose
    streams depend on simulated time (``None``: every one).  The engine
    decides only those: each processor's wrapper records its
    ``timed_barriers``-th BARRIER but withholds it from the engine and
    ends, leaving the generator suspended just past it.  No lock is held
    at a barrier, so the run finishes without a deadlock.
    :meth:`finish` stores each raw pair as one batch (:func:`_words`,
    :func:`_drain_part`), by the one rule :func:`compile_program` stores
    by (line division, WORK fusion, one word per op), then drains the
    suspended generators barrier-phased, as :func:`compile_program`
    does (an app's :meth:`~repro.apps.base.Application.recorded_program`
    makes its batches items for that drain alone).  Replaying the
    result on an identically-configured machine is bit-identical to
    the generators' run.
    """

    def __init__(self, program_factory: ProgramFactory, n_processors: int,
                 line_size: int, timed_barriers: int | None = None) -> None:
        if n_processors <= 0:
            raise ValueError("n_processors must be positive")
        if line_size <= 0:
            raise ValueError("line_size must be positive")
        if timed_barriers is not None and timed_barriers < 0:
            raise ValueError("timed_barriers must be non-negative")
        self._factory = program_factory
        self.n_processors = n_processors
        self.line_size = line_size
        self._timed = timed_barriers
        self._raw_ops = [array("q") for _ in range(n_processors)]
        self._raw_args = [array("q") for _ in range(n_processors)]
        self._gens: list = [None] * n_processors
        #: pid -> the operand of the BARRIER its wrapper withheld
        self._withheld: dict[int, int] = {}

    def factory(self, pid: int):
        """The recording wrapper around ``program_factory(pid)``.

        A raw operand outside int64 is refused as it is recorded, with
        the :class:`ValueError` :func:`_drain` gives the op (the engine
        run stops there); should its line fit a word, the address alone
        is still more than the raw column holds.  A generator that ends
        before its ``timed_barriers``-th BARRIER is a
        :class:`ValueError` too: the engine would not have decided the
        streams the drain goes on to store."""
        gen = self._gens[pid] = iter(self._factory(pid))
        left = self._timed
        if left == 0:
            return
        append_op = self._raw_ops[pid].append
        append_arg = self._raw_args[pid].append
        for op in gen:
            try:
                append_op(op[0])
                append_arg(op[1])
            except OverflowError:
                _drain((op,), array("q"), self.line_size, False, 0,
                       phased=False)
                raise ValueError(f"{_OP_NAMES[op[0]]} {op[1]}: operand "
                                 f"outside int64, which a recording "
                                 f"cannot hold") from None
            if op[0] == OP_BARRIER and left is not None:
                left -= 1
                if not left:
                    self._withheld[pid] = op[1]
                    return
            yield op
        if left is not None:
            raise ValueError(
                f"processor {pid} ended {left} barrier(s) short of the "
                f"{self._timed} declared timed")

    def finish(self) -> CompiledProgram:
        """The capture as a :class:`CompiledProgram` (call after the run).

        Each raw pair is popped, so it is freed as soon as it is drained
        and the raw columns are gone before the program is packed.  A
        run that has not ended, or whose processors withheld different
        barrier ids, is a :class:`ValueError` before anything is
        drained: the phases after the withheld barrier are drained only
        where the engine took every processor to that one barrier."""
        if None in self._gens or (self._timed and len(
                self._withheld) < self.n_processors):
            raise ValueError("finish() before the recorded run ended")
        ids = sorted(set(self._withheld.values()))
        if len(ids) > 1:
            raise ValueError(f"processors withheld different barrier ids "
                             f"{ids} as barrier {self._timed}")
        import numpy as np

        words = [array("q") for _ in range(self.n_processors)]
        was_work = []
        source_ops = 0
        for w in words:
            # a BARRIER needs no stop here, and a TASK is stored op by op
            raw = [np.frombuffer(column.pop(0), dtype=np.int64)
                   for column in (self._raw_ops, self._raw_args)]
            was_work.append(_drain_part(w, Batch(*raw, [0, len(raw[0])]), 0,
                                        self.line_size, False))
            source_ops += len(raw[0])
        source_ops += _drain_phased(self._gens, words, self.line_size,
                                    was_work, 0)
        return CompiledProgram(words, self.line_size, source_ops)


# --------------------------------------------------------------------- keys

def trace_key(app: str, app_kwargs: Mapping[str, Any], config: Any,
              seed: int, stream_invariant: bool = True) -> str:
    """Content hash identifying one compiled trace.

    Covers the package version, the application and its problem kwargs, the
    application seed, and the machine fields the reference stream actually
    depends on (:meth:`MachineConfig.trace_signature`).  Cluster size,
    cache capacity, associativity, latency table, and network model are
    deliberately **absent** — that is what lets a clustering sweep reuse
    one trace across its whole grid.

    With ``stream_invariant=False`` (Barnes, whose executed streams
    depend on simulated timing) the key instead covers the **complete**
    machine configuration: such a capture is only replayable at the exact
    configuration that recorded it.
    """
    from .._version import __version__

    payload = {
        "version": __version__,
        "app": app,
        "app_kwargs": dict(app_kwargs),
        "seed": seed,
        "stream": (config.trace_signature() if stream_invariant
                   else config.to_dict()),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -------------------------------------------------------- process-wide LRU

_memory_lru: OrderedDict[str, CompiledProgram] = OrderedDict()
_memory_lru_bytes = 0
_memory_lru_mapped = 0
#: guards every read-modify-write of the three names above: an
#: in-process daemon runs points on a thread that shares this LRU
_memory_lru_lock = threading.Lock()


def clear_memory_cache() -> None:
    """Drop every in-memory trace (tests and cold benchmarks use this)."""
    global _memory_lru_bytes, _memory_lru_mapped
    with _memory_lru_lock:
        _memory_lru.clear()
        _memory_lru_bytes = _memory_lru_mapped = 0


def trace_cache_info() -> dict[str, Any]:
    """Process-wide trace-LRU accounting, the daemon's ``/stats`` →
    ``trace_cache``: live entries, how many are mapped (charged ≈ 0
    resident bytes), resident vs payload bytes, and the budget."""
    with _memory_lru_lock:
        programs = list(_memory_lru.values())
        resident = _memory_lru_bytes
    return {
        "entries": len(programs),
        "mapped_entries": sum(1 for p in programs if p.mapped),
        "resident_bytes": resident,
        "payload_bytes": sum(p.nbytes for p in programs),
        "budget_bytes": _LRU_BYTES,
    }


class TraceCache:
    """Two-tier cache of compiled programs.

    Tier 1 is a **process-wide** LRU of live :class:`CompiledProgram`
    objects — shared by every ``TraceCache`` instance in the process, so a
    study, its executor, and a process-pool worker all see each other's
    compilations.  It is bounded by a **byte budget** (``_LRU_BYTES``,
    256 MiB of :attr:`~CompiledProgram.resident_nbytes`) and holds at most
    ``_MAX_MAPPED`` mapped programs, one file descriptor each.  Tier 2 is
    an optional :class:`~repro.core.resultcache.TraceStore` on disk, which
    is what lets separate ``--jobs`` worker processes and separate CLI
    invocations reuse traces.  Disk loads are **memory-mapped**
    (zero-copy, ~0 resident cost).  Tier 1 is shared by threads too (an
    in-process daemon's point thread beside its host's own runs), so one
    module lock guards its order and its byte count.

    Instances are cheap and picklable (the LRU is module state, the store
    carries only a path), so executors ship them to pool workers as-is.
    """

    def __init__(self, store: TraceStore | None = None) -> None:
        self.store = store
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0

    def _load_disk(self, key: str) -> CompiledProgram | None:
        """Map the store's blob for ``key`` (``None`` on miss).

        Maintains the store's hit/miss counters: a file that cannot be
        opened or mapped, or a blob in a retired format (stale, left by an
        older version; :meth:`put` overwrites it) ⇒ store miss; readable
        but undecodable ⇒ store hit that this cache degrades to a miss.
        """
        store = self.store
        try:
            program = CompiledProgram.from_file(store.path_for(key))
        except (OSError, RetiredTraceFormat):
            store.misses += 1
            return None
        except TraceDecodeError as exc:
            store.hits += 1
            self._warn_corrupt(key, exc)
            return None
        store.hits += 1
        return program

    @staticmethod
    def _warn_corrupt(key: str, exc: Exception) -> None:
        warnings.warn(f"discarding corrupt compiled trace {key[:12]}… "
                      f"({exc}); regenerating", stacklevel=4)

    def get(self, key: str) -> CompiledProgram | None:
        """The cached program for ``key``, or ``None`` (counted as a miss).

        A corrupt disk entry degrades to a miss with a ``UserWarning``, a
        retired-format one silently; the caller recompiles and :meth:`put`
        overwrites the entry.
        """
        with _memory_lru_lock:
            program = _memory_lru.get(key)
            if program is not None:
                _memory_lru.move_to_end(key)
                self.memory_hits += 1
                return program
        if self.store is not None:
            program = self._load_disk(key)
            if program is not None:
                self._remember(key, program)
                self.disk_hits += 1
                return program
        self.misses += 1
        return None

    def put(self, key: str, program: CompiledProgram) -> None:
        """Install ``program`` in both tiers (disk failures are swallowed);
        the store writes the program's buffer as it is — the one trace
        write."""
        self._remember(key, program)
        if self.store is not None:
            self.store.put_bytes(key, program.buffer)

    @staticmethod
    def _remember(key: str, program: CompiledProgram) -> None:
        global _memory_lru_bytes, _memory_lru_mapped
        with _memory_lru_lock:
            old = _memory_lru.pop(key, None)
            if old is not None:
                _memory_lru_bytes -= old.resident_nbytes
                _memory_lru_mapped -= old.mapped
            _memory_lru[key] = program
            _memory_lru_bytes += program.resident_nbytes
            _memory_lru_mapped += program.mapped
            while len(_memory_lru) > 1 and _memory_lru_bytes > _LRU_BYTES:
                _, evicted = _memory_lru.popitem(last=False)
                _memory_lru_bytes -= evicted.resident_nbytes
                _memory_lru_mapped -= evicted.mapped
            if _memory_lru_mapped > _MAX_MAPPED:  # one over: the oldest goes
                oldest = next(k for k, p in _memory_lru.items() if p.mapped)
                _memory_lru_bytes -= _memory_lru.pop(oldest).resident_nbytes
                _memory_lru_mapped -= 1

    # ------------------------------------------------------------- plumbing
    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def stats(self) -> str:
        """``'N memory + M disk hits, K misses'`` summary for logs."""
        return (f"{self.memory_hits} memory + {self.disk_hits} disk hits, "
                f"{self.misses} misses")

    def __repr__(self) -> str:  # pragma: no cover
        return f"TraceCache(store={self.store!r}, {self.stats()})"
