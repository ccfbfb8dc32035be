"""Tests for the application framework helpers (span emission, placement,
partitioning, barrier sequencing)."""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.base import Application, PhaseBarriers, proc_grid_shape
from repro.core.config import MachineConfig
from repro.sim.compiled import compile_program
from repro.sim.program import OP_READ, OP_WORK, OP_WRITE, Work


def span(app, opcode, region, start, count):
    """One span record of ``region`` as an app emits it: a batch of its
    ops (:meth:`Application.span_table`), tuples outside a capture."""
    return app.op_batch(*app.span_table((opcode, region, start, count))[:2])


def read_span(app, region, start, count):
    return span(app, OP_READ, region, start, count)


def write_span(app, region, start, count):
    return span(app, OP_WRITE, region, start, count)


def span_ops(opcode, addr, end, esz, line_size):
    """The ops of the span of bytes ``[addr, end)``, the per-line loop
    of python ints a span's batch is checked against: per line,
    ``opcode`` at its first byte in the span, then ``Work`` for the
    span's other elements in it."""
    for line in range(addr // line_size, (end - 1) // line_size + 1):
        lo = max(addr, line * line_size)
        hi = min(end, (line + 1) * line_size)
        yield (opcode, lo)
        if (hi - lo) // esz > 1:
            yield (OP_WORK, (hi - lo) // esz - 1)  # the guaranteed hits


class _Dummy(Application):
    name = "dummy"

    def place(self):
        self.data = self.space.allocate("dummy.data", 1024, element_size=8)
        self.wide = self.space.allocate("dummy.wide", 256, element_size=16)

    def program(self, pid):
        yield from ()


@pytest.fixture
def app():
    a = _Dummy(MachineConfig(n_processors=8, cluster_size=2))
    a.ensure_setup()
    return a


class TestReadSpan:
    def test_one_read_per_line(self, app):
        ops = list(read_span(app, app.data, 0, 16))  # 16×8B = 2 lines
        reads = [op for op in ops if op[0] == OP_READ]
        assert len(reads) == 2

    def test_work_covers_remaining_elements(self, app):
        ops = list(read_span(app, app.data, 0, 16))
        work = sum(op[1] for op in ops if op[0] == OP_WORK)
        reads = sum(1 for op in ops if op[0] == OP_READ)
        assert work + reads == 16  # every element costs exactly one cycle

    def test_unaligned_span(self, app):
        # elements 5..12 straddle the line boundary at element 8
        ops = list(read_span(app, app.data, 5, 8))
        reads = [op for op in ops if op[0] == OP_READ]
        assert len(reads) == 2
        work = sum(op[1] for op in ops if op[0] == OP_WORK)
        assert work + len(reads) == 8

    def test_single_element(self, app):
        ops = list(read_span(app, app.data, 3, 1))
        assert len(ops) == 1 and ops[0][0] == OP_READ

    def test_empty_span(self, app):
        assert list(read_span(app, app.data, 0, 0)) == []

    def test_wide_elements(self, app):
        # 16-byte elements: 4 per line
        ops = list(read_span(app, app.wide, 0, 8))
        reads = [op for op in ops if op[0] == OP_READ]
        assert len(reads) == 2

    def test_addresses_fall_in_region(self, app):
        for op in read_span(app, app.data, 100, 50):
            if op[0] == OP_READ:
                assert app.data.contains(op[1])


class TestWriteSpan:
    def test_one_write_per_line(self, app):
        ops = list(write_span(app, app.data, 0, 24))
        writes = [op for op in ops if op[0] == OP_WRITE]
        assert len(writes) == 3

    def test_cycle_conservation(self, app):
        ops = list(write_span(app, app.data, 2, 13))
        work = sum(op[1] for op in ops if op[0] == OP_WORK)
        writes = sum(1 for op in ops if op[0] == OP_WRITE)
        assert work + writes == 13


class TestPlacement:
    def test_place_partitions_by_cluster_of_owner(self, app):
        region = app.space.allocate("dummy.parts", 8 * 512)  # 4KB/proc
        app.place_partitions(region)
        # processor 2 lives in cluster 1; its partition starts at page 1
        # of the region (each partition = 1 page)
        page0 = region.base // app.config.page_size
        assert app.allocator.page_homes.get(page0) == 0          # procs 0,1
        assert app.allocator.page_homes.get(page0 + 2) == 1      # wait: see below

    def test_place_partitions_cluster_mapping(self):
        cfg = MachineConfig(n_processors=4, cluster_size=2)
        a = _Dummy(cfg)
        a.ensure_setup()
        region = a.space.allocate("dummy.parts", 4 * 512)  # 1 page per proc
        a.place_partitions(region)
        page0 = region.base // cfg.page_size
        homes = [a.allocator.page_homes.get(page0 + i) for i in range(4)]
        assert homes == [0, 0, 1, 1]  # procs 0,1 -> cluster 0; 2,3 -> 1

    def test_place_partitions_tiny_region(self, app):
        region = app.space.allocate("dummy.tiny", 4)
        app.place_partitions(region)  # smaller than partition count
        assert app.allocator.page_homes.get(region.base // 4096) == 0

    def test_place_interleaved_cycles_clusters(self, app):
        region = app.space.allocate("dummy.inter", 4096)  # 8 pages (32KB)
        app.place_interleaved(region)
        first = region.base // app.config.page_size
        homes = [app.allocator.page_homes.get(first + k) for k in range(8)]
        assert homes == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_place_partitions_rejects_bad_count(self, app):
        region = app.space.allocate("dummy.bad", 64)
        with pytest.raises(ValueError):
            app.place_partitions(region, n_partitions=0)


class TestPartitionSlice:
    def test_covers_everything_disjointly(self, app):
        seen = []
        for pid in range(8):
            seen.extend(app.partition_slice(100, pid))
        assert seen == list(range(100))

    def test_balanced(self, app):
        sizes = [len(app.partition_slice(100, pid)) for pid in range(8)]
        assert max(sizes) - min(sizes) <= 1


class TestPhaseBarriers:
    def test_sequential_ids(self):
        bar = PhaseBarriers()
        assert [bar() for _ in range(4)] == [0, 1, 2, 3]

    def test_instances_independent(self):
        a, b = PhaseBarriers(), PhaseBarriers()
        a()
        assert b() == 0


class TestProcGridShape:
    def test_perfect_squares(self):
        assert proc_grid_shape(64) == (8, 8)
        assert proc_grid_shape(16) == (4, 4)

    def test_non_squares(self):
        assert proc_grid_shape(8) == (2, 4)
        assert proc_grid_shape(2) == (1, 2)

    def test_rows_at_most_cols(self):
        for n in (2, 4, 6, 8, 12, 32, 64):
            r, c = proc_grid_shape(n)
            assert r * c == n
            assert r <= c


class TestRng:
    def test_deterministic_streams(self, app):
        assert app.rng(1, 2).integers(0, 100) == app.rng(1, 2).integers(0, 100)

    def test_distinct_streams(self, app):
        a = app.rng(1).integers(0, 10**9)
        b = app.rng(2).integers(0, 10**9)
        assert a != b


class _Region(NamedTuple):
    """What a span reads of a region, at any base address (the allocator
    places none near the 2**60-line edge)."""
    base: int
    element_size: int

    def element(self, index):
        return self.base + index * self.element_size


class _OneSpan(Application):
    """One processor: WORK ops, one span, WORK ops."""
    name = "one-span"

    def __init__(self, line_size, opcode, region, start, count, before,
                 after):
        super().__init__(MachineConfig(n_processors=1, line_size=line_size,
                                       page_size=64 * line_size))
        self.span = (opcode, region, start, count)
        self.before, self.after = before, after

    def place(self):
        pass

    def program(self, pid):
        yield from map(Work, self.before)
        yield from span(self, *self.span)
        yield from map(Work, self.after)

    def per_op(self, pid):
        """The program with its span spelled out by the per-line loop."""
        opcode, region, start, count = self.span
        addr = region.element(start)
        yield from map(Work, self.before)
        if count > 0:
            yield from span_ops(opcode, addr,
                                addr + count * region.element_size,
                                region.element_size, self.config.line_size)
        yield from map(Work, self.after)


def _stored(capture):
    """The capture's bytes (words and ``source_ops`` in its header), or
    the message it refused with."""
    try:
        return bytes(capture().buffer)
    except ValueError as exc:
        return str(exc)


class TestSpanItems:
    """While an app is captured, a span reaches the drain as one item."""

    @settings(max_examples=300, deadline=None)
    @given(line_size=st.integers(16, 128),
           element_size=st.sampled_from([1, 3, 4, 8, 12, 16, 24, 40, 64,
                                         100, 128, 200]),
           opcode=st.sampled_from([OP_READ, OP_WRITE]),
           anchor=st.sampled_from([0, 2 ** 60, -2 ** 60, 2 ** 63, -2 ** 63]),
           offset=st.integers(-2048, 2048),
           start=st.integers(0, 40),
           count=st.integers(0, 40),
           before=st.lists(st.integers(0, 9), max_size=2),
           after=st.lists(st.integers(0, 9), max_size=2))
    # a span ending at 2**63 and one a byte past, over a line that does
    # not end there; a span from -2**63 and one a byte below it
    @example(24, 8, OP_READ, 2 ** 63, -40, 0, 5, [], [1])
    @example(24, 8, OP_WRITE, 2 ** 63, -39, 0, 5, [], [])
    @example(16, 1, OP_READ, -2 ** 63, 0, 0, 3, [2], [])
    @example(16, 1, OP_WRITE, -2 ** 63, -1, 0, 3, [], [])
    def test_one_item_stores_the_per_op_words(
            self, line_size, element_size, opcode, anchor, offset, start,
            count, before, after):
        """The words and ``source_ops`` a captured span stores are those
        its per-line ops store: any element size against any line size
        16-128, spans of 0, 1 or many lines, WORK fused on either side,
        and lines across the 2**60 edges (in lines) and int64's (in
        bytes), refused with the same message.  Outside a capture the
        span is those ops.  A span with a byte outside int64, which a
        batch cannot hold, is refused in and outside a capture, by the
        op of the line that holds its first such byte, wherever the
        per-op loop would store it or refuse it."""
        base = (anchor if abs(anchor) == 2 ** 63 else anchor * line_size)
        region = _Region(base + offset, element_size)
        app = _OneSpan(line_size, opcode, region, start, count, before,
                       after)
        per_op = _stored(lambda: compile_program(app.per_op, 1, line_size))
        addr = region.element(start)
        end = addr + count * element_size
        if count == 0 or -2 ** 63 <= addr and end <= 2 ** 63:
            assert _stored(app.compiled_program) == per_op
            assert list(app.program(0)) == list(app.per_op(0))
            return
        at = addr if addr < -2 ** 63 else max(
            addr, 2 ** 63 // line_size * line_size)
        assert (opcode, at) in list(app.per_op(0))
        refusal = (f"{('READ', 'WRITE')[opcode - OP_READ]} {at}: a span "
                   f"byte outside int64, which a batch cannot hold")
        assert _stored(app.compiled_program) == refusal
        with pytest.raises(ValueError) as exc:
            list(app.program(0))
        assert str(exc.value) == refusal

    def test_only_a_live_span_needs_int64_bytes(self):
        """In a table of spans, a count-0 span whose first byte is below
        int64 adds no op and no refusal; made live, it is refused by
        its op."""
        region = _Region(-2 ** 63 - 32, 8)
        app = _OneSpan(16, OP_READ, region, 0, 0, [], [])
        index = np.array([0, 4, 6])
        ops, args, _ = app.span_table((OP_READ, region, index, [0, 3, 0]))
        assert list(zip(ops.tolist(), args.tolist())) == list(span_ops(
            OP_READ, region.element(4), region.element(7), 8, 16))
        with pytest.raises(ValueError, match=f"^READ {region.base}: a span "
                                             f"byte outside int64"):
            app.span_table((OP_READ, region, index, [1, 3, 0]))

    @pytest.mark.parametrize("work", [0, 2 ** 60])
    def test_spans_are_ops_again_after_a_capture(self, work):
        """Whether the capture returns or raises (here as a WORK of
        2**60 after the span fuses into its last word), the app's
        program yields per-op tuples again afterwards."""
        app = _OneSpan(64, OP_READ, _Region(64, 8), 0, 24, [], [work])
        ops = [OP_READ, OP_WORK] * 3 + [OP_WORK]
        assert [op[0] for op in app.program(0)] == ops
        if work:
            with pytest.raises(ValueError, match="operand outside"):
                app.compiled_program()
        else:
            assert app.compiled_program().source_ops == 7
        assert [op[0] for op in app.program(0)] == ops
