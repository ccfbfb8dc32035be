"""``OP_WORDS`` items: a batch drained as two int64 arrays stores exactly
the words its per-op tuples store, and refuses exactly what they refuse.

The per-op loop of the drain is the oracle.  Each example drains one op
list twice — op by op, and with some of its runs handed over as items —
and compares the stored bytes (words and ``source_ops``) or the message
of the refusal.  A batch of several parts, one per processor, is built
into words once and split, and each processor's part must store what
its own per-op drain stores.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sim.compiled as compiled
from repro.apps.base import (Application, TileQueueApplication,
                             table_parts)
from repro.apps.registry import APP_NAMES, QUICK_PROBLEM_SIZES, build_app
from repro.core.config import MachineConfig
from repro.sim.compiled import compile_program
from repro.sim.program import (OP_BARRIER, OP_LOCK, OP_READ, OP_TASK,
                               OP_UNLOCK, OP_WORDS, OP_WORK, OP_WRITE, Batch)

LIMIT = 2 ** 60
LINE = 64

valid_op = st.one_of(
    st.tuples(st.just(OP_WORK), st.integers(0, 50)),
    st.tuples(st.sampled_from([OP_READ, OP_WRITE]),
              st.integers(0, 1 << 16) | st.integers(-2 ** 62, 2 ** 62)),
    st.tuples(st.sampled_from([OP_LOCK, OP_UNLOCK]), st.integers(-99, 99)))
refused_op = st.one_of(
    st.tuples(st.just(OP_WORK), st.integers(-9, -1)),
    st.tuples(st.just(OP_WORK), st.integers(LIMIT, 2 ** 62)),
    # two of these in one WORK run sum past the limit
    st.tuples(st.just(OP_WORK), st.integers(LIMIT // 2, LIMIT - 1)),
    st.tuples(st.sampled_from([OP_LOCK, OP_UNLOCK]),
              st.sampled_from([LIMIT, -LIMIT - 1, 2 ** 62])),
    st.tuples(st.sampled_from([-1, 7, OP_WORDS, 99]), st.integers(0, 9)))


def programs(op):
    """A program: runs of ops, each drained per op (False) or as one
    item (True), and per-op barriers (None) between them."""
    run = st.tuples(st.booleans(), st.lists(op, max_size=80))
    return st.lists(st.one_of(run, st.none()), max_size=8)


def per_op(program):
    for run in program:
        if run is None:
            yield (OP_BARRIER, 0)
        else:
            yield from run[1]


def batch(parts):
    """One :class:`Batch` of op lists, part ``k`` the ``k``-th."""
    ops = [op for part in parts for op in part]
    opcodes, args = zip(*ops) if ops else ((), ())
    return Batch(np.array(opcodes, dtype=np.int64),
                 np.array(args, dtype=np.int64),
                 np.cumsum([0] + [len(part) for part in parts]).tolist())


def with_items(program):
    for run in program:
        if run is None:
            yield (OP_BARRIER, 0)
        elif run[0]:
            yield (OP_WORDS, (batch([run[1]]), 0))
        else:
            yield from run[1]


def stored(ops):
    """The bytes a one-processor drain of ``ops`` stores, or the message
    it refuses them with."""
    try:
        return bytes(compile_program(lambda pid: ops, 1, LINE).buffer)
    except ValueError as exc:
        return str(exc)


def assert_items_store_the_per_op_words(program):
    want = stored(per_op(program))
    assert stored(with_items(program)) == want
    return want


@settings(max_examples=300, deadline=None)
@given(program=programs(valid_op))
@example(program=[(True, [])])  # an empty item
@example(program=[None, (True, [(OP_WORK, 3), (OP_READ, 64)] * 40)])
@example(program=[(False, [(OP_WORK, 1)]),  # WORK runs across item edges
                  (True, [(OP_WORK, 2)] * 70 + [(OP_READ, 8), (OP_WORK, 3)]),
                  (True, [(OP_WORK, 4)] * 66), (False, [(OP_WORK, 5)])])
def test_an_item_stores_the_words_of_its_ops(program):
    """WORK fused within an item and across its edges (into the word
    before it, and the WORK after it into its last word), empty items,
    an item right after a barrier, and ``source_ops`` counting every
    op of an item."""
    assert not isinstance(assert_items_store_the_per_op_words(program), str)


@settings(max_examples=300, deadline=None)
@given(program=programs(st.one_of(valid_op, valid_op, refused_op)))
@example(program=[(True, [(OP_WORK, LIMIT // 2 + 1)] * 70)])
@example(program=[(False, [(OP_WORK, LIMIT - 5)]),
                  (True, [(OP_WORK, 9)] + [(OP_READ, 0)] * 70)])
def test_an_item_refuses_what_its_ops_refuse(program):
    """A negative WORK, an operand (or a WORK run's sum, the word before
    the item included) outside ``[-2**60, 2**60)`` and an unknown
    opcode: the same message as op by op."""
    assert_items_store_the_per_op_words(program)


@pytest.mark.parametrize("opcode", [OP_BARRIER, OP_TASK])
@pytest.mark.parametrize("n_before", [0, 5, 100])
def test_an_item_refuses_barrier_and_task(opcode, n_before):
    """A phased drain stops only at a per-op barrier, and a task take
    is a per-op tuple: neither may hide inside an item, short or long."""
    item = (OP_WORDS, (batch([[(OP_WORK, 0)] * n_before + [(opcode, 0)]]),
                       0))
    with pytest.raises(ValueError, match="BARRIER or TASK inside"):
        compile_program(lambda pid: iter([item]), 1, LINE)


@st.composite
def phases(draw, op):
    """A program of 1-4 processors: phases, each a batch of one part per
    processor, with per-op ops before the part (none: the part comes
    right after the barrier) and a barrier after the phase."""
    n = draw(st.integers(1, 4))
    ops = st.lists(st.lists(op, max_size=3), min_size=n, max_size=n)
    parts = st.lists(st.lists(op, max_size=40), min_size=n, max_size=n)
    return n, draw(st.lists(st.tuples(ops, parts), max_size=4))


def stored_phases(n, program, items):
    """The bytes a drain of ``program`` stores, each part drained op by
    op or, with ``items``, every phase one batch split by processor, or
    the message it refuses them with."""
    batches = [batch(parts) for _, parts in program]

    def factory(pid):
        for (before, parts), one in zip(program, batches):
            yield from before[pid]
            if items:
                yield (OP_WORDS, (one, pid))
            else:
                yield from parts[pid]
            yield (OP_BARRIER, 0)

    try:
        return bytes(compile_program(factory, n, LINE).buffer)
    except ValueError as exc:
        return str(exc)


WORKS = [(OP_WORK, 1)] * 3


@settings(max_examples=300, deadline=None)
@given(program=phases(st.one_of(valid_op, valid_op, valid_op, refused_op)))
@example(program=(3, [([[(OP_WORK, 1)], [], [(OP_READ, 64)]],  # WORK across
                       [WORKS, WORKS, WORKS])]))               # part edges
@example(program=(2, [([[], []], [[(OP_READ, 0)], []]),  # one-op, empty
                      ([[(OP_WORK, 2)], []], [[], [(OP_WORK, 3)]])]))
@example(program=(2, [([[(OP_WORK, LIMIT - 5)], []],
                       [[(OP_WORK, 9)] + [(OP_READ, 0)] * 70, WORKS])]))
def test_a_phase_is_built_once_and_split_by_processor(program):
    """Every processor's part of a phase's batch stores what its per-op
    drain stores: WORK fused within a part, never across a part's edge,
    and a part's leading WORK into its processor's word before it;
    empty and one-op parts, a part right after a barrier, and the
    refusals (a fusion that overflows only that processor's word is
    refused op by op, its message the per-op one)."""
    n, phased = program
    assert stored_phases(n, phased, True) == stored_phases(n, phased, False)


def test_a_barrier_in_any_part_refuses_the_batch():
    """The first part drained refuses a BARRIER in a later one's."""
    one = batch([[(OP_WORK, 1)], [], [(OP_READ, 0), (OP_BARRIER, 0)]])
    with pytest.raises(ValueError, match="BARRIER or TASK inside"):
        compile_program(lambda pid: iter([(OP_WORDS, (one, pid))]), 3, LINE)


@pytest.mark.parametrize("name", APP_NAMES)
def test_a_quick_capture_drains_no_op_as_a_tuple(monkeypatch, name):
    """Every op an app emits reaches the drain inside an ``OP_WORDS``
    item but its synchronisation: its barriers and, for the tile-queue
    codes, the grab (LOCK, UNLOCK, TASK and the queue head's READ and
    WRITE).  Barnes' engine-run prefix is stored as arrays, never
    handed to the drain."""
    app = build_app(name, MachineConfig(n_processors=64),
                    **QUICK_PROBLEM_SIZES[name])
    tuples = Counter()
    drain = compiled._drain

    def counted(gen, *args, **kwargs):
        def ops():
            for op in gen:
                if op[0] != OP_WORDS:
                    tuples[op] += 1
                yield op
        return drain(ops(), *args, **kwargs)

    monkeypatch.setattr(compiled, "_drain", counted)
    app.recorded_program() if name == "barnes" else app.compiled_program()
    sync = {OP_BARRIER}
    if isinstance(app, TileQueueApplication):
        sync |= {OP_LOCK, OP_UNLOCK, OP_TASK}
        head = app.rqueue.element(0)
        assert {op for op in tuples if op[0] in (OP_READ, OP_WRITE)} \
            == {(OP_READ, head), (OP_WRITE, head)}
        sync |= {OP_READ, OP_WRITE}
    assert OP_BARRIER in {op[0] for op in tuples} <= sync  # probe saw them


class _Batch(Application):
    """One processor: a READ of each of ``n`` lines and a WORK between."""
    name = "batch"

    def __init__(self, n):
        super().__init__(MachineConfig(n_processors=1))
        self.n = n

    def place(self):
        pass

    def program(self, pid):
        args = np.stack([np.arange(self.n) * LINE, np.full(self.n, 2)], 1)
        return self.op_batch(*table_parts(
            np.array([OP_READ, OP_WORK]), args,
            np.ones(args.shape, dtype=bool))[:2])


@pytest.mark.parametrize("n", [0, 3, 100])
def test_a_batch_is_ops_outside_a_capture(n):
    """Outside a capture a batch is tuples of python ints, in row order,
    before and after a capture; captured (as an item, however short),
    it is stored as those ops."""
    app = _Batch(n)
    want = [(OP_READ, i * LINE) if k == 0 else (OP_WORK, 2)
            for i in range(n) for k in (0, 1)]
    assert list(app.program(0)) == want
    assert all(type(a) is int for op in app.program(0) for a in op)
    captured = bytes(app.compiled_program().buffer)
    assert captured == stored(iter(want))
    assert list(app.program(0)) == want
