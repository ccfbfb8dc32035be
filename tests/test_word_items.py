"""``OP_WORDS`` items: a batch drained as two int64 arrays stores exactly
the words its per-op tuples store, and refuses exactly what they refuse.

The per-op loop of the drain is the oracle.  Each example drains one op
list twice — op by op, and with some of its runs handed over as items —
and compares the stored bytes (words and ``source_ops``) or the message
of the refusal.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.base import Application
from repro.core.config import MachineConfig
from repro.sim.compiled import compile_program
from repro.sim.program import (OP_BARRIER, OP_LOCK, OP_READ, OP_TASK,
                               OP_UNLOCK, OP_WORDS, OP_WORK, OP_WRITE)

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


def with_items(program):
    for run in program:
        if run is None:
            yield (OP_BARRIER, 0)
        elif run[0]:
            opcodes, args = zip(*run[1]) if run[1] else ((), ())
            yield (OP_WORDS, (np.array(opcodes, dtype=np.int64),
                              np.array(args, dtype=np.int64)))
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
    ops = [OP_WORK] * n_before + [opcode]
    item = (OP_WORDS, (np.array(ops), np.zeros(len(ops), dtype=np.int64)))
    with pytest.raises(ValueError, match="BARRIER or TASK inside"):
        compile_program(lambda pid: iter([item]), 1, LINE)


class _Batch(Application):
    """One processor: a READ of each of ``n`` lines and a WORK between."""
    name = "batch"

    def __init__(self, n):
        super().__init__(MachineConfig(n_processors=1))
        self.n = n

    def setup(self):
        pass

    def program(self, pid):
        args = np.stack([np.arange(self.n) * LINE, np.full(self.n, 2)], 1)
        return self.op_batch(np.array([OP_READ, OP_WORK]), args,
                             np.ones(args.shape, dtype=bool))


@pytest.mark.parametrize("n", [0, 3, 100])
def test_a_batch_is_ops_outside_a_capture(n):
    """Outside a capture a batch is tuples of python ints, in row order,
    before and after a capture; captured (as tuples when short, else as
    an item), it is stored as those ops."""
    app = _Batch(n)
    want = [(OP_READ, i * LINE) if k == 0 else (OP_WORK, 2)
            for i in range(n) for k in (0, 1)]
    assert list(app.program(0)) == want
    assert all(type(a) is int for op in app.program(0) for a in op)
    captured = bytes(app.compiled_program().buffer)
    assert captured == stored(iter(want))
    assert list(app.program(0)) == want
