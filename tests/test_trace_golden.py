"""Every quick app's capture, pinned column by column.

``tests/golden/trace_columns.json`` holds, per application at its
``QUICK_PROBLEM_SIZES`` on the default 64-processor machine, the sha256
of every processor's opcode and operand column and of the task table
(its two columns and its per-queue task lengths).  Barnes, whose
streams depend on simulated timing, is recorded by ``run_recorded`` at
that one configuration.  A column is hashed as little-endian int64, so
the pin says nothing about how a trace stores its ops — only which ops
a capture stores: each column here is decoded out of the capture's
words.

To re-record after an intentional change to what an app emits::

    PYTHONPATH=src python tests/test_trace_golden.py
"""

import hashlib
import json
import sys
from array import array
from pathlib import Path

import pytest

from repro.apps.registry import APP_NAMES, QUICK_PROBLEM_SIZES, build_app
from repro.core.config import MachineConfig
from repro.sim.compiled import decode

GOLDEN = Path(__file__).parent / "golden" / "trace_columns.json"


def capture(app: str):
    """The app's quick capture on the default machine."""
    built = build_app(app, MachineConfig(), **QUICK_PROBLEM_SIZES[app])
    if built.stream_invariant:
        return built.compiled_program()
    return built.run_recorded()[1]


def split(col) -> tuple:
    """A word column as its ``(opcodes, operands)`` pair."""
    pairs = list(decode(col))
    return [op for op, _ in pairs], [arg for _, arg in pairs]


def columns(program):
    """``(ops, args, task_ops, task_args)``: per-processor column lists,
    then the task table's two columns, as int sequences."""
    ops, args = zip(*map(split, program.words))
    return (ops, args, *split(program.task_words))


def _sha(col) -> str:
    data = array("q", col)
    if sys.byteorder == "big":
        data.byteswap()
    return hashlib.sha256(data.tobytes()).hexdigest()


def digests(program) -> dict:
    ops, args, task_ops, task_args = columns(program)
    lens = json.dumps(program.task_lens, separators=(",", ":"))
    return {"source_ops": program.source_ops,
            "ops": [_sha(c) for c in ops],
            "args": [_sha(c) for c in args],
            "task_ops": _sha(task_ops), "task_args": _sha(task_args),
            "task_lens": hashlib.sha256(lens.encode()).hexdigest()}


@pytest.mark.parametrize("app", APP_NAMES)
def test_capture_matches_golden(app):
    assert digests(capture(app)) == json.loads(GOLDEN.read_text())[app]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({app: digests(capture(app))
                                  for app in APP_NAMES}, indent=1) + "\n")
