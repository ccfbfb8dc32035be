"""Reference-trace capture.

The paper's methodology is execution-driven simulation, but the community
standard it sits in is *trace-driven* cache simulation, whose raw material
is the global interleaved reference stream.  This module records it:

* :class:`TracingMemory` — wraps any memory system and records every
  reference it services: ``(time, processor, kind, line)``;
* :class:`ReferenceTrace` — the recorded stream, with save/load (a compact
  binary numpy format) and summary statistics.

Not to be confused with :mod:`repro.sim.compiled`: a
:class:`ReferenceTrace` is a *memory-level* record (post-engine, timing
frozen), while a :class:`~repro.sim.compiled.CompiledProgram` is a
*program-level* capture of the op stream fed to the engine — replaying
one re-runs the full timing simulation and is bit-identical to generator
execution, which is how every what-if on another machine is run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.metrics import MissCounters

__all__ = ["ReferenceTrace", "TracingMemory"]

#: record kinds
KIND_READ = 0
KIND_WRITE = 1


@dataclass
class ReferenceTrace:
    """A recorded reference stream (columnar numpy storage)."""

    times: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    processors: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    kinds: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))
    lines: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    def __len__(self) -> int:
        return len(self.times)

    # ------------------------------------------------------------- storage
    def save(self, path: str | Path) -> str:
        """Write the trace as a compressed ``.npz``; returns the path written.

        numpy appends ``.npz`` to a path that lacks it, so the returned
        path is the one to report and to :meth:`load` from.
        """
        path = os.fspath(path)
        if not path.endswith(".npz"):
            path += ".npz"
        np.savez_compressed(path, times=self.times, processors=self.processors,
                            kinds=self.kinds, lines=self.lines)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ReferenceTrace":
        """Read a trace written by :meth:`save`."""
        with np.load(path) as data:
            return cls(times=data["times"], processors=data["processors"],
                       kinds=data["kinds"], lines=data["lines"])

    # ------------------------------------------------------------ analysis
    def summary(self) -> dict[str, float | int]:
        """Aggregate statistics of the stream."""
        n = len(self)
        if n == 0:
            return {"references": 0, "reads": 0, "writes": 0,
                    "distinct_lines": 0, "duration": 0}
        reads = int((self.kinds == KIND_READ).sum())
        return {
            "references": n,
            "reads": reads,
            "writes": n - reads,
            "distinct_lines": int(len(np.unique(self.lines))),
            "duration": int(self.times.max() - self.times.min()),
        }

    def footprint_bytes(self, line_size: int = 64) -> int:
        """Bytes of distinct memory touched."""
        return int(len(np.unique(self.lines))) * line_size


class TracingMemory:
    """Memory-system wrapper that records every reference it forwards.

    Drop-in for the engine: ``app.run(memory=TracingMemory(inner))``.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self._times: list[int] = []
        self._procs: list[int] = []
        self._kinds: list[int] = []
        self._lines: list[int] = []

    def read(self, processor: int, line: int, now: int,
             is_retry: bool = False):
        if not is_retry:
            self._times.append(now)
            self._procs.append(processor)
            self._kinds.append(KIND_READ)
            self._lines.append(line)
        return self.inner.read(processor, line, now, is_retry)

    def write(self, processor: int, line: int, now: int):
        self._times.append(now)
        self._procs.append(processor)
        self._kinds.append(KIND_WRITE)
        self._lines.append(line)
        return self.inner.write(processor, line, now)

    def aggregate_counters(self) -> MissCounters:
        return self.inner.aggregate_counters()

    @property
    def counters(self):
        return getattr(self.inner, "counters", [])

    def trace(self) -> ReferenceTrace:
        """The stream recorded so far."""
        return ReferenceTrace(
            times=np.asarray(self._times, np.int64),
            processors=np.asarray(self._procs, np.int32),
            kinds=np.asarray(self._kinds, np.int8),
            lines=np.asarray(self._lines, np.int64),
        )
