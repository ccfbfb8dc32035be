"""Probe protocol for the run pipeline: observers over session phases.

A :class:`RunObserver` attached to a :class:`~repro.runtime.session.RunSession`
hears the pipeline's phase transitions (``resolve`` → ``build`` →
``capture``/``trace-hit`` → ``execute``), each with its wall-clock
duration and a small info mapping (event counts, cache disposition,
miss/coherence counters).  The contract is deliberately one-way and
post-hoc: observers never influence execution — a session with an
observer produces byte-identical results to one without, which the
parity tests pin.

Zero-cost when detached: the session takes no timestamps and builds no
info dicts unless an observer is attached, so the hot path of a sweep
(thousands of points, no probes) is exactly the historical code path.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from ..core.metrics import RunResult
    from .plan import RunPlan

__all__ = ["RunObserver", "TimingObserver"]


class RunObserver:
    """Base observer: every hook is a no-op; subclass what you need.

    Hooks
    -----
    ``on_phase(name, elapsed_s, info)``
        One pipeline phase finished.  ``name`` is one of ``"resolve"``,
        ``"build"``, ``"capture"``, ``"trace-hit"``, ``"execute"``;
        ``elapsed_s`` is its wall-clock duration; ``info`` carries
        phase-specific facts (see :class:`~repro.runtime.session.RunSession`).
    ``on_result(plan, result)``
        The run finished; ``result`` is the canonical
        :class:`~repro.core.metrics.RunResult` (miss counters, time
        breakdown, optional network stats — the full post-run record).
    """

    def on_phase(self, name: str, elapsed_s: float,
                 info: Mapping[str, Any]) -> None:  # pragma: no cover
        pass

    def on_result(self, plan: "RunPlan",
                  result: "RunResult") -> None:  # pragma: no cover
        pass


class TimingObserver(RunObserver):
    """Built-in probe: record per-phase wall-clock and phase info.

    Backs ``repro-clustering run --probe timing``.  Reusable across runs
    via :meth:`reset`.
    """

    def __init__(self) -> None:
        self.phases: list[tuple[str, float, dict[str, Any]]] = []
        self.result: "RunResult | None" = None

    # ------------------------------------------------------------- protocol
    def on_phase(self, name: str, elapsed_s: float,
                 info: Mapping[str, Any]) -> None:
        self.phases.append((name, elapsed_s, dict(info)))

    def on_result(self, plan: "RunPlan", result: "RunResult") -> None:
        self.result = result

    # -------------------------------------------------------------- queries
    def reset(self) -> None:
        """Forget everything recorded; ready for the next run."""
        self.phases.clear()
        self.result = None

    def elapsed(self, name: str) -> float:
        """Total wall-clock of every recorded phase called ``name``."""
        return sum(t for n, t, _ in self.phases if n == name)

    def total(self) -> float:
        """Wall-clock across all recorded phases."""
        return sum(t for _, t, _ in self.phases)

    def format(self) -> str:
        """Human-readable per-phase report (the ``--probe timing`` output)."""
        lines = []
        for name, elapsed_s, info in self.phases:
            extras = " ".join(f"{k}={v}" for k, v in info.items())
            lines.append(f"  {name:<10} {elapsed_s * 1e3:10.2f} ms"
                         + (f"   {extras}" if extras else ""))
        lines.append(f"  {'total':<10} {self.total() * 1e3:10.2f} ms")
        return "\n".join(lines)


class _Clock:
    """Tiny phase stopwatch the session uses when an observer is attached."""

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    def lap(self) -> float:
        now = time.perf_counter()
        elapsed = now - self._t0
        self._t0 = now
        return elapsed
