"""Canonical run pipeline: declarative requests, one session, probes.

Every simulation in this repository is the same lifecycle — resolve a
machine configuration, build an application, acquire (or capture) its
compiled reference stream, drive the engine, assemble a
:class:`~repro.core.metrics.RunResult`.  This package owns that lifecycle
end to end:

* :mod:`repro.runtime.plan` — :class:`RunRequest` (the declarative "what
  to run": app, cluster size, cache size, problem kwargs, network
  override) and :class:`RunPlan` (the request resolved against a base
  :class:`~repro.core.config.MachineConfig`);
* :mod:`repro.runtime.session` — :class:`RunSession`, which executes
  requests through the one canonical pipeline (the code path the sweep
  executor, the CLI and the study driver all funnel through);
* :mod:`repro.runtime.hooks` — the :class:`RunObserver` probe protocol
  (phase transitions, per-point timing, result counters) plus the
  built-in :class:`TimingObserver` behind ``repro-clustering run --probe
  timing``.  With no observer attached the pipeline takes no timestamps
  and emits no events — the fast path is unchanged.

Layering: ``runtime`` sits above ``apps``/``sim``/``memory``/``network``
and below ``core`` (the sweep/caching machinery), so every evaluation —
in-process, in a pool worker, on the daemon's point thread — composes
the same pipeline instead of re-wiring engines by hand.
"""

from .hooks import RunObserver, TimingObserver
from .plan import RunPlan, RunRequest
from .session import RunOutcome, RunSession

__all__ = ["RunRequest", "RunPlan", "RunObserver", "TimingObserver",
           "RunOutcome", "RunSession"]
