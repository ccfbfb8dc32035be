"""RunSession: the one canonical pipeline from request to result.

Every entry layer — the CLI, :class:`~repro.core.study.ClusteringStudy`,
and :class:`~repro.core.executor.SweepExecutor` at every ``jobs`` — funnels
through this module.  A session performs, in order:

1. **resolve** — bind the :class:`~repro.runtime.plan.RunRequest` to the
   base machine config (:meth:`RunPlan.resolve`);
2. **build** — construct the application and run its setup (allocation,
   placement, problem construction);
3. **trace acquisition** — look the compiled reference stream up in the
   trace cache (``trace-hit``) or capture it (``capture``), honouring
   :attr:`~repro.apps.base.Application.stream_invariant`;
4. **execute** — replay the trace (native kernel or python engine) and
   assemble the :class:`~repro.core.metrics.RunResult`.

Attaching a :class:`~repro.runtime.hooks.RunObserver` adds timestamps
and phase events around the same calls without reordering them, so
observed and unobserved runs are bit-identical (pinned by
``tests/test_runtime.py``).

A tool that needs the memory system afterwards (reference tracing, the
snoopy cache-to-cache count, load-latency calibration) builds its own
and hands it to :meth:`Application.run <repro.apps.base.Application.run>`
— the one entry for a caller-held memory system; nothing it runs enters
the trace cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .hooks import RunObserver, _Clock
from .plan import RunPlan, RunRequest

if TYPE_CHECKING:  # pragma: no cover
    from ..apps.base import Application
    from ..core.config import MachineConfig
    from ..core.metrics import RunResult
    from ..sim.compiled import CompiledProgram, TraceCache

__all__ = ["RunOutcome", "RunSession"]


@dataclass
class RunOutcome:
    """Everything a finished pipeline pass produced.

    ``result`` is always set.  ``program`` is the compiled trace that
    was replayed or captured, ``from_cache`` marks traces served from the
    trace cache, and ``kernel`` names what replayed a compiled trace
    (``"native"`` or ``"python"``; ``None`` when barnes' recording run
    was the execution).
    """

    plan: RunPlan
    result: RunResult
    app: "Application"
    program: "CompiledProgram"
    from_cache: bool = False
    kernel: str | None = None

    @property
    def request(self) -> RunRequest:
        return self.plan.request

    @property
    def config(self) -> MachineConfig:
        return self.plan.config


@dataclass
class RunSession:
    """Executes :class:`RunRequest`\\ s through the canonical pipeline.

    Parameters
    ----------
    base_config:
        Machine template requests resolve against (default machine when
        ``None``).  Per-request cluster/cache/network settings are
        applied on top.
    trace_cache:
        Optional :class:`~repro.sim.compiled.TraceCache`; compiled
        streams are served from and written back to it.  ``None`` makes
        every run capture its own stream.
    observer:
        Optional :class:`~repro.runtime.hooks.RunObserver`.  When
        ``None`` the pipeline takes no timestamps — detached sessions
        add zero work to the historical path.
    """

    base_config: MachineConfig | None = None
    trace_cache: "TraceCache | None" = field(default=None, repr=False)
    observer: RunObserver | None = field(default=None, repr=False)

    # ------------------------------------------------------------------ API
    def run(self, request: RunRequest) -> RunResult:
        """Run one request; the result-only view of :meth:`run_plan`."""
        return self.run_plan(
            RunPlan.resolve(request, self.base_config)).result

    def run_plan(self, plan: RunPlan) -> RunOutcome:
        """Execute a resolved plan through the canonical pipeline."""
        obs = self.observer
        clock = _Clock() if obs is not None else None
        app = self._build(plan, clock)

        from ..sim.compiled import trace_key  # deferred: avoids import cycle

        request = plan.request
        key = trace_key(request.app, request.kwargs, plan.config, app.seed,
                        stream_invariant=app.stream_invariant)
        # acquire the program: cache hit | capture | recording run
        cache = self.trace_cache
        program = cache.get(key) if cache is not None else None
        from_cache = program is not None
        result = kernel = None
        if from_cache:
            if obs is not None:
                obs.on_phase("trace-hit", clock.lap(),
                             {"ops": program.total_ops,
                              "mapped": program.mapped})
        else:
            if app.stream_invariant:
                program = app.compiled_program()
            else:
                # barnes: the stream is decided by the run itself, so
                # capture during generator execution; the capture replays
                # bit-identically at this exact configuration only (the
                # trace key covers the full config)
                result, program = app.run_recorded()
            if cache is not None:
                cache.put(key, program)
            if obs is not None and result is None:
                obs.on_phase("capture", clock.lap(),
                             {"ops": program.total_ops,
                              "source_ops": program.source_ops,
                              "tasks": sum(map(len, program.task_lens))})
        # replay it, unless the recording run was already the execution
        if result is None:
            result, kernel = self._replay(plan, app, program)
        return self._finish(RunOutcome(plan, result, app, program,
                                       from_cache, kernel), clock)

    # ------------------------------------------------------------ internals
    def _build(self, plan: RunPlan, clock: _Clock | None) -> "Application":
        """Construct and set up the plan's application (resolve + build)."""
        obs = self.observer
        if obs is not None:
            obs.on_phase("resolve", clock.lap(),
                         {"config": plan.config.describe()})

        from ..apps.registry import build_app  # deferred: avoids import cycle

        request = plan.request
        app = build_app(request.app, plan.config, **request.kwargs)
        app.ensure_setup()
        if obs is not None:
            obs.on_phase("build", clock.lap(), {"app": request.app})
        return app

    def _replay(self, plan: RunPlan, app: "Application",
                program: "CompiledProgram") -> "tuple[RunResult, str]":
        """Replay a compiled trace; returns the result and the kernel.

        The native C kernel serves the point when selected and eligible
        (:func:`~repro.sim.nativereplay.try_replay_native` — byte-
        identical to the canonical replay); everything else runs on
        :meth:`Application.run`'s python replay.
        """
        from ..sim.nativereplay import try_replay_native
        result = try_replay_native(plan.config, app, program)
        if result is not None:
            return result, "native"
        return app.run(program=program), "python"

    def _finish(self, outcome: RunOutcome, clock: _Clock | None) -> RunOutcome:
        obs = self.observer
        if obs is not None:
            result = outcome.result
            info = {"references": result.misses.references,
                    "cycles": result.execution_time}
            if outcome.kernel is not None:
                info["kernel"] = outcome.kernel
            else:
                # barnes' recording run was the execution: the generators
                # on the python engine, captured as they ran (there is no
                # separate ``capture`` phase to say so)
                info.update(recorded=True, ops=outcome.program.total_ops,
                            source_ops=outcome.program.source_ops)
            if outcome.kernel == "python":
                from ..sim.nativereplay import native_decline_reason
                # an eligible machine on python means the kernel itself
                # was switched off or could not be built
                info["declined"] = (native_decline_reason(outcome.config)
                                    or "native-off-or-unavailable")
            obs.on_phase("execute", clock.lap(), info)
            obs.on_result(outcome.plan, result)
        return outcome
