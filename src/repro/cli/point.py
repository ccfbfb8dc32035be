"""Single-point commands: ``run``, ``compare`` and ``trace``.  ``run`` and
``compare``'s shared-cache half evaluate through the study like every
sweep; ``compare``'s snoopy half and ``trace`` drive python memory
systems, so these commands load the simulator whatever the cache holds."""

from __future__ import annotations

import argparse
import time

from ..apps.registry import build_app
from ..memory import make_memory_system
from ..runtime import RunPlan, RunRequest
from ..sim.stats import summarize
from ..sim.trace import TracingMemory
from . import _app_kwargs, _base_config, _executor, _study


def cmd_run(args: argparse.Namespace) -> int:
    config = _base_config(args).with_clusters(args.clusters).with_cache_kb(
        args.cache)
    t0 = time.time()
    point = _study(args.app, args).run_point(args.clusters, args.cache)
    print(f"# {args.app} on {config.describe()}  [{time.time() - t0:.1f}s]")
    print(summarize(point.result).format())
    if args.probe:  # _executor attached the observer and left out the cache
        print(f"# probe: {args.probe} (pipeline phases)")
        print(_executor(args).observer.format())
    return 0


def _point(app: str, args: argparse.Namespace) -> RunPlan:
    """The single point a ``compare``/``trace`` invocation names."""
    request = RunRequest.make(app, args.clusters, args.cache,
                              _app_kwargs(app, args))
    return RunPlan.resolve(request, _base_config(args))


def cmd_compare(args: argparse.Namespace) -> int:
    """Shared-cache vs snoopy shared-memory cluster, same budget."""
    plan = _point(args.app, args)
    shared = _study(args.app, args).run_point(args.clusters, args.cache).result
    print(f"# shared-cache cluster: {plan.config.describe()}")
    print(summarize(shared).format())

    # the kernel counts no cache-to-cache transfers: the snoopy half runs
    # on a python memory system kept here to read them
    app = build_app(args.app, plan.config, **plan.request.kwargs)
    memory = make_memory_system(plan.config.with_protocol("snoopy"),
                                app.allocator)
    snoopy = app.run(memory=memory)
    print("\n# snoopy shared-memory cluster (same budget)")
    print(summarize(snoopy).format())
    print(f"cache-to-cache transfers: {memory.c2c_transfers:,}")
    ratio = snoopy.execution_time / max(shared.execution_time, 1)
    print(f"\nsnoopy / shared-cache execution time: {ratio:.3f}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Record a reference trace and report its statistics."""
    plan = _point(args.app, args)
    config = plan.config
    app = build_app(args.app, config, **plan.request.kwargs)
    memory = TracingMemory(make_memory_system(config, app.allocator))
    app.run(memory=memory)
    trace = memory.trace()
    print(f"# trace of {args.app} on {config.describe()}")
    for key, value in trace.summary().items():
        print(f"  {key:>15}: {value:,}")
    print(f"  {'footprint':>15}: {trace.footprint_bytes(config.line_size):,}"
          f" bytes")
    if args.output:
        print(f"saved to {trace.save(args.output)}")
    return 0
