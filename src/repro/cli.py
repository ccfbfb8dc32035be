"""Command-line experiment driver.

Examples::

    repro-clustering run ocean --clusters 4 --cache 16
    repro-clustering fig2 --apps ocean lu --quick
    repro-clustering fig3
    repro-clustering fig4            # raytrace capacity sweep
    repro-clustering table4
    repro-clustering table5 --measure
    repro-clustering table6 --quick
    repro-clustering workingset barnes
    repro-clustering ablation associativity
    repro-clustering network ocean --quick --loads 0,0.5,0.8

``--quick`` shrinks problem sizes (~10× fewer cycles) for sanity runs;
``--paper-scale`` selects the paper's Table 2 sizes.  Everything prints the
paper-format numeric tables plus an ASCII rendering of the figures.

Execution control (see ``docs/EXECUTION.md``):

* ``--jobs N`` fans the sweep grid out over ``N`` worker processes
  (results are byte-identical to the serial run — the simulator is
  deterministic);
* ``--native`` forces the native C replay kernel (exit 2 when it cannot
  be built), ``--no-native`` forces the pure-python replay; with
  neither flag the kernel auto-selects (native when a compiler or cached
  artifact is available).  Results are byte-identical either way;

* finished points are memoized in a persistent on-disk cache
  (``~/.cache/repro-clustering`` or ``$REPRO_CACHE_DIR``); a repeated
  command is served from cache.  ``--no-cache`` bypasses it,
  ``--cache-dir`` relocates it.  Hit/miss counts are logged to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any

from .analysis import (contention_slowdown, figure_from_capacity_sweep,
                       figure_from_cluster_sweep,
                       figure_from_contention_sweep,
                       figure_from_protocol_sweep, merge_anatomy,
                       miss_breakdown, render_ascii, render_comparison,
                       render_cost_table, render_miss_breakdown,
                       render_protocol_comparison, render_rows, render_scaling,
                       render_shape_comparison, render_slowdown,
                       render_table1, render_table4, render_table5)
from .apps.registry import (APP_NAMES, PAPER_PROBLEM_SIZES,
                            QUICK_PROBLEM_SIZES, build_app)
from .core.config import (PAPER_CACHE_SIZES_KB, PAPER_CLUSTER_SIZES,
                          PAPER_NETWORK_LOADS, PROTOCOLS, MachineConfig)
from .core.contention import (PAPER_TABLE5, PAPER_TABLE6, PAPER_TABLE7,
                              ExpansionTable, LoadLatencyProfiler,
                              SharedCacheCostModel)
from .core.executor import SweepExecutionError, SweepExecutor
from .core.resultcache import ResultCache, TraceStore
from .core.study import ClusteringStudy, cache_label
from .core.workingset import knee_of, overlap_benefit, working_set_curve
from .runtime import RunPlan, RunRequest, RunSession, TimingObserver
from .service import ServiceDaemon, SweepService
from .sim.compiled import TraceCache
from .sim.stats import summarize

__all__ = ["main"]

#: figure number -> application of the paper's finite-capacity figures
CAPACITY_FIGURES = {4: "raytrace", 5: "mp3d", 6: "barnes", 7: "fmm",
                    8: "volrend"}


def _app_kwargs(name: str, args: argparse.Namespace) -> dict[str, Any]:
    if getattr(args, "paper_scale", False):
        return dict(PAPER_PROBLEM_SIZES.get(name, {}))
    if getattr(args, "quick", False):
        return dict(QUICK_PROBLEM_SIZES.get(name, {}))
    return {}


def _base_config(args: argparse.Namespace) -> MachineConfig:
    return MachineConfig(n_processors=args.processors,
                         protocol=getattr(args, "protocol", "directory"))


def _select_native(args: argparse.Namespace) -> None:
    """Apply ``--native/--no-native`` to the process-wide kernel selection.

    Exits 2 on a contradictory pair, and on ``--native`` when the C
    kernel cannot be built — a forced selection must fail up front, not
    degrade mid-sweep.  With neither flag the auto-detection stands.
    """
    import os

    import repro.native as native

    if args.native and args.no_native:
        print("repro-clustering: --native and --no-native are mutually "
              "exclusive", file=sys.stderr)
        raise SystemExit(2)
    if args.native:
        prev = os.environ.get("REPRO_NATIVE")
        native.set_native(True)
        try:
            native.kernel()
        except RuntimeError as exc:
            if prev is None:
                os.environ.pop("REPRO_NATIVE", None)
            else:
                os.environ["REPRO_NATIVE"] = prev
            print(f"repro-clustering: --native: {exc}", file=sys.stderr)
            raise SystemExit(2)
    elif args.no_native:
        native.set_native(False)


def _executor(args: argparse.Namespace) -> SweepExecutor:
    """One executor per invocation, built from the global flags."""
    executor = getattr(args, "_executor", None)
    if executor is None:
        _select_native(args)
        cache = None if args.no_cache else ResultCache(args.cache_dir)
        # compiled traces: always at least the in-process LRU; the disk
        # tier (shared with --jobs workers and later invocations) follows
        # the result cache's location and --no-cache switch
        store = None if args.no_cache else TraceStore(args.cache_dir)
        jobs = args.jobs or 1
        executor = SweepExecutor(
            backend="process" if jobs > 1 else "serial",
            max_workers=jobs if jobs > 1 else None,
            timeout=args.timeout, cache=cache,
            trace_cache=TraceCache(store))
        args._executor = executor
    return executor


def _study(app: str, args: argparse.Namespace) -> ClusteringStudy:
    return ClusteringStudy(app, _base_config(args), _app_kwargs(app, args),
                           executor=_executor(args))


def _cache_arg(value: str) -> float | None:
    """Parse one cache size: positive KB or ``'inf'``/``'none'``.

    Used as an argparse ``type=`` converter, so a bad value is a usage
    error (exit code 2), not a mid-command traceback.
    """
    if value in ("inf", "none"):
        return None
    try:
        kb = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a cache size in KB or 'inf', got {value!r}")
    if kb <= 0:
        raise argparse.ArgumentTypeError(
            f"cache size must be > 0 KB (or 'inf'), got {value}")
    return kb


def _cache_list(value: str) -> list[float | None]:
    sizes = [_cache_arg(v) for v in value.split(",") if v]
    if not sizes:
        raise argparse.ArgumentTypeError("expected at least one cache size")
    return sizes


def _int_list(value: str) -> list[int]:
    """Comma-separated positive ints (sweep sizes are counts, never <= 0)."""
    try:
        sizes = [int(v) for v in value.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {value!r}")
    if not sizes:
        raise argparse.ArgumentTypeError("expected at least one size")
    for n in sizes:
        if n < 1:
            raise argparse.ArgumentTypeError(
                f"sizes must be >= 1, got {n}")
    return sizes


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _positive_float(value: str) -> float:
    x = float(value)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return x


def _load_list(value: str) -> list[float]:
    loads = [float(v) for v in value.split(",") if v]
    for load in loads:
        if not (0.0 <= load < 1.0):
            raise argparse.ArgumentTypeError(
                f"loads must be in [0, 1), got {load:g}")
    return loads


def cmd_run(args: argparse.Namespace) -> int:
    config = _base_config(args).with_clusters(args.clusters).with_cache_kb(
        args.cache)
    if args.probe == "timing":
        # probe runs bypass the result cache (a cache hit would time
        # nothing) but still share the invocation's trace cache
        observer = TimingObserver()
        session = RunSession(base_config=_base_config(args),
                             trace_cache=_executor(args).trace_cache,
                             observer=observer)
        request = RunRequest.make(args.app, args.clusters, args.cache,
                                  _app_kwargs(args.app, args))
        t0 = time.time()
        result = session.run(request)
        print(f"# {args.app} on {config.describe()}"
              f"  [{time.time() - t0:.1f}s]")
        print(summarize(result).format())
        print("# probe: timing (pipeline phases)")
        print(observer.format())
        return 0
    study = _study(args.app, args)
    t0 = time.time()
    point = study.run_point(args.clusters, args.cache)
    print(f"# {args.app} on {config.describe()}  [{time.time() - t0:.1f}s]")
    print(summarize(point.result).format())
    return 0


def cmd_fig2(args: argparse.Namespace) -> int:
    apps = args.apps or list(APP_NAMES)
    for app in apps:
        study = _study(app, args)
        t0 = time.time()
        sweep = study.cluster_sweep(None, args.cluster_sizes)
        fig = figure_from_cluster_sweep(
            f"Figure 2 ({app}): infinite caches", sweep)
        print(render_rows(fig))
        if args.ascii:
            print(render_ascii(fig))
        print(render_miss_breakdown(miss_breakdown(sweep), f"{app}: misses"))
        print(f"[{time.time() - t0:.1f}s]\n")
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    kwargs = _app_kwargs("ocean", args)
    # the paper's "smaller 66-by-66 grid" against Figure 2's 130-by-130:
    # half the side of the grid this tier's Figure 2 runs
    kwargs["n"] = build_app("ocean", _base_config(args), **kwargs).n // 2
    study = ClusteringStudy("ocean", _base_config(args), kwargs,
                            executor=_executor(args))
    sizes = list(args.cluster_sizes) + [args.processors]  # 'inf' bar
    sweep = study.cluster_sweep(None, sizes)
    fig = figure_from_cluster_sweep(
        "Figure 3: Ocean, infinite cache, small problem", sweep)
    print(render_rows(fig))
    if args.ascii:
        print(render_ascii(fig))
    return 0


def cmd_capacity_figure(args: argparse.Namespace, fignum: int) -> int:
    app = CAPACITY_FIGURES[fignum]
    study = _study(app, args)
    t0 = time.time()
    sweep = study.capacity_sweep(args.cache_sizes, args.cluster_sizes)
    fig = figure_from_capacity_sweep(
        f"Figure {fignum}: finite capacity effects for {app}", sweep)
    print(render_rows(fig))
    if args.ascii:
        print(render_ascii(fig))
    print(f"[{time.time() - t0:.1f}s]")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    print(render_table1())
    return 0


def cmd_table4(args: argparse.Namespace) -> int:
    print(render_table4())
    return 0


def cmd_table5(args: argparse.Namespace) -> int:
    tables = {name: ExpansionTable(f) for name, f in PAPER_TABLE5.items()}
    print(render_table5(tables, "Table 5 (paper, Pixie-measured)"))
    if args.measure:
        profiler = LoadLatencyProfiler(_base_config(args))
        measured = {}
        for app in tables:
            profiler.app_kwargs = _app_kwargs(app, args)
            t0 = time.time()
            measured[app] = profiler.measure(app)
            print(f"  measured {app} [{time.time() - t0:.1f}s]",
                  file=sys.stderr)
        print(render_table5(
            measured, "Table 5 (measured on this engine, no delay-slot "
            "scheduling — upper bounds)"))
    return 0


def _cost_table(title: str, paper: dict[str, tuple[float, ...]],
                cache_kb: float | None, args: argparse.Namespace) -> int:
    """Tables 6/7: a measured row per application of the paper's table,
    then the paper's values side by side for the cluster sizes it has."""
    model = SharedCacheCostModel()
    rows = [model.evaluate(app, cache_kb, _base_config(args),
                           args.cluster_sizes, _app_kwargs(app, args),
                           executor=_executor(args)) for app in paper]
    print(render_cost_table(rows, title))
    cols = [c for c in sorted(args.cluster_sizes) if c in PAPER_CLUSTER_SIZES]
    print()
    print(render_comparison(
        "Paper vs measured", [f"{c}-way" for c in cols],
        {app: [row[PAPER_CLUSTER_SIZES.index(c)] for c in cols]
         for app, row in paper.items()},
        {r.app: [r.relative_time[c] for c in cols] for r in rows}))
    return 0


def cmd_table6(args: argparse.Namespace) -> int:
    return _cost_table(
        "Table 6: Relative Execution Time of Clustering with 4KB Caches "
        "(shared-cache costs included)", PAPER_TABLE6, 4.0, args)


def cmd_table7(args: argparse.Namespace) -> int:
    return _cost_table(
        "Table 7: Relative Execution Time of Clustering with Infinite "
        "Caches (shared-cache costs included)", PAPER_TABLE7, None, args)


def cmd_workingset(args: argparse.Namespace) -> int:
    sizes = list(args.cache_sizes)
    if None not in sizes:
        sizes.append(None)  # always anchor with the infinite cache
    curve = working_set_curve(args.app, sizes_kb=sizes,
                              cluster_size=args.clusters,
                              base_config=_base_config(args),
                              app_kwargs=_app_kwargs(args.app, args),
                              executor=_executor(args))
    print(f"# working set of {args.app} (cluster size {args.clusters})")
    for label, rate, cap in curve.rows():
        print(f"{label:>8}  miss rate {rate:8.4f}  capacity misses {cap:>10,}")
    knee = knee_of(curve)
    print(f"knee: {'beyond probed sizes' if knee is None else f'{knee:g} KB'}")
    # working-set overlap, the quantity Figures 4-8 turn on, at a cache
    # below every application's working set
    lo, hi = min(args.cluster_sizes), max(args.cluster_sizes)
    overlap = overlap_benefit(args.app, 1.0, (lo, hi), _base_config(args),
                              _app_kwargs(args.app, args), _executor(args))
    print(f"capacity misses at {hi}-way / {lo}-way (per-proc 1 KB): "
          f"{overlap[hi]:.2f}")
    return 0


#: E-X1's grid: the paper simulates fully associative caches and names
#: limited associativity as the open question (§7)
ABLATION_APPS = ("barnes", "ocean", "lu")
ABLATION_ASSOCS = ((1, "1-way"), (4, "4-way"), (None, "full"))


def cmd_ablation(args: argparse.Namespace) -> int:
    """Destructive interference: how much of the clustering benefit at
    4 KB/processor survives direct-mapped and 4-way shared caches."""
    lo, hi = min(args.cluster_sizes), max(args.cluster_sizes)
    print("Ablation: associativity vs clustering benefit (4 KB/processor)")
    print(f"{'app':>8} {'assoc':>8} {f'T({lo}p)':>12} {f'T({hi}p)':>12} "
          f"{f'{hi}p/{lo}p':>7}")
    for app in ABLATION_APPS:
        for assoc, label in ABLATION_ASSOCS:
            study = ClusteringStudy(
                app, _base_config(args).with_associativity(assoc),
                _app_kwargs(app, args), executor=_executor(args))
            sweep = study.cluster_sweep(4.0, (lo, hi))
            t_lo, t_hi = sweep[lo].execution_time, sweep[hi].execution_time
            print(f"{app:>8} {label:>8} {t_lo:>12,} {t_hi:>12,} "
                  f"{t_hi / t_lo:7.3f}")
    return 0


def _point(app: str, args: argparse.Namespace) -> RunPlan:
    """The single point a ``compare``/``trace`` invocation names."""
    request = RunRequest.make(app, args.clusters, args.cache,
                              _app_kwargs(app, args))
    return RunPlan.resolve(request, _base_config(args))


def cmd_compare(args: argparse.Namespace) -> int:
    """Shared-cache vs snoopy shared-memory cluster, same budget."""
    from .memory import make_memory_system

    plan = _point(args.app, args)
    session = RunSession(trace_cache=_executor(args).trace_cache)
    shared = session.run_plan(plan).result
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
    from .memory import make_memory_system
    from .sim.trace import TracingMemory

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


def cmd_network(args: argparse.Namespace) -> int:
    """Contention-sensitivity sweep under the mesh interconnect model."""
    cache = args.cache
    loads = sorted(set(args.loads) | {0.0})  # 0 anchors both checks below
    study = _study(args.app, args)
    t0 = time.time()

    table_sweep = study.cluster_sweep(cache, args.cluster_sizes)
    sweep = study.contention_sweep(loads, args.cluster_sizes, cache)

    title = f"# {args.app}: zero-load mesh vs Table 1 (calibration check)"
    print(title)
    print(f"{'bar':>5} {'table':>14} {'mesh @ 0':>14} {'deviation':>10}")
    worst = 0.0
    for c in sorted(args.cluster_sizes):
        t_table = table_sweep[c].execution_time
        t_mesh = sweep[(0.0, c)].execution_time
        dev = 100.0 * (t_mesh - t_table) / t_table
        worst = max(worst, abs(dev))
        print(f"{f'{c}p':>5} {t_table:>14,} {t_mesh:>14,} {dev:>+9.2f}%")
    print(f"worst deviation: {worst:.2f}%\n")

    fig = figure_from_contention_sweep(
        f"Contention sensitivity: {args.app}, cache {cache_label(args.cache)} "
        f"(bars % of 1p at the same load)", sweep)
    print(render_rows(fig))
    if args.ascii:
        print(render_ascii(fig))

    print()
    print(render_slowdown(contention_slowdown(sweep),
                          f"{args.app}: slowdown vs zero network load"))

    top = max(loads)
    print(f"\n# network counters at load {top:g}")
    print(f"{'bar':>5} {'messages':>12} {'hops/msg':>9} {'queue cyc':>12} "
          f"{'peak util':>10}")
    for c in sorted(args.cluster_sizes):
        net = sweep[(top, c)].result.network
        if net is None:
            continue
        per = net.hops / net.messages if net.messages else 0.0
        print(f"{f'{c}p':>5} {net.messages:>12,} {per:>9.2f} "
              f"{net.queue_delay_cycles:>12,} "
              f"{net.peak_link_utilization:>10.3f}")
    print(f"[{time.time() - t0:.1f}s]")
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    """The §4 pushout study: processor-count scaling, clustered vs not."""
    from .core.scaling import (compare_shapes, scaling_processor_counts,
                               scaling_study)

    counts = tuple(args.counts) if args.counts else None
    for c in (counts or scaling_processor_counts(args.tier)):
        if c % args.clusters:
            print(f"repro-clustering: cluster size {args.clusters} does "
                  f"not divide processor count {c}", file=sys.stderr)
            return 2

    executor = _executor(args)
    rendered: list[str] = []
    studies: list[dict[str, Any]] = []
    status = 0
    for app in args.apps:
        study = scaling_study(app, args.tier, cluster_size=args.clusters,
                              cache_kb=args.cache,
                              processor_counts=counts,
                              marginal_threshold=args.threshold,
                              executor=executor, protocol=args.protocol)
        studies.append(study)
        text = render_scaling(study)
        rendered.append(text)
        print(text)
        if study["effective_clustered"] < study["effective_unclustered"]:
            status = 1
        if args.compare_tier:
            other = scaling_study(app, args.compare_tier,
                                  cluster_size=args.clusters,
                                  cache_kb=args.cache,
                                  processor_counts=counts,
                                  marginal_threshold=args.threshold,
                                  executor=executor, protocol=args.protocol)
            studies.append(other)
            shape = compare_shapes(study["speedups_clustered"],
                                   other["speedups_clustered"])
            study["shape_vs"] = {"tier": args.compare_tier,
                                 "max_divergence": shape["max_divergence"]}
            text = render_shape_comparison(
                shape, f"{app}@{args.tier}", f"{app}@{args.compare_tier}")
            rendered.append(text)
            print()
            print(text)
            if shape["max_divergence"] > args.shape_tolerance:
                print(f"repro-clustering: shape divergence "
                      f"{shape['max_divergence']:.3f} exceeds tolerance "
                      f"{args.shape_tolerance:.3f}", file=sys.stderr)
                status = 1
        print()

    if args.figure:
        with open(args.figure, "w", encoding="utf-8") as fh:
            fh.write("\n\n".join(rendered) + "\n")
        print(f"figure written to {args.figure}")
    if args.json:
        import json as _json
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(studies, fh, indent=2, sort_keys=True)
        print(f"study data written to {args.json}")
    return status


def cmd_merge(args: argparse.Namespace) -> int:
    study = _study(args.app, args)
    sweep = study.cluster_sweep(args.cache, args.cluster_sizes)
    print(f"# merge anatomy for {args.app} (cache {cache_label(args.cache)})")
    for c, row in merge_anatomy(sweep).items():
        print(f"{c:>2}p  load {row['load']:>12,.0f}  merge "
              f"{row['merge']:>12,.0f}  load+merge "
              f"{row['load_plus_merge']:>12,.0f}")
    return 0


def _protocol_list(value: str) -> list[str]:
    """Comma-separated protocol names, validated against PROTOCOLS."""
    names = [v for v in value.split(",") if v]
    if not names:
        raise argparse.ArgumentTypeError("expected at least one protocol")
    for name in names:
        if name not in PROTOCOLS:
            raise argparse.ArgumentTypeError(
                f"unknown protocol {name!r}; choose from "
                f"{', '.join(PROTOCOLS)}")
    return names


def cmd_study(args: argparse.Namespace) -> int:
    """Cross-protocol study: protocol × cluster-size grid, one app."""
    protocols = list(args.protocols or PROTOCOLS)
    # the global --protocol names the protocol of interest; make sure the
    # grid includes it (and the directory baseline the figure normalizes
    # to) whatever --protocols narrowed the field to
    focus = getattr(args, "protocol", "directory")
    if focus not in protocols:
        protocols.append(focus)
    if "directory" not in protocols:
        protocols.insert(0, "directory")

    t0 = time.time()
    if args.server:
        host, _, port = args.server.rpartition(":")
        try:
            port = int(port)
        except ValueError:
            print(f"repro-clustering: --server expects HOST:PORT, got "
                  f"{args.server!r}", file=sys.stderr)
            return 2
        from .core.study import SweepPoint
        from .service import ServiceClient, ServiceError

        requests = [(p, c, RunRequest.make(args.app, c, args.cache,
                                           _app_kwargs(args.app, args),
                                           protocol=p))
                    for p in protocols for c in args.cluster_sizes]
        client = ServiceClient(host or "127.0.0.1", port)
        try:
            reports = client.run_sweep([r for _, _, r in requests])
        except (ServiceError, OSError) as exc:
            print(f"repro-clustering: study --server: {exc}",
                  file=sys.stderr)
            return 1
        finally:
            client.close()
        sweep = {(p, c): SweepPoint(args.app, c, args.cache, rep.result)
                 for (p, c, _), rep in zip(requests, reports)}
        served = (f"daemon {args.server}: {len(reports)} points, "
                  f"{sum(r.cached for r in reports)} cached, "
                  f"{sum(r.coalesced for r in reports)} coalesced")
    else:
        study = _study(args.app, args)
        sweep = study.protocol_sweep(protocols, args.cluster_sizes,
                                     args.cache)
        served = None

    fig = figure_from_protocol_sweep(
        f"Cross-protocol comparison: {args.app}, cache "
        f"{cache_label(args.cache)} (bars % of directory @ 1p)", sweep)
    print(render_rows(fig))
    if args.ascii:
        print()
        print(render_ascii(fig))
    print()
    print(render_protocol_comparison(
        sweep, f"{args.app}: protocol × cluster size"))
    if served:
        print(f"[{served}]", file=sys.stderr)
    print(f"[{time.time() - t0:.1f}s]")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived sweep service daemon (see docs/SERVICE.md)."""
    executor = _executor(args)
    # the service layer owns memoization (the cache must compose with
    # single-flight coalescing), so the executor's own cache hook is
    # detached and handed to the service instead
    cache = executor.cache
    executor.cache = None
    service = SweepService(executor, base_config=_base_config(args),
                           cache=cache)
    daemon = ServiceDaemon(service, host=args.host, port=args.port,
                           drain_deadline=args.drain)
    rc = daemon.run_blocking(announce=True)
    stats = service.stats_dict()
    print(f"repro-clustering serve: stopped after {stats['uptime_s']:.1f}s — "
          f"{stats['points']} points ({stats['executed']} executed, "
          f"{stats['cache_hits']} cache hits, {stats['coalesced']} "
          f"coalesced, {stats['errors']} errors)", file=sys.stderr)
    return rc


def _add_global_options(p: argparse.ArgumentParser, *,
                        suppress: bool = False) -> None:
    """The option set shared by the driver and every subcommand.

    Added twice: to the main parser with real defaults, and to each
    subparser with ``SUPPRESS`` defaults so ``fig2 --quick --jobs 4``
    works as well as ``--quick --jobs 4 fig2`` without the subparser's
    defaults clobbering values already parsed at the top level.
    """
    def dflt(value: Any) -> Any:
        return argparse.SUPPRESS if suppress else value

    p.add_argument("--processors", type=_positive_int, default=dflt(64),
                   help="total processors (default 64, the paper's machine)")
    p.add_argument("--quick", action="store_true", default=dflt(False),
                   help="reduced problem sizes for fast sanity runs")
    p.add_argument("--paper-scale", action="store_true", default=dflt(False),
                   help="the paper's Table 2 problem sizes")
    p.add_argument("--ascii", action="store_true", default=dflt(False),
                   help="also draw ASCII bar charts")
    p.add_argument("--jobs", type=_positive_int, default=dflt(1), metavar="N",
                   help="evaluate sweep points in N worker processes "
                   "(default 1 = serial; results are identical either way)")
    p.add_argument("--native", action="store_true", default=dflt(False),
                   help="force the native C replay kernel (exit 2 when it "
                   "cannot be built; results are byte-identical to the "
                   "pure-python replay)")
    p.add_argument("--no-native", action="store_true", default=dflt(False),
                   help="force the pure-python replay (default is "
                   "auto: native when a compiler or cached artifact exists)")
    p.add_argument("--timeout", type=_positive_float, default=dflt(None),
                   metavar="SECS",
                   help="per-point wall-clock limit; needs --jobs N (N > 1), "
                   "the serial backend cannot abandon a point; a late "
                   "point reports an error, the sweep continues")
    p.add_argument("--no-cache", action="store_true", default=dflt(False),
                   help="bypass the persistent result cache entirely "
                   "(neither read nor write)")
    p.add_argument("--cache-dir", default=dflt(None), metavar="DIR",
                   help="result cache location (default $REPRO_CACHE_DIR "
                   "or ~/.cache/repro-clustering)")
    p.add_argument("--cluster-sizes", type=_int_list,
                   default=dflt(list(PAPER_CLUSTER_SIZES)), metavar="N,N,...",
                   help="comma-separated cluster sizes (default 1,2,4,8)")
    p.add_argument("--protocol", choices=PROTOCOLS,
                   default=dflt("directory"),
                   help="coherence protocol backend (default directory — "
                   "the paper's full-bit-vector directory; 'snoopy' is "
                   "the paper's shared-main-memory cluster, 'dls' a "
                   "directoryless shared LLC)")
    p.add_argument("--cache-sizes", type=_cache_list,
                   default=dflt(list(PAPER_CACHE_SIZES_KB)), metavar="KB,...",
                   help="comma-separated per-processor cache sizes in KB "
                   "('inf' allowed; default 4,16,32,inf)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-clustering",
        description="Reproduce 'The Benefits of Clustering in Shared "
        "Address Space Multiprocessors' (SC'95)",
        # no prefix abbreviation: subcommand flags like `run --cache` must
        # not collide with global --cache-dir/--cache-sizes
        allow_abbrev=False)
    _add_global_options(p)
    sub = p.add_subparsers(dest="command", required=True)

    def add_command(name: str, **kwargs: Any) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, allow_abbrev=False, **kwargs)
        _add_global_options(sp, suppress=True)
        return sp

    sp = add_command("run", help="simulate one app on one configuration")
    sp.add_argument("app", choices=APP_NAMES)
    sp.add_argument("--clusters", type=_positive_int, default=1)
    sp.add_argument("--cache", type=_cache_arg, default=None,
                    help="per-processor cache KB or 'inf' (default inf)")
    sp.add_argument("--probe", choices=["timing"], default=None,
                    help="attach a pipeline probe: 'timing' prints "
                    "per-phase wall-clock and event counts (bypasses the "
                    "result cache)")
    sp.set_defaults(func=cmd_run)

    sp = add_command("fig2", help="infinite-cache cluster sweeps")
    sp.add_argument("--apps", nargs="+", choices=APP_NAMES)
    sp.set_defaults(func=cmd_fig2)

    sp = add_command("fig3", help="Ocean small problem, infinite cache")
    sp.set_defaults(func=cmd_fig3)

    for num, app in CAPACITY_FIGURES.items():
        sp = add_command(f"fig{num}",
                            help=f"finite capacity effects for {app}")
        sp.set_defaults(func=lambda a, n=num: cmd_capacity_figure(a, n))

    for num, fn in ((1, cmd_table1), (4, cmd_table4)):
        sp = add_command(f"table{num}")
        sp.set_defaults(func=fn)

    sp = add_command("table5", help="load-latency expansion factors")
    sp.add_argument("--measure", action="store_true",
                    help="also measure factors on this engine (slow)")
    sp.set_defaults(func=cmd_table5)

    sp = add_command("table6", help="4KB caches + shared-cache costs")
    sp.set_defaults(func=cmd_table6)
    sp = add_command("table7", help="infinite caches + shared-cache costs")
    sp.set_defaults(func=cmd_table7)

    sp = add_command("workingset", help="miss rate vs cache size")
    sp.add_argument("app", choices=APP_NAMES)
    sp.add_argument("--clusters", type=_positive_int, default=1)
    sp.set_defaults(func=cmd_workingset)

    sp = add_command("ablation", help="E-X1: clustering benefit at "
                     "direct-mapped / 4-way / fully associative caches")
    sp.add_argument("study", choices=["associativity"])
    sp.set_defaults(func=cmd_ablation)

    sp = add_command("network",
                        help="interconnect contention sensitivity "
                        "(mesh model vs Table 1)")
    sp.add_argument("app", nargs="?", default="ocean", choices=APP_NAMES)
    sp.add_argument("--cache", type=_cache_arg, default=None,
                    help="per-processor cache KB or 'inf' (default inf)")
    sp.add_argument("--loads", type=_load_list,
                    default=list(PAPER_NETWORK_LOADS), metavar="L,L,...",
                    help="background network loads in [0,1) to sweep "
                    "(default 0,0.3,0.6,0.8; 0 is always included)")
    sp.set_defaults(func=cmd_network)

    sp = add_command("scaling",
                     help="§4 pushout study: processor-count scaling, "
                     "clustered vs unclustered, with tier presets")
    sp.add_argument("apps", nargs="*", choices=APP_NAMES, metavar="APP",
                    default=["raytrace"],
                    help="applications to study (default raytrace, the "
                    "clearest quick-scale pushout)")
    sp.add_argument("--tier", choices=("quick", "medium", "paper"),
                    default="quick",
                    help="problem-size tier: quick sanity sizes, medium "
                    "CI smoke, or the paper's Table 2 sizes (default "
                    "quick)")
    sp.add_argument("--clusters", type=_positive_int, default=4,
                    help="cluster size to compare against unclustered "
                    "(default 4)")
    sp.add_argument("--cache", type=_cache_arg, default=None,
                    help="per-processor cache KB or 'inf' (default inf)")
    sp.add_argument("--counts", type=_int_list, default=None,
                    metavar="N,N,...",
                    help="processor counts to sweep (default: the tier's "
                    "preset grid)")
    sp.add_argument("--threshold", type=_positive_float, default=1.15,
                    metavar="RATIO",
                    help="marginal speedup a doubling must deliver to "
                    "count as effective (default 1.15)")
    sp.add_argument("--compare-tier", choices=("quick", "medium", "paper"),
                    default=None, metavar="TIER",
                    help="also run TIER and compare speedup-curve shapes")
    sp.add_argument("--shape-tolerance", type=_positive_float, default=0.25,
                    metavar="FRAC",
                    help="max normalised shape divergence allowed with "
                    "--compare-tier before exiting 1 (default 0.25)")
    sp.add_argument("--figure", metavar="PATH",
                    help="write the rendered figures to PATH")
    sp.add_argument("--json", metavar="PATH",
                    help="write the study dicts as JSON to PATH")
    sp.set_defaults(func=cmd_scaling)

    sp = add_command("merge", help="load-vs-merge anatomy per cluster size")
    sp.add_argument("app", choices=APP_NAMES)
    sp.add_argument("--cache", type=_cache_arg, default=None,
                    help="per-processor cache KB or 'inf' (default inf)")
    sp.set_defaults(func=cmd_merge)

    sp = add_command("study",
                     help="cross-protocol study: protocol × cluster-size "
                     "grid with a comparison figure and table")
    sp.add_argument("app", nargs="?", default="ocean", choices=APP_NAMES)
    sp.add_argument("--protocols", type=_protocol_list, default=None,
                    metavar="P,P,...",
                    help="protocols to sweep (default: all of "
                    f"{','.join(PROTOCOLS)}; the global --protocol and "
                    "the directory baseline are always included)")
    sp.add_argument("--cache", type=_cache_arg, default=None,
                    help="per-processor cache KB or 'inf' (default inf)")
    sp.add_argument("--server", metavar="HOST:PORT",
                    help="evaluate the grid through a running sweep "
                    "daemon ('repro-clustering serve') instead of "
                    "in-process")
    sp.set_defaults(func=cmd_study)

    sp = add_command("compare",
                        help="shared-cache vs snoopy shared-memory cluster")
    sp.add_argument("app", choices=APP_NAMES)
    sp.add_argument("--clusters", type=_positive_int, default=4)
    sp.add_argument("--cache", type=_cache_arg, default=4.0)
    sp.set_defaults(func=cmd_compare)

    sp = add_command("trace", help="record a reference trace")
    sp.add_argument("app", choices=APP_NAMES)
    sp.add_argument("--clusters", type=_positive_int, default=1)
    sp.add_argument("--cache", type=_cache_arg, default=None,
                    help="per-processor cache KB or 'inf' (default inf)")
    sp.add_argument("--output", help="save the trace to this .npz file")
    sp.set_defaults(func=cmd_trace)

    sp = add_command("serve",
                     help="long-lived simulation daemon: HTTP+JSON point/"
                     "sweep API with single-flight request coalescing")
    sp.add_argument("--host", default="127.0.0.1",
                    help="bind address (default 127.0.0.1)")
    sp.add_argument("--port", type=int, default=8642,
                    help="TCP port (default 8642; 0 = ephemeral)")
    sp.add_argument("--drain", type=_positive_float, default=10.0,
                    metavar="SECS",
                    help="graceful-shutdown deadline for in-flight points "
                    "(default 10)")
    sp.set_defaults(func=cmd_serve)
    return p


def _ignored_flag(args: argparse.Namespace) -> str | None:
    """Why this flag combination would silently change nothing (or
    contradict itself), if it would."""
    if args.quick and args.paper_scale:
        return "--quick and --paper-scale are mutually exclusive"
    if args.func is cmd_scaling and (args.quick or args.paper_scale):
        return ("scaling sizes its problems with --tier, not "
                "--quick/--paper-scale")
    if args.timeout is not None and args.jobs == 1:
        return ("--timeout needs --jobs N (N > 1): the serial backend "
                "cannot abandon a point")
    if args.func is cmd_compare and args.protocol == "snoopy":
        return ("compare runs the snoopy cluster against --protocol's "
                "shared-cache cluster; --protocol snoopy would compare "
                "snoopy with itself")
    return None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    problem = _ignored_flag(args)
    if problem:
        print(f"repro-clustering: {problem}", file=sys.stderr)
        return 2
    clean = False
    try:
        rc = args.func(args)
        clean = True
    except SweepExecutionError as exc:
        print(f"repro-clustering: {exc}", file=sys.stderr)
        rc = 1
    finally:
        # join the --jobs workers after a clean run; after a failed point
        # or Ctrl-C one may still be busy, so only drop the queue
        executor = getattr(args, "_executor", None)
        if executor is not None:
            executor.close(wait=clean)
    if executor is not None and executor.cache is not None:
        cache = executor.cache
        print(f"[result cache: {cache.stats()} — {cache.directory}]",
              file=sys.stderr)
    if executor is not None and executor.trace_cache is not None:
        tc = executor.trace_cache
        if tc.hits or tc.misses:
            print(f"[trace cache: {tc.stats()}]", file=sys.stderr)
    return rc


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
