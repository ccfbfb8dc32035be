"""The sweep figures: ``fig2``-``fig8``, ``workingset``, ``ablation``,
``network``, ``merge`` and ``study``.

Everything here runs through the executor and its result cache, so a
repeated command is served without the simulator: this module must
import nothing that reaches numpy (``tests/test_cli.py`` holds that).
"""

from __future__ import annotations

import argparse
import sys
import time

from ..analysis import (contention_slowdown, figure_from_capacity_sweep,
                        figure_from_cluster_sweep,
                        figure_from_contention_sweep,
                        figure_from_protocol_sweep, merge_anatomy,
                        miss_breakdown, render_ascii, render_miss_breakdown,
                        render_protocol_comparison, render_rows,
                        render_slowdown)
from ..apps.registry import APP_NAMES, PAPER_PROBLEM_SIZES
from ..core.config import PROTOCOLS
from ..core.study import ClusteringStudy, cache_label
from ..core.workingset import knee_of, overlap_benefit, working_set_curve
from ..runtime.plan import RunRequest
from . import (CAPACITY_FIGURES, _app_kwargs, _base_config, _executor,
               _study)


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
    # half the side of the grid this tier's Figure 2 runs (ocean's
    # default n is the paper's; tests/test_cli.py pins the two equal)
    kwargs["n"] = kwargs.get("n", PAPER_PROBLEM_SIZES["ocean"]["n"]) // 2
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


def cmd_capacity_figure(args: argparse.Namespace) -> int:
    fignum = int(args.command.removeprefix("fig"))
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


def cmd_merge(args: argparse.Namespace) -> int:
    study = _study(args.app, args)
    sweep = study.cluster_sweep(args.cache, args.cluster_sizes)
    print(f"# merge anatomy for {args.app} (cache {cache_label(args.cache)})")
    for c, row in merge_anatomy(sweep).items():
        print(f"{c:>2}p  load {row['load']:>12,.0f}  merge "
              f"{row['merge']:>12,.0f}  load+merge "
              f"{row['load_plus_merge']:>12,.0f}")
    return 0


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
        from ..core.study import SweepPoint
        from ..service import ServiceClient, ServiceError

        requests = [(p, c, RunRequest.make(args.app, c, args.cache,
                                           _app_kwargs(args.app, args),
                                           protocol=p))
                    for p in protocols for c in args.cluster_sizes]
        client = ServiceClient(host or "127.0.0.1", port)
        try:
            # one /resolve round trip, nothing simulated: the daemon's
            # base machine must be the one this command would run
            first = requests[0][2]
            here = first.config_for(_base_config(args)).to_dict()
            there = client.resolve(first)["config"]
            field = next((f for f in here if here[f] != there.get(f)), None)
            if field is not None:
                print(f"repro-clustering: study --server runs another "
                      f"machine — {field}: daemon {there.get(field)}, here "
                      f"{here[field]}", file=sys.stderr)
                return 2
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
