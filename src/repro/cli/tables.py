"""The paper's tables: ``table1`` and ``table4`` (closed-form), and the
§6 cost-model tables ``table5``-``table7``, which need the contention
model and so the simulator."""

from __future__ import annotations

import argparse
import sys
import time

from ..analysis import (render_comparison, render_cost_table, render_table1,
                        render_table4, render_table5)
from ..core.config import PAPER_CLUSTER_SIZES
from ..core.contention import (PAPER_TABLE5, PAPER_TABLE6, PAPER_TABLE7,
                               ExpansionTable, LoadLatencyProfiler,
                               SharedCacheCostModel)
from . import _app_kwargs, _base_config, _executor


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
