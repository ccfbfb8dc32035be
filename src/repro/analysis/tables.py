"""Paper-format table renderers (Tables 1 and 4-7).

Each function returns the table as a string whose rows mirror the paper's
layout, so EXPERIMENTS.md can juxtapose paper and measured values directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from ..core.config import PAPER_CLUSTER_SIZES, LatencyModel

if TYPE_CHECKING:  # pragma: no cover
    from ..core.contention import ClusteredCostResult, ExpansionTable
    from ..core.study import SweepPoint

__all__ = ["render_table1", "render_table4", "render_table5",
           "render_cost_table", "render_comparison",
           "render_protocol_comparison"]


def render_table1() -> str:
    """Table 1: latency of memory operations."""
    lm = LatencyModel()
    rows = [
        ("Hit in cache (1 processor per cluster)", lm.hit_cycles(1)),
        ("Hit in cache (2 processors per cluster)", lm.hit_cycles(2)),
        ("Hit in cache (4 and 8 processors per cluster)", lm.hit_cycles(4)),
        ("Miss to local home, satisfied by home cluster", lm.local_clean),
        ("Miss to local home, satisfied by remote cluster", lm.local_dirty_remote),
        ("Miss to remote home, satisfied by home", lm.remote_clean),
        ("Miss to remote home, satisfied by third party cluster",
         lm.remote_dirty_third_party),
    ]
    width = max(len(r[0]) for r in rows)
    lines = ["Table 1: Latency of Memory Operations",
             f"{'Memory Operation':<{width}}  Cycles",
             "-" * (width + 8)]
    lines += [f"{name:<{width}}  {cycles:>6}" for name, cycles in rows]
    return "\n".join(lines)


def render_table4() -> str:
    """Table 4: probabilities of bank conflict."""
    # deferred: the cost model reaches the simulator, which no other
    # renderer needs
    from ..core.contention import conflict_table

    lines = ["Table 4: Probabilities of Bank Conflict",
             f"{'Processors (n)':>14} {'Banks (m)':>10} {'P(collision)':>13}",
             "-" * 40]
    for n, m, c in conflict_table(PAPER_CLUSTER_SIZES):
        lines.append(f"{n:>14} {m:>10} {c:>13.3f}")
    return "\n".join(lines)


def render_table5(tables: Mapping[str, ExpansionTable],
                  title: str = "Table 5: Load Latency Execution Time Factors",
                  ) -> str:
    """Table 5: execution-time expansion factors for load latencies 1-4."""
    lines = [title,
             f"{'Application':>12} {'1 cyc':>7} {'2 cyc':>7} {'3 cyc':>7} "
             f"{'4 cyc':>7}",
             "-" * 45]
    for app, t in tables.items():
        f = t.factors
        lines.append(f"{app:>12} {f[0]:>7.3f} {f[1]:>7.3f} {f[2]:>7.3f} "
                     f"{f[3]:>7.3f}")
    return "\n".join(lines)


def render_cost_table(results: Iterable[ClusteredCostResult],
                      title: str) -> str:
    """Tables 6/7: relative execution time of clustering with §6 costs."""
    results = list(results)
    if not results:
        return title + "\n(no results)"
    cluster_sizes = sorted(results[0].relative_time)
    header = f"{'Application':>12} " + " ".join(
        f"{c}-way".rjust(8) for c in cluster_sizes)
    lines = [title, header, "-" * len(header)]
    for r in results:
        lines.append(f"{r.app:>12} " + " ".join(
            f"{r.relative_time[c]:8.2f}" for c in cluster_sizes))
    return "\n".join(lines)


def render_protocol_comparison(
        sweep: "Mapping[tuple[str, int], SweepPoint]",
        title: str = "Cross-protocol comparison") -> str:
    """The protocol × cluster-size sweep as an aligned comparison table.

    One row per (protocol, cluster size): absolute execution time, the
    ratio against the directory protocol at the *same* cluster size (what
    the protocol costs), and the ratio against the protocol's own
    smallest-cluster point (what clustering buys under it).
    """
    protocols = list(dict.fromkeys(p for p, _ in sweep))
    clusters = sorted({c for _, c in sweep})
    own_base = {p: next((sweep[(p, c)].execution_time for c in clusters
                         if (p, c) in sweep), None)
                for p in protocols}
    header = (f"{'protocol':>10} {'cluster':>8} {'exec time':>12} "
              f"{'vs directory':>14} {'vs own 1st':>11}")
    lines = [title, "=" * len(title), header, "-" * len(header)]
    for p in protocols:
        for c in clusters:
            point = sweep.get((p, c))
            if point is None:
                continue
            t = point.execution_time
            ref = sweep.get(("directory", c))
            vs_ref = (f"{t / ref.execution_time:14.3f}"
                      if ref is not None and ref.execution_time else
                      " " * 13 + "-")
            base = own_base[p]
            vs_own = f"{t / base:11.3f}" if base else " " * 10 + "-"
            lines.append(f"{p:>10} {f'{c}p':>8} {t:>12} {vs_ref} {vs_own}")
    return "\n".join(lines)


def render_comparison(title: str, columns: Iterable[str],
                      paper: Mapping[str, Iterable[float]],
                      measured: Mapping[str, Iterable[float]]) -> str:
    """Side-by-side paper-vs-measured rows (used by EXPERIMENTS.md)."""
    cols = list(columns)
    header = (f"{'row':>12} {'':>9}" + " ".join(f"{c:>8}" for c in cols))
    lines = [title, header, "-" * len(header)]
    for key in paper:
        pv = list(paper[key])
        lines.append(f"{key:>12} {'paper':>9}" + " ".join(
            f"{v:8.2f}" for v in pv))
        if key in measured:
            mv = list(measured[key])
            lines.append(f"{'':>12} {'measured':>9}" + " ".join(
                f"{v:8.2f}" for v in mv))
    return "\n".join(lines)
