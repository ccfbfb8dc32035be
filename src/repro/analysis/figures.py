"""Paper-format figure data and rendering (Figures 2-8).

Every evaluation figure in the paper is a family of stacked bars — one bar
per (cache size, cluster size), four components (cpu / load / merge /
sync), normalized to the 1-processor-per-cluster bar of the same cache
size.  :class:`FigureData` holds exactly that structure; renderers emit the
paper's numeric annotations as aligned text tables and an ASCII bar chart
for terminals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.study import CacheKey, SweepPoint, cache_label, normalize_sweep

__all__ = ["Bar", "BarGroup", "FigureData", "contention_slowdown",
           "figure_from_cluster_sweep", "figure_from_capacity_sweep",
           "figure_from_contention_sweep", "figure_from_protocol_sweep",
           "render_rows", "render_ascii", "render_scaling",
           "render_shape_comparison", "render_slowdown"]

_COMPONENTS = ("cpu", "load", "merge", "sync")


@dataclass(frozen=True)
class Bar:
    """One stacked bar: normalized component heights (percent of baseline)."""

    label: str
    cpu: float
    load: float
    merge: float
    sync: float

    @property
    def total(self) -> float:
        return self.cpu + self.load + self.merge + self.sync

    def component(self, name: str) -> float:
        return getattr(self, name)


@dataclass
class BarGroup:
    """Bars sharing a normalization baseline (one cache size)."""

    label: str
    bars: list[Bar] = field(default_factory=list)


@dataclass
class FigureData:
    """A full figure: titled groups of normalized stacked bars."""

    title: str
    groups: list[BarGroup] = field(default_factory=list)

    def bar(self, group_label: str, bar_label: str) -> Bar:
        for g in self.groups:
            if g.label == group_label:
                for b in g.bars:
                    if b.label == bar_label:
                        return b
        raise KeyError(f"no bar {bar_label!r} in group {group_label!r}")

    def series(self, component: str | None = None) -> dict[str, list[float]]:
        """{group label: [values per bar]} of totals or one component."""
        out = {}
        for g in self.groups:
            if component is None:
                out[g.label] = [b.total for b in g.bars]
            else:
                out[g.label] = [b.component(component) for b in g.bars]
        return out


def _grouped_bars(title: str,
                  norms: Mapping[tuple[Any, int], Mapping[str, float]],
                  groups: Mapping[Any, str]) -> FigureData:
    """The one grouped-bar builder behind every ``figure_from_*``.

    ``norms`` maps ``(group, cluster size)`` to a bar's normalized
    components; ``groups`` maps each group, in figure order, to its
    label.  A group's bars are sorted by cluster size.
    """
    fig = FigureData(title=title)
    for group, label in groups.items():
        bars = {c: n for (g, c), n in norms.items() if g == group}
        fig.groups.append(BarGroup(label, [
            Bar(f"{c}p", **{k: bars[c][k] for k in _COMPONENTS})
            for c in sorted(bars)]))
    return fig


def figure_from_cluster_sweep(title: str, sweep: Mapping[int, SweepPoint],
                              ) -> FigureData:
    """Figure 2/3 style: one group, one bar per cluster size."""
    norms = normalize_sweep(sweep)
    return _grouped_bars(title, {(None, c): n for c, n in norms.items()},
                         {None: ""})


def figure_from_capacity_sweep(title: str,
                               sweep: Mapping[tuple[CacheKey, int], SweepPoint],
                               ) -> FigureData:
    """Figure 4-8 style: one group per cache size, bars per cluster size.

    Groups appear in increasing cache size with infinite last, matching the
    paper's left-to-right 4k / 16k / 32k / inf layout.
    """
    cache_sizes = sorted({k for k, _ in sweep},
                         key=lambda k: (k is None, k or 0))
    return _grouped_bars(title, normalize_sweep(sweep),
                         {kb: cache_label(kb) for kb in cache_sizes})


def figure_from_contention_sweep(title: str,
                                 sweep: Mapping[tuple[float, int], SweepPoint],
                                 ) -> FigureData:
    """Contention-sensitivity figure: one group per network load.

    Bars within a load group are normalized to the 1-processor-per-cluster
    bar *at that load*, so the clustering benefit under load reads exactly
    like the paper's figures read the benefit at a cache size: a bar below
    100 means that cluster size beats 1-per-cluster at that load, and the
    load at which larger clusters' bars sink below 100 is the crossover.
    """
    loads = sorted({load for load, _ in sweep})
    return _grouped_bars(title, normalize_sweep(sweep),
                         {load: f"{load:g}" for load in loads})


def figure_from_protocol_sweep(title: str,
                               sweep: Mapping[tuple[str, int], SweepPoint],
                               baseline_protocol: str = "directory",
                               baseline_cluster: int = 1) -> FigureData:
    """Cross-protocol comparison: one group per protocol, bars per cluster.

    Unlike the per-group normalization of the paper figures, every bar
    here is a percentage of **one** global baseline — the
    ``baseline_protocol`` run at ``baseline_cluster`` processors per
    cluster (directory at 1p unless overridden) — so bar heights are
    comparable *across* protocol groups: reading along a cluster size
    shows what the protocol costs, reading along a group shows what
    clustering buys under that protocol.
    """
    protocols = list(dict.fromkeys(p for p, _ in sweep))
    base_key = (baseline_protocol, baseline_cluster)
    if base_key not in sweep:
        base_key = (protocols[0], baseline_cluster)
    if base_key not in sweep:
        raise ValueError(
            f"no baseline point {base_key!r} in the protocol sweep")
    base = sweep[base_key].result.execution_time
    return _grouped_bars(
        title, {key: point.result.breakdown.normalized_to(base)
                for key, point in sweep.items()},
        {p: p for p in protocols})


def contention_slowdown(sweep: Mapping[tuple[float, int], SweepPoint],
                        ) -> dict[int, dict[float, float]]:
    """Per-cluster-size degradation: time(load) / time(lowest load).

    Returns ``{cluster_size: {load: slowdown}}`` with the lowest swept
    load (ideally 0.0) as the 1.0 baseline of each cluster size.  Larger
    clusters sending fewer and shorter-routed messages show smaller
    slowdowns — the quantity the contention study is after.
    """
    by_cluster: dict[int, dict[float, int]] = {}
    for (load, c), point in sweep.items():
        by_cluster.setdefault(c, {})[load] = point.execution_time
    out: dict[int, dict[float, float]] = {}
    for c, times in sorted(by_cluster.items()):
        base = times[min(times)]
        out[c] = {load: times[load] / base for load in sorted(times)}
    return out


def render_slowdown(slowdown: Mapping[int, Mapping[float, float]],
                    title: str) -> str:
    """Aligned slowdown table: one row per cluster size, one column per load."""
    lines = [title, "=" * len(title)]
    loads = sorted({ld for row in slowdown.values() for ld in row})
    header = f"{'cluster':>8} " + " ".join(f"load {ld:g}".rjust(9)
                                           for ld in loads)
    lines.append(header)
    lines.append("-" * len(header))
    for c in sorted(slowdown):
        row = slowdown[c]
        lines.append(f"{f'{c}p':>8} " + " ".join(
            f"{row[ld]:9.3f}" if ld in row else " " * 9 for ld in loads))
    return "\n".join(lines)


def render_rows(fig: FigureData) -> str:
    """The paper's numeric annotations as an aligned text table."""
    lines = [fig.title, "=" * len(fig.title)]
    header = f"{'group':>6} {'bar':>5} {'total':>7} " + " ".join(
        f"{c:>7}" for c in _COMPONENTS)
    lines.append(header)
    lines.append("-" * len(header))
    for g in fig.groups:
        for b in g.bars:
            lines.append(
                f"{g.label:>6} {b.label:>5} {b.total:7.1f} "
                + " ".join(f"{b.component(c):7.1f}" for c in _COMPONENTS))
    return "\n".join(lines)


_GLYPHS = {"cpu": "#", "load": "=", "merge": "~", "sync": "."}


def render_ascii(fig: FigureData, height: int = 25) -> str:
    """Stacked ASCII bars (one column per bar), component glyphs:
    ``#`` cpu, ``=`` load, ``~`` merge, ``.`` sync."""
    cols: list[tuple[str, list[str]]] = []  # (label, glyph column bottom-up)
    max_total = max((b.total for g in fig.groups for b in g.bars), default=100.0)
    scale = height / max(max_total, 1e-9)
    for g in fig.groups:
        for b in g.bars:
            column: list[str] = []
            for comp in _COMPONENTS:
                column.extend([_GLYPHS[comp]] * round(b.component(comp) * scale))
            label = f"{g.label}:{b.label}" if g.label else b.label
            cols.append((label, column))
        cols.append(("", []))  # gap between groups
    if cols and cols[-1][0] == "":
        cols.pop()
    width = max((len(label) for label, _ in cols), default=4)
    lines = [fig.title, ""]
    tallest = max((len(c) for _, c in cols), default=0)
    for row in range(tallest - 1, -1, -1):
        line = " ".join(
            (col[row] if row < len(col) else " ").center(width)
            for _, col in cols)
        lines.append(line)
    lines.append(" ".join(label.center(width) for label, _ in cols))
    legend = "  ".join(f"{g}={c}" for c, g in _GLYPHS.items())
    lines.append(f"[{legend}] (bars are % of the 1p baseline per group)")
    return "\n".join(lines)


def render_scaling(study: Mapping[str, Any]) -> str:
    """The §4 pushout study as an aligned table plus speedup bars.

    ``study`` is a :func:`~repro.core.scaling.pushout` /
    :func:`~repro.core.scaling.scaling_study` result dict.  Both curves
    share one bar scale, so the clustered curve continuing to grow after
    the unclustered one flattens — the pushout — is visible directly.
    """
    su = study["speedups_unclustered"]
    sc = study["speedups_clustered"]
    counts = study.get("processor_counts") or sorted(su)
    csize = study["cluster_size"]
    tier = study.get("tier")
    title = (f"# {study['app']}: §4 scaling pushout — cluster {csize} vs 1"
             + (f", tier {tier}" if tier else ""))
    lines = [title, "=" * len(title)]
    peak = max(max(su.values()), max(sc.values()), 1e-9)
    width = 36
    header = (f"{'P':>6} {'bar':>6} {'speedup':>8}  curve")
    lines.append(header)
    lines.append("-" * (len(header) + width - 5))
    for p in counts:
        for label, series in (("1p", su), (f"{csize}p", sc)):
            bar = "#" * max(1, round(series[p] / peak * width))
            lines.append(f"{p:>6} {label:>6} {series[p]:>8.2f}  {bar}")
    eu = study["effective_unclustered"]
    ec = study["effective_clustered"]
    lines.append(f"effective processors: unclustered {eu}, clustered {ec}")
    if ec > eu:
        lines.append(f"pushout: {ec / eu:g}x — clustering pushes out the "
                     f"effective processor count")
    elif ec == eu:
        lines.append("pushout: none at this problem size (clustered keeps "
                     "pace with unclustered)")
    else:
        lines.append("pushout: negative — clustering rolls over earlier "
                     "here")
    return "\n".join(lines)


def render_shape_comparison(cmp: Mapping[str, Any],
                            label_a: str = "a",
                            label_b: str = "b") -> str:
    """A :func:`~repro.core.scaling.compare_shapes` result as a table.

    Normalised speedups (each curve / its own peak) side by side with the
    pointwise gap, closing with the max divergence the CI smoke gates on.
    """
    counts = cmp["processor_counts"]
    na, nb = cmp["normalised_a"], cmp["normalised_b"]
    title = f"# speedup-curve shape: {label_a} vs {label_b} (each / own peak)"
    lines = [title, "=" * len(title),
             f"{'P':>6} {label_a:>10} {label_b:>10} {'gap':>8}"]
    for p in counts:
        lines.append(f"{p:>6} {na[p]:>10.3f} {nb[p]:>10.3f} "
                     f"{abs(na[p] - nb[p]):>8.3f}")
    lines.append(f"max shape divergence: {cmp['max_divergence']:.3f}")
    return "\n".join(lines)
