"""Processor-count scaling: does clustering "push out" usable parallelism?

The paper's §4 closes its Ocean discussion with a forward-looking claim it
never quantifies: *"clustering may push out the number of processors that
can be used effectively on a fixed problem size"*, and repeats it in §4's
summary ("the best argument that can be made for clustering ... is that it
pushes out the number of processors that can be used effectively").

This module measures exactly that.  For a fixed problem, sweep the total
processor count with and without clustering and compare

* the **speedup curve** T(P₀)/T(P) (anchored at the smallest P), and
* the **effective processor count**: the largest P whose marginal speedup
  from the previous point still exceeds a threshold (beyond it, adding
  processors is no longer "effective").

If the paper's claim holds, the clustered machine's speedup curve rolls
over later — its effective processor count is ≥ the unclustered one.

Every processor count is one
:meth:`~repro.core.study.ClusteringStudy.sweep` grid on a
:class:`~repro.core.executor.SweepExecutor`, so scaling curves get
compiled-trace replay, the shared trace cache (one capture per processor
count serves the clustered *and* unclustered curve of a stream-invariant
app), memory-mapped paper-scale traces, the native C kernel when
selected, result-cache memoization and ``--jobs`` fan-out — exactly like
every other entry layer.

:func:`scaling_study` packages the sweep into the repo's three problem
**tiers** — ``quick`` (CI-speed), ``medium`` (CI-runnable smoke at
intermediate sizes), ``paper`` (the paper's Table 2 sizes, which the
streaming-trace layer makes tractable) — with per-tier processor-count
presets for all nine applications, and :func:`compare_shapes` quantifies
how well a cheap tier's speedup-curve *shape* tracks an expensive one's
(the CI proxy for "the quick study predicts the paper-scale study").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..apps.registry import (APP_NAMES, PAPER_PROBLEM_SIZES,
                             QUICK_PROBLEM_SIZES)
from ..runtime.plan import RunRequest
from .config import MachineConfig
from .executor import SweepExecutor
from .study import ClusteringStudy

__all__ = ["ScalingPoint", "ScalingCurve", "scaling_curve",
           "effective_processors", "pushout", "scaling_study",
           "compare_shapes", "scaling_problem", "scaling_processor_counts",
           "MEDIUM_PROBLEM_SIZES", "SCALING_TIERS"]

#: intermediate problem sizes for the CI-runnable ``medium`` tier —
#: between the quick sanity sizes and the paper's Table 2 sizes, chosen
#: so a full scaling sweep of one app stays in tens of seconds
MEDIUM_PROBLEM_SIZES: dict[str, dict[str, Any]] = {
    "barnes": {"n_particles": 2048, "n_steps": 1},
    "fft": {"n_points": 32768},
    "fmm": {"n_particles": 2048, "levels": 4, "n_steps": 1},
    "lu": {"n": 256, "block": 16},
    "mp3d": {"n_particles": 20000, "n_steps": 2},
    "ocean": {"n": 128, "n_vcycles": 1},
    "radix": {"n_keys": 131072, "radix": 256},
    "raytrace": {"width": 48, "height": 48, "n_spheres": 48},
    "volrend": {"volume_side": 64, "width": 48, "height": 48},
}

#: recognised study tiers, cheapest first
SCALING_TIERS = ("quick", "medium", "paper")

_TIER_PROBLEMS: dict[str, dict[str, dict[str, Any]]] = {
    "quick": QUICK_PROBLEM_SIZES,
    "medium": MEDIUM_PROBLEM_SIZES,
    "paper": PAPER_PROBLEM_SIZES,
}

# Processor-count grids per tier.  Every entry is divisible by the paper
# cluster sizes (2, 4, 8) so one grid serves any clustered/unclustered
# comparison; larger problems keep scaling further, so richer tiers sweep
# higher before the curve rolls over.
_TIER_COUNTS: dict[str, tuple[int, ...]] = {
    "quick": (8, 16, 32, 64),
    "medium": (8, 16, 32, 64),
    "paper": (8, 16, 32, 64, 128),
}


def scaling_problem(app: str, tier: str = "quick") -> dict[str, Any]:
    """Problem kwargs for ``app`` at ``tier`` (copy; safe to mutate)."""
    if tier not in _TIER_PROBLEMS:
        raise ValueError(f"unknown scaling tier {tier!r}; "
                         f"expected one of {SCALING_TIERS}")
    if app not in APP_NAMES:
        raise ValueError(f"unknown application {app!r}")
    return dict(_TIER_PROBLEMS[tier].get(app, {}))


def scaling_processor_counts(tier: str = "quick") -> tuple[int, ...]:
    """The preset processor-count grid for ``tier``."""
    try:
        return _TIER_COUNTS[tier]
    except KeyError:
        raise ValueError(f"unknown scaling tier {tier!r}; "
                         f"expected one of {SCALING_TIERS}") from None


@dataclass(frozen=True)
class ScalingPoint:
    """One processor count on a scaling curve."""

    n_processors: int
    execution_time: int


@dataclass
class ScalingCurve:
    """Execution time vs processor count at a fixed cluster size."""

    app: str
    cluster_size: int
    points: list[ScalingPoint] = field(default_factory=list)

    def speedups(self) -> dict[int, float]:
        """Speedup relative to the smallest processor count measured."""
        if not self.points:
            return {}
        base = min(self.points, key=lambda p: p.n_processors)
        return {p.n_processors: base.execution_time / p.execution_time
                for p in sorted(self.points, key=lambda p: p.n_processors)}


def _curves(app: str, processor_counts: Sequence[int],
            cluster_sizes: Sequence[int], cache_kb: float | None,
            app_kwargs: dict[str, Any] | None,
            executor: SweepExecutor | None,
            protocol: str | None = None) -> list[ScalingCurve]:
    """One T(P) curve per cluster size; each P is one study grid."""
    if executor is None:
        executor = SweepExecutor()
    grid = dict(enumerate(RunRequest.make(app, c, cache_kb, app_kwargs,
                                          protocol=protocol)
                          for c in cluster_sizes))
    curves = [ScalingCurve(app, c) for c in cluster_sizes]
    for n in processor_counts:
        for c in cluster_sizes:
            if n % c:
                raise ValueError(f"cluster size {c} does not divide P={n}")
        study = ClusteringStudy(app, MachineConfig(n_processors=n),
                                executor=executor)
        for curve, point in zip(curves, study.sweep(grid).values()):
            curve.points.append(ScalingPoint(n, point.execution_time))
    return curves


def scaling_curve(app: str, processor_counts: Sequence[int],
                  cluster_size: int = 1,
                  cache_kb: float | None = None,
                  app_kwargs: dict[str, Any] | None = None, *,
                  executor: SweepExecutor | None = None) -> ScalingCurve:
    """Measure T(P) for a fixed problem at one cluster size.

    ``cluster_size`` must divide every entry of ``processor_counts``.
    The same seed (``app_kwargs["seed"]``, else the app's default)
    builds the identical problem at every point.  Points
    run through ``executor`` (default: an in-process, uncached
    :class:`~repro.core.executor.SweepExecutor`); pass one to share its
    trace cache with other curves of the same study, memoize finished
    points in its result cache, or fan out over worker processes.
    """
    return _curves(app, processor_counts, [cluster_size], cache_kb,
                   app_kwargs, executor)[0]


def effective_processors(curve: ScalingCurve,
                         marginal_threshold: float = 1.15) -> int:
    """Largest P still delivering a worthwhile marginal speedup.

    Walking the curve in increasing P, stop before the first doubling-step
    whose speedup ratio falls below ``marginal_threshold`` (1.15 ⇒ a
    doubling must buy at least 15% to count as effective).
    """
    ordered = sorted(curve.points, key=lambda p: p.n_processors)
    if not ordered:
        raise ValueError("empty scaling curve")
    effective = ordered[0].n_processors
    for prev, cur in zip(ordered, ordered[1:]):
        if prev.execution_time / cur.execution_time >= marginal_threshold:
            effective = cur.n_processors
        else:
            break
    return effective


def pushout(app: str, processor_counts: Sequence[int], cluster_size: int,
            cache_kb: float | None = None,
            app_kwargs: dict[str, Any] | None = None,
            marginal_threshold: float = 1.15, *,
            executor: SweepExecutor | None = None,
            protocol: str | None = None) -> dict[str, Any]:
    """The §4 claim, quantified: unclustered vs clustered scaling.

    Returns both curves' speedups and effective processor counts.  The
    flat and the clustered point of each processor count go to
    ``executor`` as one sweep, so they share one trace cache (each
    processor count of a stream-invariant app is captured once and
    replayed clustered) and run side by side under ``--jobs``.
    ``protocol`` selects the coherence back end of every point (``None``:
    the default directory protocol).
    """
    flat, clustered = _curves(app, processor_counts, [1, cluster_size],
                              cache_kb, app_kwargs, executor, protocol)
    return {
        "app": app,
        "cluster_size": cluster_size,
        "processor_counts": sorted(processor_counts),
        "speedups_unclustered": flat.speedups(),
        "speedups_clustered": clustered.speedups(),
        "effective_unclustered": effective_processors(flat,
                                                      marginal_threshold),
        "effective_clustered": effective_processors(clustered,
                                                    marginal_threshold),
    }


def scaling_study(app: str, tier: str = "quick", cluster_size: int = 4,
                  cache_kb: float | None = None,
                  processor_counts: Sequence[int] | None = None,
                  marginal_threshold: float = 1.15, *,
                  executor: SweepExecutor | None = None,
                  protocol: str | None = None) -> dict[str, Any]:
    """The full §4 pushout study for one app at one problem tier.

    A :func:`pushout` run at the tier's preset problem size and
    processor-count grid, annotated with the tier metadata the CLI and
    figure layer report.  ``processor_counts`` overrides the preset grid;
    ``protocol`` is :func:`pushout`'s.
    """
    counts = tuple(processor_counts) if processor_counts \
        else scaling_processor_counts(tier)
    problem = scaling_problem(app, tier)
    study = pushout(app, counts, cluster_size, cache_kb, problem,
                    marginal_threshold, executor=executor, protocol=protocol)
    study["tier"] = tier
    study["problem"] = problem
    study["cache_kb"] = cache_kb
    study["marginal_threshold"] = marginal_threshold
    return study


def compare_shapes(speedups_a: Mapping[int, float],
                   speedups_b: Mapping[int, float]) -> dict[str, Any]:
    """How closely two speedup curves agree in *shape*.

    Each curve is normalised to its own peak speedup over the common
    processor counts, removing the magnitude difference between problem
    sizes; ``max_divergence`` is the largest pointwise gap between the
    normalised curves (0 = identical shape, 1 = maximally different).
    The CI smoke asserts a quick-tier curve stays within a tolerance of
    the richer tier's shape.
    """
    common = sorted(set(speedups_a) & set(speedups_b))
    if not common:
        raise ValueError("speedup curves share no processor counts")
    peak_a = max(speedups_a[p] for p in common)
    peak_b = max(speedups_b[p] for p in common)
    norm_a = {p: speedups_a[p] / peak_a for p in common}
    norm_b = {p: speedups_b[p] / peak_b for p in common}
    return {
        "processor_counts": common,
        "normalised_a": norm_a,
        "normalised_b": norm_b,
        "max_divergence": max(abs(norm_a[p] - norm_b[p]) for p in common),
    }
