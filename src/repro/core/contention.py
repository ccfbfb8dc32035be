"""Shared first-level-cache cost model (paper §6, Tables 4-7).

The event-driven engine simulates single-cycle cache hits; sharing a first-
level cache costs more than that, in two ways the paper models analytically:

1. **Bank conflicts** (Table 4).  The shared cache has 4 banks per
   processor in the cluster (so an n-processor cluster is 4n-way
   interleaved); every processor issues a reference to a random bank each
   cycle and stalls a cycle on a conflict.  The probability that a
   reference conflicts with at least one other is::

       C = 1 - ((m - 1) / m) ** (n - 1)

   with m banks and n processors — 0.0 / 0.125 / 0.176 / 0.199 for the
   paper's cluster sizes.

2. **Longer hit time** (Table 1 rows 1-3 + Table 5).  A multi-ported,
   multi-banked cache has a 2-cycle (2-processor) or 3-cycle (4/8-
   processor) hit time.  The execution-time cost of adding load delay
   slots is far less than proportional — the compiler schedules
   independent work into the slots — so the paper measured per-application
   *execution-time expansion factors* with Pixie (Table 5).

The combined §6 estimator takes a simulated execution time and multiplies
by the conflict-weighted expansion factor::

    factor(n) = (1 - C)·E(hit(n)) + C·E(hit(n) + 1)

which applied to a cluster sweep reproduces Tables 6 and 7.

Our reproduction of Table 5 is two-fold: the paper's Pixie-measured factors
ship as :data:`PAPER_TABLE5` calibrated constants (we cannot re-run MIPS
basic-block scheduling), and :class:`LoadLatencyProfiler` performs the
analogous measurement on our own engine — re-running an application with
every read taking 1-4 cycles on a perfect memory — for the
measured-on-this-substrate variant (engine loads have no delay-slot
scheduling, so these factors are upper bounds; see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..sim.engine import PerfectMemory
from .config import PAPER_CLUSTER_SIZES, MachineConfig
from .executor import SweepExecutor
from .study import CacheKey, ClusteringStudy

__all__ = [
    "bank_conflict_probability", "banks_for_cluster", "conflict_table",
    "PAPER_TABLE5", "PAPER_TABLE6", "PAPER_TABLE7", "ExpansionTable",
    "LoadLatencyProfiler",
    "SharedCacheCostModel", "ClusteredCostResult",
]

#: banks per processor in the shared cache (paper §3.1: "four banks for
#: each processor in the cluster")
BANKS_PER_PROCESSOR = 4


def banks_for_cluster(n_processors: int,
                      banks_per_processor: int = BANKS_PER_PROCESSOR) -> int:
    """Interleave factor of an n-processor shared cache (4n banks)."""
    if n_processors <= 0:
        raise ValueError("n_processors must be positive")
    return banks_per_processor * n_processors


def bank_conflict_probability(n_processors: int, n_banks: int | None = None) -> float:
    """Paper §6: C = 1 − ((m−1)/m)^(n−1), the chance a reference collides.

    With one processor there is nobody to collide with, so C = 0 regardless
    of the bank count.
    """
    if n_processors <= 1:
        return 0.0
    m = banks_for_cluster(n_processors) if n_banks is None else n_banks
    if m <= 0:
        raise ValueError("n_banks must be positive")
    return 1.0 - ((m - 1) / m) ** (n_processors - 1)


def conflict_table(cluster_sizes: Iterable[int] = PAPER_CLUSTER_SIZES,
                   ) -> list[tuple[int, int, float]]:
    """Rows of the paper's Table 4: (processors, banks, P(collision))."""
    rows = []
    for n in cluster_sizes:
        m = banks_for_cluster(n) if n > 1 else 1
        rows.append((n, m, bank_conflict_probability(n, m)))
    return rows


#: The paper's Table 5 — Pixie-measured execution-time expansion factors
#: for load latencies of 1-4 cycles.
PAPER_TABLE5: dict[str, tuple[float, float, float, float]] = {
    "barnes": (1.0, 1.036, 1.078, 1.123),
    "lu": (1.0, 1.055, 1.114, 1.173),
    "ocean": (1.0, 1.061, 1.144, 1.243),
    "radix": (1.0, 1.051, 1.102, 1.162),
    "volrend": (1.0, 1.051, 1.106, 1.167),
    "mp3d": (1.0, 1.08, 1.14, 1.243),
}

#: The paper's Tables 6 (4 KB caches) and 7 (infinite caches) — relative
#: execution time at 1/2/4/8 processors per cluster, shared-cache costs
#: charged; the rows the measured tables are printed against.
PAPER_TABLE6: dict[str, tuple[float, float, float, float]] = {
    "barnes": (1.0, 0.99, 0.95, 0.88),
    "radix": (1.0, 1.01, 1.02, 0.96),
    "volrend": (1.0, 0.93, 0.86, 0.79),
    "mp3d": (1.0, 0.96, 0.93, 0.86),
}
PAPER_TABLE7: dict[str, tuple[float, float, float, float]] = {
    "ocean": (1.0, 0.99, 1.04, 0.99),
    "lu": (1.0, 1.03, 1.06, 1.05),
}


@dataclass(frozen=True)
class ExpansionTable:
    """Execution-time expansion factors for load latencies 1..4 cycles."""

    factors: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if len(self.factors) != 4:
            raise ValueError("need factors for latencies 1, 2, 3 and 4")
        if abs(self.factors[0] - 1.0) > 1e-9:
            raise ValueError("latency-1 factor must be 1.0 (the baseline)")
        if any(b < a - 1e-12 for a, b in zip(self.factors, self.factors[1:])):
            raise ValueError("expansion factors must be non-decreasing")

    def at(self, latency: float) -> float:
        """Factor at a (possibly fractional) load latency in [1, 4]."""
        if latency < 1.0:
            raise ValueError("load latency below 1 cycle is meaningless")
        if latency >= 4.0:
            # linear extrapolation from the last segment
            slope = self.factors[3] - self.factors[2]
            return self.factors[3] + slope * (latency - 4.0)
        lo = int(latency)
        frac = latency - lo
        a = self.factors[lo - 1]
        b = self.factors[min(lo, 3)]
        return a + (b - a) * frac

    @classmethod
    def paper(cls, app: str) -> "ExpansionTable":
        """The paper's Table 5 entry for ``app`` (KeyError if absent)."""
        return cls(PAPER_TABLE5[app])


@dataclass
class LoadLatencyProfiler:
    """Measure Table-5-style expansion factors on our own engine.

    Runs the application on a 1-processor-per-cluster machine against a
    :class:`~repro.sim.engine.PerfectMemory` whose reads take 1-4 cycles,
    and reports T(L)/T(1).  This plays Pixie's role for our substrate.
    """

    base_config: MachineConfig = field(default_factory=MachineConfig)
    app_kwargs: dict[str, Any] = field(default_factory=dict)

    def measure(self, app: str) -> ExpansionTable:
        from ..apps.registry import build_app

        config = self.base_config.with_clusters(1)
        built = build_app(app, config, **self.app_kwargs)
        # a stream-invariant app is captured once and replayed at every
        # latency; barnes drives its generators, which consume app state,
        # so each latency after the first runs on a fresh app
        program = built.compiled_program() if built.stream_invariant else None
        times = []
        for latency in (1, 2, 3, 4):
            if program is None and latency > 1:
                built = build_app(app, config, **self.app_kwargs)
            times.append(built.run(program, PerfectMemory(latency))
                         .execution_time)
        base = times[0]
        if base <= 0:
            raise RuntimeError(f"application {app!r} executed no cycles")
        return ExpansionTable(tuple(t / base for t in times))  # type: ignore[arg-type]


@dataclass(frozen=True)
class ClusteredCostResult:
    """One row of Table 6/7: relative execution time per cluster size."""

    app: str
    cache_kb: CacheKey
    relative_time: dict[int, float]  # cluster size -> relative exec time
    raw_time: dict[int, int]         # cluster size -> simulated cycles
    cost_factor: dict[int, float]    # cluster size -> §6 multiplier


class SharedCacheCostModel:
    """The full §6 pipeline: simulate, then charge shared-cache costs.

    Parameters
    ----------
    expansion:
        Per-application expansion tables; defaults to the paper's Table 5.
        Applications without a table fall back to ``default_expansion``.
    default_expansion:
        Used for the three applications the paper's Table 5 omits
        (fft, fmm, raytrace); defaults to the mean of the published rows.
    """

    def __init__(self,
                 expansion: Mapping[str, ExpansionTable] | None = None,
                 default_expansion: ExpansionTable | None = None) -> None:
        if expansion is None:
            expansion = {name: ExpansionTable(f)
                         for name, f in PAPER_TABLE5.items()}
        self.expansion = dict(expansion)
        if default_expansion is None:
            cols = list(zip(*(t.factors for t in self.expansion.values())))
            default_expansion = ExpansionTable(
                tuple(sum(c) / len(c) for c in cols))  # type: ignore[arg-type]
        self.default_expansion = default_expansion

    def table_for(self, app: str) -> ExpansionTable:
        return self.expansion.get(app, self.default_expansion)

    def cost_factor(self, app: str, cluster_size: int,
                    config: MachineConfig | None = None) -> float:
        """factor(n) = (1−C)·E(hit(n)) + C·E(hit(n)+1)."""
        latency_model = (config or MachineConfig()).latency
        hit = latency_model.hit_cycles(cluster_size)
        c = bank_conflict_probability(cluster_size)
        table = self.table_for(app)
        return (1.0 - c) * table.at(hit) + c * table.at(hit + 1)

    def evaluate(self, app: str, cache_kb: CacheKey,
                 base_config: MachineConfig | None = None,
                 cluster_sizes: Iterable[int] = PAPER_CLUSTER_SIZES,
                 app_kwargs: dict[str, Any] | None = None,
                 executor: "SweepExecutor | None" = None,
                 ) -> ClusteredCostResult:
        """Simulate a cluster sweep and apply the cost factors (Table 6/7).

        ``executor`` (optional) parallelizes/memoizes the underlying sweep.
        """
        base_config = base_config or MachineConfig()
        study = ClusteringStudy(app, base_config, dict(app_kwargs or {}),
                                executor=executor)
        sweep = study.cluster_sweep(cache_kb, cluster_sizes)
        raw = {c: p.result.execution_time for c, p in sweep.items()}
        factors = {c: self.cost_factor(app, c, base_config) for c in raw}
        base = raw[min(raw)] * factors[min(raw)]
        rel = {c: raw[c] * factors[c] / base for c in raw}
        return ClusteredCostResult(app, cache_kb, rel, raw, factors)
