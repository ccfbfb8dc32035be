"""Core of the clustering study: machine configuration, metrics, sweeps,
parallel execution with result caching, contention cost model, and
working-set profiling."""

from .config import (PAPER_CACHE_SIZES_KB, PAPER_CLUSTER_SIZES, LatencyModel,
                     MachineConfig)
from .metrics import (MissCause, MissCounters, MissKind, RunResult,
                      TimeBreakdown)

__all__ = [
    "MachineConfig", "LatencyModel",
    "PAPER_CLUSTER_SIZES", "PAPER_CACHE_SIZES_KB",
    "MissKind", "MissCause", "MissCounters", "TimeBreakdown", "RunResult",
    "ClusteringStudy", "SweepPoint", "normalize_sweep", "cache_label",
    "SweepExecutor", "PointOutcome", "SweepExecutionError",
    "ResultCache", "TraceStore",
    "SharedCacheCostModel", "LoadLatencyProfiler", "ExpansionTable",
    "bank_conflict_probability", "banks_for_cluster", "conflict_table",
    "PAPER_TABLE5",
    "working_set_curve", "knee_of", "overlap_benefit", "WorkingSetCurve",
    "ScalingCurve", "ScalingPoint", "scaling_curve", "effective_processors",
    "pushout",
]

from .contention import (PAPER_TABLE5, ExpansionTable, LoadLatencyProfiler,
                         SharedCacheCostModel, bank_conflict_probability,
                         banks_for_cluster, conflict_table)
from .executor import PointOutcome, SweepExecutionError, SweepExecutor
from .resultcache import ResultCache, TraceStore
from .scaling import (ScalingCurve, ScalingPoint, effective_processors,
                      pushout, scaling_curve)
from .study import ClusteringStudy, SweepPoint, cache_label, normalize_sweep
from .workingset import (WorkingSetCurve, knee_of, overlap_benefit,
                         working_set_curve)
