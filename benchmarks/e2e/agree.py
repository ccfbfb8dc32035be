"""``run.py --agree A.json B.json``: do two result sets tell the same story?

Two sets of runs of one commit must agree within the benchmark's own
bounds, otherwise a later comparison of two commits means nothing.  For
every workload × end-to-end metric the medians over each set's runs are
compared against the bound in ``BENCHMARK.json`` (in both directions:
neither set may be worse than the other by more than the bound), and each
set's own spread — interquartile range over median — is shown beside it.
The exact counts — simulated totals and the daemon's counters — must be
identical in every run of both sets, and no run may hold a failure.
One row per workload × metric; exit 1 on any disagreement.
"""

from __future__ import annotations

import json
from statistics import median, quantiles

#: per-layer metrics that are counts of deterministic work, not timings
EXACT = ("sim.ops_total", "sim.cycles_total", "sim.references_total",
         "service.executed", "service.cache_hits", "service.coalesced",
         "service.errors")


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse the worse of ``a``, ``b`` is, as a share of the better."""
    low, high = sorted((a, b))
    if low <= 0:
        return 0.0 if high == low else float("inf")
    return high / low - 1.0 if better == "lower" else 1.0 - low / high


def _spread(values: list[float]) -> str:
    if len(values) < 4:
        return "     -"
    q1, _, q3 = quantiles(values, n=4)
    return f"{(q3 - q1) / median(values) * 100:5.1f}%"


def agree(spec: dict, path_a: str, path_b: str) -> int:
    sets = []
    for path in (path_a, path_b):
        with open(path) as handle:
            sets.append(json.load(handle)["workloads"])
    disagreements = 0

    def row(workload, metric, a, b, verdict, ok=True):
        nonlocal disagreements
        disagreements += not ok
        print(f"{workload:17s} {metric:21s} {a:>22} {b:>22}  {verdict}"
              + ("" if ok else "  DISAGREE"))

    row("workload", "metric", "A: median (spread)", "B: median (spread)",
        "gap of bound")
    for workload in (w["name"] for w in spec["workloads"]):
        (e2e_a, layers_a), (e2e_b, layers_b) = (
            (s.get(workload, {}).get("end_to_end", []),
             s.get(workload, {}).get("per_layer", [])) for s in sets)
        failed = sum(not line["correct"] or line["failed"]
                     for line in e2e_a + layers_a + e2e_b + layers_b)
        if failed or not (e2e_a and e2e_b):
            row(workload, "runs", len(e2e_a), len(e2e_b),
                f"{failed} failed or none", ok=False)
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = ([line["metrics"][name]["value"] for line in lines]
                      for lines in (e2e_a, e2e_b))
            gap = _worse_by(median(va), median(vb), metric["better"])
            row(workload, name, f"{median(va):.6g} ({_spread(va)})",
                f"{median(vb):.6g} ({_spread(vb)})",
                f"{gap * 100:5.1f}% of {metric['bound'] * 100:.0f}%",
                gap <= metric["bound"])
        for name in EXACT if layers_a and layers_b else ():
            seen = {line["metrics"][name]["value"]
                    for line in layers_a + layers_b}
            row(workload, name, "", "", f"{sorted(seen)}", len(seen) == 1)
    print(f"{disagreements} disagreement(s)")
    return 1 if disagreements else 0
