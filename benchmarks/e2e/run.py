#!/usr/bin/env python3
"""The repository benchmark: one command, every metric, outputs checked.

One workload, as the benchmark driver calls it (run from the repo root)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line of
stdout, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer ledger of a
separate traced run with ``--trace 1``.  Exit code 0 means every output
matched its pin.

Without ``--workload`` every workload of ``BENCHMARK.json`` runs
``--runs`` times, each run in a fresh child process (``--traced`` adds a
traced run to each), and ``--out FILE`` keeps the result set;
``--agree A.json B.json`` compares the medians of two result sets against
the bounds of ``BENCHMARK.json``.  See
``README.md`` for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from harness import (HERE, OUT, ROOT, compile_sources, environment_record,
                     isolate, percentile, remove_dir, slowdown, speed_probe)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: a measured run holds at least this many passes, however long one takes
MIN_PASSES = 3


# ------------------------------------------------------------ one workload

def make_workload(name: str, workdir: Path, seed: int, smoke: bool):
    # imported here: `repro` is importable only after isolate()
    import servemix
    import workloads

    if name == "serve_mix":
        return servemix.ServeMix(workdir, seed, smoke)
    return getattr(workloads, name)(workdir, seed, smoke)


def run_passes(workload, budget_s: float, at_least: int,
               traced: bool) -> list:
    """``at_least`` passes, then on until the one ending nearest the budget."""
    from tracing import Tracer

    passes = []
    start = perf_counter()
    probe = speed_probe()
    while workload.has_pass_left():
        done = workload.run_pass(Tracer() if traced else None)
        before, probe = probe, speed_probe()
        done.slowdown = slowdown(before, probe)
        passes.append(done)
        typical = median([p.wall_s for p in passes])
        if len(passes) >= at_least and \
                perf_counter() - start + typical / 2 >= budget_s:
            break
    return passes


def steady(passes: list, statistic) -> float:
    """A per-pass timing, speed-corrected; lower quartile over the passes.

    Each pass's timing is divided by the machine's slowdown around that
    pass (see ``harness.speed_probe``), which takes out the sandbox's
    long slow spells; the lower quartile over the run's passes takes out
    the short ones.  What is left is what repeats run to run.
    """
    return percentile([statistic(p) / p.slowdown for p in passes], 0.25)


def write_trace(workload, seed: int, passes: list) -> None:
    path = OUT / f"trace_{workload.name}.json"
    path.write_text(json.dumps({
        "workload": workload.name, "seed": seed,
        "passes": [{"wall_s": p.wall_s, "slowdown": p.slowdown,
                    "counts": dict(p.tracer.counts),
                    "spans": p.tracer.to_records()} for p in passes]}))


def measure(workload, seed: int, seconds: float, traced: bool,
            smoke: bool) -> dict:
    setup_s = []
    for _ in range(1 if traced or smoke else workload.setup_reps):
        probe, start = speed_probe(), perf_counter()
        workload.setup()
        elapsed = perf_counter() - start
        setup_s.append(elapsed / slowdown(probe, speed_probe()))
    if smoke:
        seconds, at_least = 0.0, 1
    else:
        at_least = 1 if traced else MIN_PASSES
    plain = run_passes(workload, seconds / 2 if traced else seconds,
                       at_least, traced=False)
    spans = run_passes(workload, seconds / 2, 1, True) if traced else []
    extra_attempted, extra_failed = workload.finish()
    wall = steady(plain, lambda p: p.wall_s)
    if traced:
        # one pass's ledger, whole and uncorrected, so that its layers add
        # up to its wall-clock
        traced_wall = steady(spans, lambda p: p.wall_s)
        typical = min(spans, key=lambda p: abs(p.wall_s / p.slowdown
                                               - traced_wall))
        metrics = workload.layer_metrics(
            typical, median([p.wall_s for p in plain]))
        metrics["trace.overhead_ratio"] = traced_wall / wall
        metrics["latency_p50_ms"] = steady(
            plain, lambda p: median(p.latencies_ms))
        write_trace(workload, seed, spans)
    else:
        metrics = {
            "setup_s": median(setup_s),
            "pass_wall_s": wall,
            "points_per_s": workload.points_per_pass / wall,
            "latency_p95_ms": steady(
                plain, lambda p: percentile(p.latencies_ms, 0.95)),
            "peak_rss_mb": workload.peak_rss_mb(),
        }
    return {
        "attempted": sum(p.attempted for p in plain + spans)
        + extra_attempted,
        "failed": sum(p.failed for p in plain + spans) + extra_failed,
        "metrics": metrics,
        "passes": len(plain), "traced_passes": len(spans),
        "raw_wall_s": median([p.wall_s for p in plain]),
        "slowdown": median([p.slowdown for p in plain]),
    }


def report(name: str, traced: bool, measured: dict, env: dict) -> dict:
    """Print the metrics ``BENCHMARK.json`` names; build the result line."""
    section = SPEC["per_layer" if traced else "end_to_end"]
    values = measured["metrics"]
    unknown = set(values) - {m["name"] for m in section}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    print(f"# {name}: {measured['passes']} passes"
          + (f" + {measured['traced_passes']} traced" if traced else "")
          + f", uncorrected median pass {measured['raw_wall_s']:.4g} s at "
          f"{measured['slowdown']:.2f}x nominal machine time")
    metrics = {}
    for spec in section:
        # a layer the workload never enters has done no work: 0
        value = values[spec["name"]] if not traced else \
            values.get(spec["name"], 0.0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:32s} {value:14.6g} {spec['unit']}")
    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    return {"correct": measured["failed"] == 0,
            "attempted": measured["attempted"],
            "failed": measured["failed"], "metrics": metrics}


def run_one(args) -> int:
    workdir = isolate()
    try:
        compile_sources()
        workload = make_workload(args.workload, workdir, args.seed,
                                 args.smoke)
        try:
            measured = measure(workload, args.seed, args.seconds,
                               bool(args.trace), args.smoke)
            env = environment_record()
        finally:
            workload.teardown()
    finally:
        remove_dir(workdir)
    line = report(args.workload, bool(args.trace), measured, env)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# ---------------------------------------------------------- every workload

def run_all(args) -> int:
    """Every workload, ``--runs`` times each, one fresh child per run."""
    results: dict = {"seed": args.seed, "seconds": args.seconds,
                     "smoke": args.smoke, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = results["workloads"][name] = {"end_to_end": [],
                                              "per_layer": []}
        for run in range(args.runs):
            for trace in (0, 1) if args.trace else (0,):
                argv = [sys.executable, str(HERE / "run.py"),
                        "--workload", name, "--seed", str(args.seed + run),
                        "--seconds", str(args.seconds), "--trace",
                        str(trace)] + ["--smoke"] * args.smoke
                proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
                sys.stdout.write(proc.stdout)
                sys.stdout.flush()
                if proc.returncode:
                    print(f"# {name} --trace {trace}: exit {proc.returncode}")
                    status = 1
                lines = proc.stdout.splitlines()
                if lines and lines[-1].startswith("{"):
                    entry["per_layer" if trace else "end_to_end"].append(
                        json.loads(lines[-1]))
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="one short pass per workload, lu at n=128")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds SEED..SEED+RUNS-1 "
                        "(all workloads)")
    parser.add_argument("--out", help="write the result set (all workloads)")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result sets against the bounds")
    args = parser.parse_args(argv)
    if args.agree:
        from agree import agree

        return agree(SPEC, *args.agree)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
