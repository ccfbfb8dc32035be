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
  (results are byte-identical to the in-process run — the simulator is
  deterministic);
* ``--native`` forces the native C replay kernel (exit 2 when it cannot
  be built), ``--no-native`` forces the pure-python replay; with
  neither flag the kernel auto-selects (native when a compiler or cached
  artifact is available).  Results are byte-identical either way;
* finished points are memoized in a persistent on-disk cache
  (``~/.cache/repro-clustering`` or ``$REPRO_CACHE_DIR``); a repeated
  command is served from cache.  ``--no-cache`` bypasses it,
  ``--cache-dir`` relocates it.  Hit/miss counts are logged to stderr.

This package is only the parser and the shared plumbing; each command's
body lives in a submodule (``figures``, ``tables``, ``point``,
``scaling``, ``serve``) imported on dispatch, so a command loads only
what it runs — a cache-served figure never imports numpy or the
simulator.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from importlib import import_module
from typing import Any, Callable

from ..apps.registry import (APP_NAMES, PAPER_PROBLEM_SIZES,
                             QUICK_PROBLEM_SIZES)
from ..core.config import (PAPER_CACHE_SIZES_KB, PAPER_CLUSTER_SIZES,
                           PAPER_NETWORK_LOADS, PROTOCOLS, MachineConfig)
from ..core.executor import SweepExecutionError, SweepExecutor
from ..core.resultcache import ResultCache, TraceStore
from ..core.study import ClusteringStudy
from ..runtime.hooks import TimingObserver

__all__ = ["main"]

#: figure number -> application of the paper's finite-capacity figures
CAPACITY_FIGURES = {4: "raytrace", 5: "mp3d", 6: "barnes", 7: "fmm",
                    8: "volrend"}
_CAPACITY = tuple(f"fig{n}" for n in CAPACITY_FIGURES)


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
    degrade mid-sweep.  With neither flag the runtime auto-detects, and
    ``repro.native`` is not even imported here.
    """
    if not (args.native or args.no_native):
        return
    if args.native and args.no_native:
        print("repro-clustering: --native and --no-native are mutually "
              "exclusive", file=sys.stderr)
        raise SystemExit(2)
    import repro.native as native

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
    else:
        native.set_native(False)


def _executor(args: argparse.Namespace) -> SweepExecutor:
    """One executor per invocation, built from the global flags."""
    executor = getattr(args, "_executor", None)
    if executor is None:
        _select_native(args)
        # a --probe run bypasses the result cache: a hit would time nothing
        probe = getattr(args, "probe", None)
        cache = None if args.no_cache or probe else ResultCache(args.cache_dir)
        # compiled traces: always at least the in-process LRU, built at
        # the first result-cache miss; the disk tier (shared with --jobs
        # workers and later invocations) follows the result cache's
        # location and --no-cache switch
        store = None if args.no_cache else TraceStore(args.cache_dir)
        executor = SweepExecutor(
            jobs=args.jobs, timeout=args.timeout, cache=cache,
            trace_store=store,
            observer=TimingObserver() if probe else None)
        args._executor = executor
    return executor


def _study(app: str, args: argparse.Namespace) -> ClusteringStudy:
    return ClusteringStudy(app, _base_config(args), _app_kwargs(app, args),
                           executor=_executor(args))


def _app_name(value: str) -> str:
    """One application name, checked as an argparse ``type=``.

    A ``nargs="*"`` positional takes this rather than ``choices``:
    Python 3.11's argparse checks a list default against ``choices`` as
    one value, so ``scaling`` with no APP would be refused.
    """
    if value not in APP_NAMES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r} (choose from "
            f"{', '.join(map(repr, APP_NAMES))})")
    return value


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
    if not 0 < kb < math.inf:
        raise argparse.ArgumentTypeError(
            f"cache size must be a finite number > 0 KB (or 'inf'), "
            f"got {value}")
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
                   "(default 1 = in-process; results are identical either "
                   "way)")
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
                   "since a point running in-process cannot be abandoned; "
                   "a late point reports an error, the sweep continues")
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

    def add_command(name: str, module: str, func: str | None = None,
                    **kwargs: Any) -> argparse.ArgumentParser:
        """Subcommand ``name``, run by ``func`` (default ``cmd_<name>``)
        of the submodule ``module``, which ``_command`` imports."""
        sp = sub.add_parser(name, allow_abbrev=False, **kwargs)
        _add_global_options(sp, suppress=True)
        sp.set_defaults(handler=(module, func or f"cmd_{name}"))
        return sp

    sp = add_command("run", "point",
                     help="simulate one app on one configuration")
    sp.add_argument("app", choices=APP_NAMES)
    sp.add_argument("--clusters", type=_positive_int, default=1)
    sp.add_argument("--cache", type=_cache_arg, default=None,
                    help="per-processor cache KB or 'inf' (default inf)")
    sp.add_argument("--probe", choices=["timing"], default=None,
                    help="attach a pipeline probe: 'timing' prints "
                    "per-phase wall-clock and event counts (bypasses the "
                    "result cache)")

    sp = add_command("fig2", "figures", help="infinite-cache cluster sweeps")
    sp.add_argument("--apps", nargs="+", choices=APP_NAMES)

    add_command("fig3", "figures", help="Ocean small problem, infinite cache")

    for num, app in CAPACITY_FIGURES.items():
        add_command(f"fig{num}", "figures", "cmd_capacity_figure",
                    help=f"finite capacity effects for {app}")

    add_command("table1", "tables")
    add_command("table4", "tables")

    sp = add_command("table5", "tables",
                     help="load-latency expansion factors")
    sp.add_argument("--measure", action="store_true",
                    help="also measure factors on this engine (slow)")

    add_command("table6", "tables", help="4KB caches + shared-cache costs")
    add_command("table7", "tables",
                help="infinite caches + shared-cache costs")

    sp = add_command("workingset", "figures",
                     help="miss rate vs cache size")
    sp.add_argument("app", choices=APP_NAMES)
    sp.add_argument("--clusters", type=_positive_int, default=1)

    sp = add_command("ablation", "figures",
                     help="E-X1: clustering benefit at direct-mapped / "
                     "4-way / fully associative caches")
    sp.add_argument("study", choices=["associativity"])

    sp = add_command("network", "figures",
                     help="interconnect contention sensitivity "
                     "(mesh model vs Table 1)")
    sp.add_argument("app", nargs="?", default="ocean", choices=APP_NAMES)
    sp.add_argument("--cache", type=_cache_arg, default=None,
                    help="per-processor cache KB or 'inf' (default inf)")
    sp.add_argument("--loads", type=_load_list,
                    default=list(PAPER_NETWORK_LOADS), metavar="L,L,...",
                    help="background network loads in [0,1) to sweep "
                    "(default 0,0.3,0.6,0.8; 0 is always included)")

    sp = add_command("scaling", "scaling",
                     help="§4 pushout study: processor-count scaling, "
                     "clustered vs unclustered, with tier presets")
    sp.add_argument("apps", nargs="*", type=_app_name, metavar="APP",
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

    sp = add_command("merge", "figures",
                     help="load-vs-merge anatomy per cluster size")
    sp.add_argument("app", choices=APP_NAMES)
    sp.add_argument("--cache", type=_cache_arg, default=None,
                    help="per-processor cache KB or 'inf' (default inf)")

    sp = add_command("study", "figures",
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

    sp = add_command("compare", "point",
                     help="shared-cache vs snoopy shared-memory cluster")
    sp.add_argument("app", choices=APP_NAMES)
    sp.add_argument("--clusters", type=_positive_int, default=4)
    sp.add_argument("--cache", type=_cache_arg, default=4.0)

    sp = add_command("trace", "point", help="record a reference trace")
    sp.add_argument("app", choices=APP_NAMES)
    sp.add_argument("--clusters", type=_positive_int, default=1)
    sp.add_argument("--cache", type=_cache_arg, default=None,
                    help="per-processor cache KB or 'inf' (default inf)")
    sp.add_argument("--output", help="save the trace to this .npz file")

    sp = add_command("serve", "serve",
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
    return p


#: the commands that evaluate a grid through the executor's pool: only
#: they read --jobs and --timeout (run, compare and trace evaluate one
#: point in-process, and serve takes each request's own timeout)
_POOLED = ("fig2", "fig3", *_CAPACITY, "table6", "table7", "workingset",
           "ablation", "network", "merge", "study", "scaling")

#: the figures: their bars are percentages of the 1-per-cluster bar
_NORMALIZED = ("fig2", "fig3", *_CAPACITY, "network", "study")

#: flag -> (its default, the commands that read it); a non-default value
#: on any other command would change nothing
_FLAG_READERS: dict[str, tuple[Any, tuple[str, ...]]] = {
    "--ascii": (False, _NORMALIZED),
    "--cache-sizes": (list(PAPER_CACHE_SIZES_KB), (*_CAPACITY, "workingset")),
    "--cluster-sizes": (list(PAPER_CLUSTER_SIZES), (
        "fig2", "fig3", *_CAPACITY, "table6", "table7", "workingset",
        "ablation", "network", "merge", "study")),
    "--jobs": (1, (*_POOLED, "serve")),
    "--timeout": (None, _POOLED),
}


def _ignored_flag(args: argparse.Namespace) -> str | None:
    """Why this flag combination would silently change nothing,
    contradict itself or ask for a grid no machine can run, if it
    would."""
    if args.quick and args.paper_scale:
        return "--quick and --paper-scale are mutually exclusive"
    if args.command == "scaling" and (args.quick or args.paper_scale):
        return ("scaling sizes its problems with --tier, not "
                "--quick/--paper-scale")
    if args.command == "compare" and args.protocol == "snoopy":
        return ("compare runs the snoopy cluster against --protocol's "
                "shared-cache cluster; --protocol snoopy would compare "
                "snoopy with itself")
    for flag, (default, readers) in _FLAG_READERS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if args.command not in readers and value != default:
            return (f"{flag} changes nothing for {args.command}; only "
                    f"{', '.join(readers)} read it")
    if args.timeout is not None and args.jobs == 1:
        return ("--timeout needs --jobs N (N > 1): a point running "
                "in-process cannot be abandoned")
    sizes = {"--cluster-sizes": args.cluster_sizes
             if args.command in _FLAG_READERS["--cluster-sizes"][1] else []}
    if args.command != "scaling":  # which checks --clusters against --counts
        sizes["--clusters"] = [getattr(args, "clusters", 1)]
    for flag, values in sizes.items():
        for c in values:
            if args.processors % c:
                return (f"{flag} {c} does not divide --processors "
                        f"{args.processors}")
    if args.command in _NORMALIZED and 1 not in args.cluster_sizes:
        return (f"{args.command} draws every bar as a percentage of the "
                f"1-per-cluster bar; --cluster-sizes must include 1")
    return None


def _command(args: argparse.Namespace) -> Callable[[argparse.Namespace], int]:
    """The function running ``args.command``, its module imported now."""
    module, func = args.handler
    return getattr(import_module(f"{__name__}.{module}"), func)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    problem = _ignored_flag(args)
    if problem:
        print(f"repro-clustering: {problem}", file=sys.stderr)
        return 2
    clean = False
    try:
        rc = _command(args)(args)
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
