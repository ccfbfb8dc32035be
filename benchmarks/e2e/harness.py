"""Shared plumbing of the end-to-end benchmark.

Isolation (scrubbed ``REPRO_*`` environment, throw-away directories that
live inside the checkout), child processes whose wall-clock and peak RSS
are read with ``wait4``, the forced native-kernel build, and the small
statistics the metrics are made of.  Everything that touches the program
under test goes through the public surface listed in ``README.md``.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

#: children that outlive this are killed and counted as failed
CHILD_TIMEOUT_S = 120.0


class BenchmarkAbort(SystemExit):
    """The run cannot measure what it claims to; exit non-zero, no result."""

    def __init__(self, message: str) -> None:
        print(f"benchmarks/e2e: {message}", file=sys.stderr)
        super().__init__(2)


def isolate() -> Path:
    """Scrub the environment and create this run's work directory.

    Every ``REPRO_*`` variable is dropped so nothing the caller exported
    (cache dirs, kernel selection, LRU budgets) reaches the program; the
    work directory sits under ``out/`` so the run reads and writes only
    inside its checkout, and ``TMPDIR`` points there for the C compiler.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkAbort(f"no package to measure at {SRC}")
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = None
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (f"{SRC}{os.pathsep}{inherited}"
                                if inherited else str(SRC))
    # never ~/.cache: anything that falls back to the default location
    # lands in the work directory instead
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    os.environ["REPRO_NATIVE_CACHE"] = str(workdir / "default-native")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise BenchmarkAbort(
            f"'repro' resolved to {repro.__file__}, not to {SRC}")
    return workdir


def compile_sources() -> None:
    """Byte-compile ``src`` once per checkout (the benchmark's build step).

    A fresh checkout has no ``__pycache__``; without this the first CLI
    child of the first run would pay the compile and read slower than
    every later one.
    """
    import compileall

    compileall.compile_dir(str(SRC), quiet=2)


def build_native(cache_dir: Path) -> float:
    """Compile and load the C kernel into ``cache_dir``; seconds taken.

    The selection is *forced* (``REPRO_NATIVE=1``, inherited by every
    child), so a missing compiler aborts the run instead of letting it
    silently measure the python fallback.
    """
    import repro.native as native

    os.environ["REPRO_NATIVE_CACHE"] = str(cache_dir)
    native.set_native(True)
    t0 = time.perf_counter()
    try:
        native.kernel()
    except RuntimeError as exc:
        raise BenchmarkAbort(
            f"the C replay kernel cannot be built, refusing to measure "
            f"the python fallback: {exc}") from exc
    return time.perf_counter() - t0


def environment_record() -> dict:
    """What the numbers were measured on (printed with every result)."""
    import numpy

    import repro.native as native

    status = native.status()
    compiler = "none"
    if status["compiler"]:
        proc = subprocess.run([status["compiler"], "--version"],
                              capture_output=True, text=True)
        compiler = (proc.stdout.splitlines() or ["unknown"])[0]
    return {"native": status, "python": platform.python_version(),
            "numpy": numpy.__version__, "compiler": compiler,
            "nproc": os.cpu_count()}


# ---------------------------------------------------------------- children

@dataclass
class Child:
    """A finished child process."""

    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def reap(proc: subprocess.Popen, timeout_s: float) -> tuple[int, float]:
    """Wait for ``proc`` (killing it at the deadline); (exit code, RSS MB).

    ``wait4`` is the only call that returns *this* child's ``ru_maxrss``;
    ``RUSAGE_CHILDREN`` would report the largest child ever reaped.
    """
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except ChildProcessError:  # already reaped through the Popen object
        return proc.wait(), 0.0
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_child(argv: list[str], scratch: Path,
              env: dict[str, str] | None = None) -> Child:
    """Run ``python <argv>`` to completion, timed from spawn to reaped."""
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL,
                                env={**os.environ, **(env or {})})
        returncode, rss = reap(proc, CHILD_TIMEOUT_S)
        wall = time.perf_counter() - t0
    return Child(returncode, wall, rss,
                 out_path.read_text(encoding="utf-8", errors="replace"),
                 err_path.read_text(encoding="utf-8", errors="replace"))


def self_maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_dir(parent: Path, prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix, dir=parent))


def remove_dir(path: Path | None) -> None:
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)


# ------------------------------------------------------------ machine speed

#: what `speed_probe` reads on the 2-core sandbox when nothing disturbs it;
#: timings are reported as if the machine ran at this speed throughout
NOMINAL_PROBE_S = 0.0025


def _probe_kernel() -> float:
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(20000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.perf_counter() - start


def speed_probe() -> float:
    """Seconds a fixed pure-python loop takes right now, on the fastest CPU.

    The sandbox is a VM whose speed moves by up to 1.5x with the host's
    other tenants: per CPU for a second or two at a time, and on all CPUs
    for minutes at a time.  Taking the fastest CPU's reading ignores the
    short spells (the lower quartile over passes deals with those) and
    keeps the long ones, which nothing inside a ten-second run averages out.
    """
    cpus = os.sched_getaffinity(0)
    samples = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            samples += [_probe_kernel(), _probe_kernel()]
    finally:
        os.sched_setaffinity(0, cpus)
    return min(samples)


def slowdown(probe_before: float, probe_after: float) -> float:
    """Machine time around an interval, as a multiple of nominal time."""
    return min(probe_before, probe_after) / NOMINAL_PROBE_S


# -------------------------------------------------------------- statistics

def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (the largest sample when few are held)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
