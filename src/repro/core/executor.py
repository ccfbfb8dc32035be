"""Sweep execution engine: in-process or over a worker pool, with caching.

Every figure and table of the paper is a grid of *fully independent*
simulations, so the sweep harness — not the simulator — decides wall-clock
time.  :class:`SweepExecutor` evaluates an iterable of
:class:`~repro.runtime.plan.RunRequest`\\ s (app, cluster size, cache
size, app kwargs); its one execution setting is ``jobs``, how many
points run at once:

* ``jobs=1`` — in-process, point after point (the default; identical to
  the historical behaviour of :class:`~repro.core.study.ClusteringStudy`);
* ``jobs=N`` (N > 1) — fan-out over a pool of N worker processes with a
  per-point ``timeout``.  Workers map compiled traces from the shared
  on-disk :class:`~repro.core.resultcache.TraceStore` themselves; every
  process mapping a blob shares its page-cache pages.

Guarantees:

* **Determinism** — the simulator is seeded and side-effect free, so every
  ``jobs`` produces byte-identical :class:`RunResult`\\ s for the same spec
  (covered by ``tests/test_determinism.py``).
* **Failure isolation** — one diverging or crashing point yields a
  :class:`PointOutcome` carrying the error; the other points of the sweep
  still complete.  Callers that want the historical fail-fast behaviour
  raise :class:`SweepExecutionError` via :func:`raise_failures`.
* **Transparent memoization** — with a
  :class:`~repro.core.resultcache.ResultCache` attached, finished points
  are served from disk and fresh points are written back **as each one
  completes** (an interrupted sweep keeps every point that finished),
  keyed by content hash of (version, app, kwargs, full machine config).
* **Trace reuse** — points are evaluated through the compiled-trace layer
  (:mod:`repro.sim.compiled`): the app's reference stream is
  captured once per (app, kwargs, seed, processor-count/line-size) and
  replayed at every other point of the grid — cluster size, cache size,
  and network model do not invalidate it.  Replay is bit-identical to
  generator execution.  The in-memory tier is process-wide; attach a
  :class:`~repro.core.resultcache.TraceStore`-backed cache to share traces
  across ``jobs`` worker processes and CLI invocations via disk.
"""

from __future__ import annotations

import time
import traceback
# BrokenExecutor, not concurrent.futures.process's BrokenProcessPool: that
# module (~12 ms) is imported only when a process pool is opened
from concurrent.futures import (BrokenExecutor, Executor, Future,
                                ThreadPoolExecutor)
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass, field
from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Iterator,
                    Sequence)

from ..runtime.hooks import RunObserver
from ..runtime.plan import RunRequest
from ..runtime.session import RunSession
from .config import MachineConfig
from .metrics import RunResult
from .resultcache import ResultCache, TraceStore, point_key

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.compiled import TraceCache

__all__ = ["PointOutcome", "SweepExecutor", "SweepExecutionError",
           "raise_failures"]

#: what ``run``/``submit_one`` raise for anything that is not
#: a :class:`RunRequest` (loose tuples were never validated eagerly)
_NOT_A_REQUEST = ("cannot interpret {!r} as a sweep point; expected a "
                  "RunRequest (build one with RunRequest.make(...))")


@dataclass
class PointOutcome:
    """What happened to one dispatched point.

    Exactly one of ``result`` / ``error`` is set; ``error`` is the full
    traceback (a pool worker's own traceback included) or
    ``timed out after …``, and its last line is the summary callers
    show.  ``cached`` marks results served from the persistent cache;
    ``elapsed`` is the evaluation wall-clock in seconds (0.0 for cache
    hits).
    """

    spec: RunRequest
    result: RunResult | None = None
    error: str | None = None
    cached: bool = False
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


class SweepExecutionError(RuntimeError):
    """One or more sweep points failed; carries every failed outcome."""

    def __init__(self, failures: Sequence[PointOutcome]) -> None:
        self.failures = list(failures)
        lines = [f"{len(self.failures)} sweep point(s) failed:"]
        for f in self.failures:
            first = (f.error or "").strip().splitlines()
            lines.append(f"  - {f.spec.describe()}: "
                         f"{first[-1] if first else 'unknown error'}")
        super().__init__("\n".join(lines))


def _evaluate_timed(spec: RunRequest, base_config: MachineConfig,
                    trace_cache: "TraceCache | None" = None,
                    observer: RunObserver | None = None
                    ) -> tuple[RunResult, float]:
    """One point through :class:`RunSession`, timed.

    Module-level so the process pool can pickle it by import path.
    """
    t0 = time.perf_counter()
    result = RunSession(base_config, trace_cache,
                        observer=observer).run(spec)
    return result, time.perf_counter() - t0


def raise_failures(outcomes: Iterable[PointOutcome]) -> None:
    """Raise :class:`SweepExecutionError` if any outcome failed."""
    failures = [o for o in outcomes if not o.ok]
    if failures:
        raise SweepExecutionError(failures)


@dataclass
class SweepExecutor:
    """Evaluates sweep points, ``jobs`` at a time, through a result cache.

    Parameters
    ----------
    jobs:
        How many points run at once.  ``1`` (default) evaluates
        :meth:`run`'s points inline in the caller, so Ctrl-C stops a
        running point, and :meth:`submit_one`'s on one background
        thread.  ``N > 1`` opens one pool of ``N`` worker processes
        that both use.
    timeout:
        Per-point wall-clock limit in seconds, enforced when ``jobs >
        1`` (a late point becomes an error outcome, the rest of the
        sweep survives; its worker finishes the stale computation in the
        background).  An in-process point cannot be preempted, so
        ``jobs=1`` ignores it.
    cache:
        Optional :class:`ResultCache`.  ``None`` disables both reads and
        writes (the CLI's ``--no-cache``).
    trace_store:
        Disk tier of the compiled-trace cache: ``None`` keeps traces in
        the process-wide LRU only; a :class:`TraceStore` shares them
        across processes and invocations.  The
        :class:`~repro.sim.compiled.TraceCache` over it is built when
        the first point is evaluated (:meth:`traces`) and read back as
        :attr:`trace_cache` (``None`` until then), so a sweep the result
        cache serves whole never imports the trace layer.
    observer:
        Optional :class:`~repro.runtime.hooks.RunObserver` attached to
        every in-process evaluation (``jobs=1``, :meth:`submit_one`'s
        thread included).  Worker *processes* never see it — hook state
        could not come back across the pickle boundary — so ``jobs > 1``
        ignores it.  Observed runs are bit-identical to detached ones
        (the runtime parity suite pins this), so attaching a counter or
        timer never perturbs results.

    The replay kernel is not an executor setting: select it process-wide
    with :func:`repro.native.set_native` (the CLI's
    ``--native/--no-native``), which pool workers inherit through the
    ``REPRO_NATIVE`` environment variable.
    """

    jobs: int = 1
    timeout: float | None = None
    cache: ResultCache | None = field(default=None, repr=False)
    trace_store: TraceStore | None = field(default=None, repr=False)
    observer: RunObserver | None = field(default=None, repr=False)
    trace_cache: "TraceCache | None" = field(default=None, init=False,
                                             repr=False, compare=False)
    # the one pool (_open_pool): jobs worker processes, or at jobs=1 the
    # thread submit_one's points run on.  It outlives individual run()
    # calls: a worker's start (interpreter, then the simulator and numpy
    # on its first point) would otherwise be paid again by every
    # figure's sweep in a multi-figure command
    _pool: Executor | None = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive or None")

    def traces(self) -> "TraceCache":
        """The compiled-trace cache points run with, built on first use."""
        if self.trace_cache is None:
            # deferred: an import cycle, and a result-cache hit needs none
            from ..sim.compiled import TraceCache

            self.trace_cache = TraceCache(self.trace_store)
        return self.trace_cache

    # ------------------------------------------------------------------ API
    def key(self, spec: RunRequest, base: MachineConfig) -> "str | RunRequest":
        """``spec``'s point key: its result-cache key, or ``spec`` itself
        when no machine can hold it (evaluating it records the error)."""
        try:
            return point_key(spec.app, spec.kwargs, spec.config_for(base))
        except ValueError:
            return spec

    def cached(self, key: "str | RunRequest") -> RunResult | None:
        """The one result-cache read: ``key``'s stored result, or ``None``
        (no cache, a miss, or a point no machine can hold)."""
        if self.cache is None or not isinstance(key, str):
            return None
        return self.cache.get(key)

    def cached_text(self, key: "str | RunRequest") -> str | None:
        """:meth:`cached` as the stored result's canonical text
        (:meth:`RunResult.to_json`), served undecoded by a hot-tier hit."""
        if self.cache is None or not isinstance(key, str):
            return None
        return self.cache.get_text(key)

    def store_text(self, key: str, result: RunResult) -> str:
        """The one result-cache write (a no-op without a cache), returning
        ``result``'s canonical text: encoded once, for the cache and for
        the caller's wire."""
        text = result.to_json()
        if self.cache is not None:
            self.cache.put_text(key, text)
        return text

    def run(self, specs: Iterable[RunRequest],
            base_config: MachineConfig | None = None) -> list[PointOutcome]:
        """Evaluate every spec; outcomes come back in input order.

        Cache hits are resolved up front; only misses are evaluated, and each fresh result is written back as soon as its
        point completes.  Pending specs with one point :meth:`key` are
        evaluated once — the first occurrence runs, the duplicates share
        its :class:`RunResult` object (``elapsed`` 0.0).  A point that
        raises (or times out when ``jobs > 1``) produces an
        error outcome instead of aborting the sweep, and so does a point
        whose machine the base config cannot hold, result cache or not.
        One point is ``run([spec], base)[0]``.

        validate → key → cache-get → dedupe → evaluate → put: evaluation
        yields ``(index, outcome)`` as each point finishes, and the
        result cache is written inside that loop, so whatever finished
        before an interrupt stays cached.
        """
        specs = list(specs)
        base = base_config or MachineConfig()
        for spec in specs:
            if not isinstance(spec, RunRequest):
                raise TypeError(_NOT_A_REQUEST.format(spec))
        keys = [self.key(spec, base) for spec in specs]
        outcomes: list[PointOutcome | None] = [None] * len(specs)
        # dedupe before submission: specs with one key (same app, kwargs
        # and machine, however spelled) are one evaluation, result cache
        # on or off; only unique points are evaluated
        primary_of: dict[str | RunRequest, int] = {}
        duplicate_of: dict[int, int] = {}
        unique: list[int] = []
        for i, key in enumerate(keys):
            hit = self.cached(key)
            if hit is not None:
                outcomes[i] = PointOutcome(specs[i], result=hit, cached=True)
                continue
            j = primary_of.setdefault(key, i)
            if j == i:
                unique.append(i)
            else:
                duplicate_of[i] = j

        evaluate = self._each_pooled if self.jobs > 1 else self._each_serial
        for i, outcome in evaluate(specs, unique, base):
            outcomes[i] = outcome
            if outcome.result is not None:  # so its key is a str
                self.store_text(keys[i], outcome.result)

        for i, j in duplicate_of.items():
            src = outcomes[j]
            outcomes[i] = PointOutcome(specs[i], result=src.result,
                                       error=src.error)
        return outcomes

    # ------------------------------------------------------------ evaluation
    def _each_serial(self, specs: list[RunRequest], indices: list[int],
                     base: MachineConfig
                     ) -> Iterator[tuple[int, PointOutcome]]:
        for i in indices:
            yield i, self._outcome(specs[i], partial(
                _evaluate_timed, specs[i], base, self.traces(),
                self.observer))

    def _each_pooled(self, specs: list[RunRequest], indices: list[int],
                     base: MachineConfig
                     ) -> Iterator[tuple[int, PointOutcome]]:
        if not indices:  # the result cache served every point: no pool
            return
        pool = self._open_pool()
        # the TraceCache pickles cheaply (the LRU is module state, the
        # store carries only a path); each worker re-hydrates its own
        # in-memory tier and shares compilations with siblings via disk
        traces = self.traces()
        futures = {i: pool.submit(_evaluate_timed, specs[i], base, traces)
                   for i in indices}
        for i, future in futures.items():
            outcome = self._outcome(specs[i],
                                    partial(future.result, self.timeout))
            future.cancel()  # drops a late point's queued work; else no-op
            yield i, outcome

    def _outcome(self, spec: RunRequest,
                 evaluate: Callable[[], tuple[RunResult, float]]
                 ) -> PointOutcome:
        """The one rule turning an evaluation into ``spec``'s outcome.

        ``evaluate`` returns ``(result, elapsed)`` or raises: a futures
        timeout under a ``timeout`` is ``timed out after …``; any other
        exception is its full traceback, a pool worker's own arriving as
        the exception's ``__cause__``.  A :class:`BrokenExecutor` (a
        dead worker) also closes the pool, so the next call reopens it.
        """
        try:
            result, elapsed = evaluate()
        except Exception as exc:
            if isinstance(exc, BrokenExecutor):
                self.close()
            if isinstance(exc, _FuturesTimeout) and self.timeout is not None:
                error = f"timed out after {self.timeout:g}s"
            else:
                error = "".join(traceback.format_exception(exc))
            return PointOutcome(spec, error=error)
        return PointOutcome(spec, result=result, elapsed=elapsed)

    def submit_one(self, spec: RunRequest,
                   base_config: MachineConfig | None = None
                   ) -> "Future[PointOutcome]":
        """Dispatch one point; returns a future resolving to its outcome.

        The async-friendly single-point API (the sweep-service daemon's
        execution path): the returned :class:`concurrent.futures.Future`
        always resolves to a :class:`PointOutcome` — evaluation failures
        become error outcomes, never exceptions on the future.  It runs
        on the executor's one pool: ``jobs`` worker processes, or at
        ``jobs=1`` one thread (same process, so an attached
        :attr:`observer` hears the run).

        Unlike :meth:`run`, neither the result cache nor the per-point
        ``timeout`` is applied: the caller reads (:meth:`cached_text`)
        and writes (:meth:`store_text`) the cache, coalesces, and keeps
        deadlines
        (the daemon does all of it on top of this primitive, writing on
        its event-loop thread in the step that ends the flight).
        """
        base = base_config or MachineConfig()
        if not isinstance(spec, RunRequest):
            raise TypeError(_NOT_A_REQUEST.format(spec))
        out: "Future[PointOutcome]" = Future()
        try:
            inner = self._open_pool().submit(
                _evaluate_timed, spec, base, self.traces(),
                self.observer if self.jobs == 1 else None)
        except Exception as exc:  # e.g. submitting to an already-broken pool
            inner = Future()
            inner.set_exception(exc)

        def _done(f: Future) -> None:
            outcome = self._outcome(spec, f.result)
            if not out.cancelled():
                try:
                    out.set_result(outcome)
                except Exception:  # pragma: no cover — racing cancellation
                    pass

        inner.add_done_callback(_done)
        return out

    def worker_processes(self) -> list:
        """The pool's live worker processes (empty at ``jobs=1``)."""
        pool = self._pool
        if pool is None:
            return []
        return list(getattr(pool, "_processes", {}).values())

    def close(self, wait: bool = False) -> None:
        """Shut down the pool (idempotent; a later call reopens it).

        Queued work is always dropped.  ``wait=True`` also joins the
        workers — what a process about to exit wants after a clean run,
        since a pool still tearing down while the interpreter finalizes
        prints ``Exception ignored … Bad file descriptor``; the default
        returns at once, for error and Ctrl-C paths where a worker may
        be stuck in a point.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _open_pool(self) -> Executor:
        if self._pool is None:
            if self.jobs == 1:
                self._pool = ThreadPoolExecutor(
                    1, thread_name_prefix="repro-point")
            else:
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(self.jobs)
        return self._pool
