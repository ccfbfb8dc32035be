"""Benchmark-side spans and the per-layer ledger built from them.

Spans wrap only calls into the program's public functions, in the order
``RunSession.run_plan`` makes them; nothing inside ``src/`` is
instrumented.  A span is ``[name, start, end, parent, point]``; a layer's
self time is its spans' durations minus what their child spans cover.
Spans stay in memory and are written by the caller when the run ends.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from repro.apps.registry import build_app
from repro.core.resultcache import TraceStore
from repro.runtime import RunPlan
from repro.sim.compiled import trace_key
from repro.sim.nativereplay import try_replay_native

from harness import ratio

#: span of the python replay a declined point falls onto, by decline reason
ENGINE_SPANS = {"directory": "sim.engine.replay",
                "snoopy": "memory.snoopy.replay",
                "dls": "memory.dls.replay",
                "mesh": "network.mesh.replay"}


def variant_of(request) -> str:
    """What makes ``try_replay_native`` accept or decline this request."""
    if request.protocol not in (None, "directory"):
        return request.protocol
    if request.network is not None and request.network.provider == "mesh":
        return "mesh"
    return "directory"


def label_of(request) -> str:
    cache = "inf" if request.cache_kb is None else f"{request.cache_kb:g}k"
    return (f"{request.app}/{request.cluster_size}p/{cache}/"
            f"{variant_of(request)}")


class Tracer:
    """Span and count recorder for one traced pass (thread-safe)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, point: str | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        record = [name, 0.0, 0.0, stack[-1] if stack else None, point]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(record)
        record[1] = perf_counter()
        try:
            yield record
        finally:
            record[2] = perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a root span that was timed by the caller."""
        with self._lock:
            self.spans.append([name, start, end, None, None])

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, children's time subtracted."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _point in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _point) in enumerate(self.spans):
            out[name] += end - start - covered[i]
        return out

    def to_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "point": pt}
                for n, s, e, p, pt in self.spans]


class SpanStore(TraceStore):
    """A ``TraceStore`` whose blob writes are recorded as spans.

    ``TraceCache.put`` encodes (``to_bytes``) and writes in one call;
    handing it this store splits the two from outside: the write is the
    child span, the encode is what is left of the ``put`` span.
    """

    def __init__(self, directory, tracer: Tracer) -> None:
        super().__init__(directory)
        self.tracer = tracer

    def put_bytes(self, key: str, data: bytes) -> None:
        with self.tracer.span("sim.compiled.store_put"):
            super().put_bytes(key, data)


def traced_point(tr: Tracer, request, base_config, trace_cache):
    """One point through ``RunSession.run_plan``'s call sequence, in spans.

    Returns ``(result, program)``.  The calls, their order and their
    arguments are those of the untraced pipeline, so the result is
    byte-identical; the callers check that it is.
    """
    point = label_of(request)
    with tr.span("runtime.resolve", point):
        plan = RunPlan.resolve(request, base_config)
    with tr.span("apps.build", point):
        app = build_app(request.app, plan.config, **request.kwargs)
        app.ensure_setup()
    with tr.span("sim.compiled.load", point):
        key = trace_key(request.app, request.kwargs, plan.config, app.seed,
                        stream_invariant=app.stream_invariant)
        program = trace_cache.get(key)
    if program is None:
        tr.counts["apps.captures"] += 1
        with tr.span("apps.capture", point):
            if app.stream_invariant:
                program = app.compiled_program()
            else:
                # dynamic task-queue app: the capture *is* the run
                result, program = app.run_recorded()
        tr.counts["apps.capture_ops"] += program.total_ops
        with tr.span("sim.compiled.encode", point):
            trace_cache.put(key, program)
        if not app.stream_invariant:
            return result, program
    with tr.span("native.replay", point):
        result = try_replay_native(plan.config, app, program)
    if result is not None:
        tr.counts["native.points"] += 1
        tr.counts["native.ops"] += program.total_ops
        return result, program
    tr.counts["native.declined_points"] += 1
    span = ENGINE_SPANS[variant_of(request)]
    with tr.span(span, point):
        result = app.run(program=program)
    tr.counts["sim.engine.points"] += 1
    tr.counts[f"{span}.ops"] += program.total_ops
    return result, program


def count_simulated(tr: Tracer, result, program) -> None:
    """Exact simulated totals of a pass (checked, never measured)."""
    tr.counts["sim.ops_total"] += program.total_ops
    tr.counts["sim.cycles_total"] += result.execution_time
    tr.counts["sim.references_total"] += result.misses.references
    tr.counts["trace.bytes"] += program.nbytes
    tr.counts["trace.mapped_points"] += bool(program.mapped)
    tr.counts["trace.points"] += 1


def pipeline_ledger(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics one traced in-process pass yields."""
    t, c = tr.self_times(), tr.counts
    engine_s = sum(t[name] for name in ENGINE_SPANS.values())
    engine_ops = sum(c[f"{name}.ops"] for name in ENGINE_SPANS.values())
    out = {
        "runtime.resolve_s": t["runtime.resolve"],
        "apps.build_s": t["apps.build"],
        "apps.capture_s": t["apps.capture"],
        "apps.capture_ops_per_s": ratio(c["apps.capture_ops"],
                                        t["apps.capture"]),
        "apps.captures": c["apps.captures"],
        "sim.compiled.encode_s": t["sim.compiled.encode"],
        "sim.compiled.store_put_s": t["sim.compiled.store_put"],
        "sim.compiled.load_s": t["sim.compiled.load"],
        "sim.compiled.trace_hits": c["trace.hits"],
        "sim.compiled.trace_misses": c["trace.misses"],
        "sim.compiled.trace_bytes": c["trace.bytes"],
        "sim.compiled.mapped_ratio": ratio(c["trace.mapped_points"],
                                           c["trace.points"]),
        "native.replay_s": t["native.replay"],
        "native.ops_per_s": ratio(c["native.ops"], t["native.replay"]),
        "native.points": c["native.points"],
        "native.declined_points": c["native.declined_points"],
        "native.accept_ratio": ratio(
            c["native.points"],
            c["native.points"] + c["native.declined_points"]),
        "sim.engine.replay_s": engine_s,
        "sim.engine.ops_per_s": ratio(engine_ops, engine_s),
        "sim.engine.points": c["sim.engine.points"],
        "core.metrics.to_json_s": t["core.metrics.to_json"],
        "core.metrics.result_bytes": c["result.bytes"],
        "core.resultcache.put_s": t["core.resultcache.put"],
        "core.resultcache.get_s": t["core.resultcache.get"],
        "core.resultcache.hits": c["resultcache.hits"],
        "core.resultcache.misses": c["resultcache.misses"],
        "analysis.render_s": t["analysis.render"],
        "sim.ops_total": c["sim.ops_total"],
        "sim.cycles_total": c["sim.cycles_total"],
        "sim.references_total": c["sim.references_total"],
    }
    for layer in ("memory.snoopy", "memory.dls", "network.mesh"):
        out[f"{layer}.replay_s"] = t[f"{layer}.replay"]
        out[f"{layer}.ops_per_s"] = ratio(c[f"{layer}.replay.ops"],
                                          t[f"{layer}.replay"])
    return out


#: ledger entries that are layer self times of the blocking path, i.e. the
#: ones whose sum is compared with the pass wall-clock
LAYER_TIME_KEYS = (
    "runtime.resolve_s", "apps.build_s", "apps.capture_s",
    "sim.compiled.encode_s", "sim.compiled.store_put_s",
    "sim.compiled.load_s", "native.replay_s", "sim.engine.replay_s",
    "core.metrics.to_json_s", "core.resultcache.put_s",
    "core.resultcache.get_s", "analysis.render_s")
