"""Protocol-seam tests: registry, DLS oracle parity, the native gate, the
protocol matrix, cache-key guards.

Layers of coverage for the pluggable-protocol refactor:

* the registry in :mod:`repro.memory` is the single construction seam —
  it covers every declared protocol name, rejects undeclared ones, and
  the package exports no ``SnoopyClusterMemorySystem`` that would bypass
  it;
* the ``"dls"`` backend is pinned against its object-per-line oracle
  (``RefDLSMemorySystem`` in ``tests/refmodel.py``) on hypothesis-
  generated access streams — outcome tags, stall cycles, counters,
  classification, write-backs, slice contents, and LRU victim choice
  must agree step for step;
* the native gate names exactly three decline reasons, and the
  288-point protocol x provider x geometry matrix pinned in
  ``tests/golden/protocol_matrix.json`` holds with the C kernel forced
  on and forced off;
* cache-key collision guards: two runs differing only in ``protocol``
  must produce distinct ``point_key``\\ s, never share a result-cache
  entry, and (for the timing-dynamic apps) never share a compiled-trace
  entry — while stream-invariant apps *do* share the trace across
  protocols by design, because the reference stream is protocol-free.
"""

import hashlib
import json
import random
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.memory as memory_pkg
from repro.core.config import PROTOCOLS, MachineConfig, NetworkConfig
from repro.core.metrics import MissCause
from repro.core.resultcache import ResultCache, point_key
from repro.memory import (CoherentMemorySystem, DLSMemorySystem,
                          PROTOCOL_REGISTRY, make_memory_system)
from repro.memory.allocation import PageAllocator
from repro.memory.snoopy import SnoopyClusterMemorySystem
from repro.runtime import RunPlan, RunRequest, RunSession
from repro.sim.compiled import TraceCache, clear_memory_cache, trace_key
from repro.sim.engine import Engine
from repro.sim.program import Read, Write

from refmodel import RefDLSMemorySystem
from test_native_properties import needs_kernel
from test_runtime import TINY

# ---------------------------------------------------------------- config


class TestConfigProtocolAxis:
    def test_default_is_directory(self):
        assert MachineConfig().protocol == "directory"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown coherence protocol"):
            MachineConfig(protocol="mesiv2")

    def test_with_protocol_variant(self):
        cfg = MachineConfig().with_protocol("dls")
        assert cfg.protocol == "dls"
        assert MachineConfig().protocol == "directory"  # original untouched

    def test_to_dict_carries_protocol(self):
        for proto in PROTOCOLS:
            assert MachineConfig(
                protocol=proto).to_dict()["protocol"] == proto

    def test_describe_mentions_only_non_default(self):
        # golden runtime output under the default protocol must not change
        assert "directory" not in MachineConfig().describe()
        assert "dls" in MachineConfig(protocol="dls").describe()


# -------------------------------------------------------------- registry


class TestProtocolRegistry:
    def test_registry_covers_every_declared_protocol(self):
        assert set(PROTOCOL_REGISTRY) == set(PROTOCOLS)

    def test_make_memory_system_dispatches_on_protocol(self):
        expected = {"directory": CoherentMemorySystem,
                    "snoopy": SnoopyClusterMemorySystem,
                    "dls": DLSMemorySystem}
        for proto, cls in expected.items():
            cfg = MachineConfig(n_processors=4, protocol=proto)
            assert type(make_memory_system(cfg)) is cls

    def test_each_protocol_times_the_program_its_own_way(self):
        def program(pid):
            lines = [Read(64 * line) for line in range(16)]
            return iter([*lines, Write(64 * pid), *lines])

        times = {}
        for proto in PROTOCOLS:
            cfg = MachineConfig(n_processors=8, cluster_size=2,
                                protocol=proto)
            result = Engine(cfg, make_memory_system(cfg)).run(program)
            times[proto] = result.execution_time
        assert times["snoopy"] != times["directory"] != times["dls"]

    def test_package_level_snoopy_alias_is_gone(self):
        assert not hasattr(memory_pkg, "SnoopyClusterMemorySystem")
        assert "SnoopyClusterMemorySystem" not in memory_pkg.__all__

    def test_module_level_snoopy_class_stays_silent(self):
        cfg = MachineConfig(n_processors=4, cluster_size=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            SnoopyClusterMemorySystem(cfg)  # probes import the module class

    def test_registry_construction_does_not_warn(self):
        cfg = MachineConfig(n_processors=4, protocol="snoopy")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            make_memory_system(cfg)


# ------------------------------------------------- dls vs refmodel oracle

_shapes = st.sampled_from([
    # (n_processors, cluster_size, cache_kb)
    (2, 1, 0.0625), (4, 2, 0.0625), (4, 2, 0.125), (8, 4, 0.125),
    (4, 1, None), (8, 2, None), (4, 4, 0.0625),
])

_ops = st.lists(
    st.tuples(st.sampled_from(["read", "write", "retry"]),
              st.integers(0, 7),       # processor (mod n below)
              st.integers(0, 63),      # line
              st.integers(0, 40)),     # time advance
    max_size=300)


def _assert_step_parity(prod, ref, config):
    for cluster, (pc, rc) in enumerate(zip(prod.counters, ref.counters)):
        assert pc.reads == rc["reads"]
        assert pc.writes == rc["writes"]
        assert pc.read_misses == rc["read_misses"]
        assert pc.write_misses == rc["write_misses"]
        assert pc.merges == rc["merges"]
        assert pc.merge_refetches == rc["merge_refetches"]
        assert pc.prefetch_hits == rc["prefetch_hits"]
        assert pc.by_cause[MissCause.COLD] == rc["cold"]
        assert pc.by_cause[MissCause.COHERENCE] == rc["coherence"]
        assert pc.by_cause[MissCause.CAPACITY] == rc["capacity"]
    assert prod.writebacks == ref.writebacks
    for cluster in range(config.n_clusters):
        # same resident lines in the same LRU order = same victim choice
        assert (prod.caches[cluster].resident_lines()
                == ref.slices[cluster].resident_lines())


@settings(max_examples=150, deadline=None)
@given(shape=_shapes, ops=_ops)
def test_dls_matches_refmodel_oracle(shape, ops):
    n_proc, csize, cache_kb = shape
    config = MachineConfig(n_processors=n_proc, cluster_size=csize,
                           cache_kb_per_processor=cache_kb, protocol="dls")
    allocator = PageAllocator(config.n_clusters, config.page_size,
                              config.line_size)
    prod = DLSMemorySystem(config, allocator)
    ref = RefDLSMemorySystem(config, allocator)
    now = 0
    for kind, proc, line, dt in ops:
        proc %= n_proc
        now += dt
        if kind == "write":
            prod.write(proc, line, now)
            ref.write(proc, line, now)
        else:
            retry = kind == "retry"
            got = prod.read(proc, line, now, retry)
            want = ref.read(proc, line, now, retry)
            assert tuple(got) == tuple(want)
        _assert_step_parity(prod, ref, config)
    prod.check_invariants()


def test_dls_invariant_every_resident_line_is_home(seeded=11):
    """Long random drive, then the defining DLS invariant must hold."""
    rng = random.Random(seeded)
    config = MachineConfig(n_processors=8, cluster_size=2,
                           cache_kb_per_processor=0.125, protocol="dls")
    mem = make_memory_system(config)
    now = 0
    for _ in range(5000):
        now += rng.randrange(10)
        if rng.random() < 0.3:
            mem.write(rng.randrange(8), rng.randrange(512), now)
        else:
            mem.read(rng.randrange(8), rng.randrange(512), now)
    mem.check_invariants()
    agg = mem.aggregate_counters()
    assert agg.reads and agg.writes and agg.read_misses
    # single cached copy per line: upgrade misses cannot exist
    assert agg.upgrade_misses == 0


def test_snoopy_lines_never_carry_a_fetcher(monkeypatch):
    """A snoopy miss fills only the missing processor's own cache, so no
    line ever carries another processor's fetch — the invariant that lets
    snoopy share ``Cache.probe_read`` and its prefetch-hit rule."""
    from repro.apps.registry import build_app
    from repro.memory.cache import Cache
    from repro.sim.engine import Engine

    fetchers = set()
    insert = Cache.insert

    def spy(self, line, state, pending_until=0, fetcher=-1):
        fetchers.add(fetcher)
        return insert(self, line, state, pending_until, fetcher)

    monkeypatch.setattr(Cache, "insert", spy)
    config = MachineConfig(n_processors=8, cluster_size=4,
                           cache_kb_per_processor=1.0, protocol="snoopy")
    app = build_app("ocean", config, n=32, n_vcycles=1)
    app.ensure_setup()
    mem = SnoopyClusterMemorySystem(config, app.allocator)
    Engine(config, mem).run(app.program)
    agg = mem.aggregate_counters()
    assert agg.hits and agg.merges and mem.c2c_transfers
    assert fetchers == {-1} and agg.prefetch_hits == 0


# ------------------------------------------------------------ native gate


class TestNativeGate:
    def test_every_protocol_and_provider_is_eligible(self):
        """The kernel implements the whole protocol x provider matrix;
        nothing is left for a protocol allow-list to refuse."""
        import repro.sim.nativereplay as nativereplay
        from repro.sim.nativereplay import native_decline_reason

        assert not hasattr(nativereplay, "NATIVE_PROTOCOLS")
        cfg = MachineConfig(n_processors=4, cluster_size=2,
                            cache_kb_per_processor=4.0)
        for proto in PROTOCOLS:
            for cache_kb in (4.0, None):
                for network in (NetworkConfig(),
                                NetworkConfig(provider="mesh"),
                                NetworkConfig(provider="mesh",
                                              topology="crossbar")):
                    assert native_decline_reason(
                        cfg.with_protocol(proto).with_cache_kb(cache_kb)
                        .with_network(network)) is None

    def test_decline_reasons_are_exactly_three(self):
        """Eligibility is a pure function of the config, with a reason."""
        from repro.sim.nativereplay import native_decline_reason

        cfg = MachineConfig(n_processors=4, cluster_size=2,
                            cache_kb_per_processor=4.0)
        # one bit per cache in a machine word: clusters always ...
        for proto in PROTOCOLS:
            assert native_decline_reason(MachineConfig(
                n_processors=128, protocol=proto)) == "over-64-clusters"
        # ... and processors where the caches are per processor
        wide = MachineConfig(n_processors=128, cluster_size=8)
        assert native_decline_reason(wide) is None
        assert native_decline_reason(wide.with_protocol("dls")) is None
        assert native_decline_reason(
            wide.with_protocol("snoopy")) == "over-64-processors"
        assert native_decline_reason(MachineConfig(
            n_processors=64, cluster_size=8, protocol="snoopy")) is None
        assert native_decline_reason(
            cfg.with_associativity(2)) == "set-associative"
        # ways covering the whole capacity are one fully associative set
        assert native_decline_reason(cfg.with_associativity(4096)) is None

    def test_geometry_is_judged_on_the_caches_the_protocol_has(self):
        """4 KB/processor at 4/cluster: 256 lines in the shared cache (or
        DLS slice), 64 in each snoopy processor cache.  64 ways are four
        sets of the former and one fully associative set of the latter."""
        from repro.sim.nativereplay import native_decline_reason

        cfg = MachineConfig(n_processors=16, cluster_size=4,
                            cache_kb_per_processor=4.0, associativity=64)
        assert native_decline_reason(cfg) == "set-associative"
        assert native_decline_reason(
            cfg.with_protocol("dls")) == "set-associative"
        assert native_decline_reason(cfg.with_protocol("snoopy")) is None
        assert native_decline_reason(cfg.with_protocol("snoopy")
                                     .with_associativity(32)) \
            == "set-associative"


# ------------------------------------------------------ protocol matrix

MATRIX = Path(__file__).parent / "golden" / "protocol_matrix.json"
MATRIX_APPS = ("lu", "fft", "ocean", "fmm", "radix", "mp3d",
               "raytrace", "volrend")
#: column -> (cache KB per processor, ways)
MATRIX_GEOMETRIES = {"4k": (4.0, None), "inf": (None, None),
                     "4k-2way": (4.0, 2)}
MATRIX_PROVIDERS = {"table": None, "mesh": NetworkConfig(provider="mesh")}


def run_matrix() -> tuple[dict[str, str], dict[str, str]]:
    """Every matrix point through ``RunSession``: the sha256 of its
    ``to_json()`` and the kernel that served it, by
    ``protocol/provider/geometry/app/cN``.

    {directory, snoopy, dls} x {table, mesh} x {4 KB, infinite, 4 KB
    2-way} x the six static apps and the two tile-queue apps at
    ``TINY`` sizes x cluster sizes {1, 4} on 16 processors.
    """
    shas, kernels = {}, {}
    clear_memory_cache()
    traces = TraceCache()  # streams depend on none of the four axes
    for geometry, (cache_kb, ways) in MATRIX_GEOMETRIES.items():
        base = MachineConfig(n_processors=16, associativity=ways)
        session = RunSession(base_config=base, trace_cache=traces)
        for protocol in PROTOCOLS:
            for provider, network in MATRIX_PROVIDERS.items():
                for app in MATRIX_APPS:
                    for c in (1, 4):
                        outcome = session.run_plan(RunPlan.resolve(
                            RunRequest.make(app, c, cache_kb, TINY[app],
                                            network=network,
                                            protocol=protocol), base))
                        key = f"{protocol}/{provider}/{geometry}/{app}/c{c}"
                        shas[key] = hashlib.sha256(
                            outcome.result.to_json().encode()).hexdigest()
                        kernels[key] = outcome.kernel
    clear_memory_cache()
    # one capture per app served all 36 of its points
    assert (traces.misses, traces.hits) == (8, 280)
    return shas, kernels


class TestProtocolMatrix:
    """``tests/golden/protocol_matrix.json`` is the wall the C kernel's
    snoopy, DLS and mesh back ends were built against: 216 shas written
    by the python path (``REPRO_NATIVE=0``) at the commit *before*
    ``kernel.c`` learned any of them (``json.dump(run_matrix()[0], f,
    indent=0, sort_keys=True)`` regenerates it — from python, never
    from the kernel under test).  The 72 raytrace and volrend shas were
    written the same way at the commit before either app had a trace
    that outlives one machine: each is ``Engine.run(app.program)`` on
    the python memory system, the generators taking their tiles from
    the lock-protected python counter; they now come from one ``TASK``
    trace per app, shared by all 36 of its points."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(MATRIX.read_text(encoding="utf-8"))

    def test_matrix_covers_every_axis(self, golden):
        assert len(golden) == 3 * 2 * 3 * 8 * 2
        axes = [set(column) for column in zip(*(k.split("/")
                                                for k in golden))]
        assert axes == [set(PROTOCOLS), set(MATRIX_PROVIDERS),
                        set(MATRIX_GEOMETRIES), set(MATRIX_APPS),
                        {"c1", "c4"}]

    def test_python_path_holds_the_matrix(self, golden, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        shas, kernels = run_matrix()
        assert set(kernels.values()) == {"python"}
        assert [k for k in golden if shas[k] != golden[k]] == []

    @needs_kernel
    def test_kernel_holds_the_matrix(self, golden, monkeypatch):
        """Forced on, the kernel serves every fully associative point
        byte for byte; the set-associative column is declined and takes
        the python path unchanged."""
        monkeypatch.setenv("REPRO_NATIVE", "1")
        shas, kernels = run_matrix()
        assert [k for k in golden if shas[k] != golden[k]] == []
        assert {k for k, kernel in kernels.items() if kernel == "python"} \
            == {k for k in golden if "/4k-2way/" in k}


# ----------------------------------------------------- cache-key guards

TINY_OCEAN = dict(n=16, n_vcycles=1)


class TestCacheKeyCollisionGuard:
    def test_point_keys_differ_by_protocol_only(self):
        base = MachineConfig(n_processors=8, cluster_size=2,
                             cache_kb_per_processor=4.0)
        keys = {point_key("ocean", TINY_OCEAN, base.with_protocol(p))
                for p in PROTOCOLS}
        assert len(keys) == len(PROTOCOLS)
        # and the default-protocol key is byte-stable against the
        # explicit spelling of the default
        assert (point_key("ocean", TINY_OCEAN, base)
                == point_key("ocean", TINY_OCEAN,
                             base.with_protocol("directory")))

    def test_trace_keys_differ_by_protocol_for_dynamic_apps(self):
        base = MachineConfig(n_processors=8)
        dynamic = {trace_key("barnes", {"n_particles": 64},
                             base.with_protocol(p), seed=0,
                             stream_invariant=False)
                   for p in PROTOCOLS}
        assert len(dynamic) == len(PROTOCOLS)

    def test_stream_invariant_traces_shared_across_protocols(self):
        # the reference stream of an invariant app is protocol-free, so
        # sharing the compiled trace across protocols is by design
        base = MachineConfig(n_processors=8)
        invariant = {trace_key("ocean", TINY_OCEAN, base.with_protocol(p),
                               seed=0, stream_invariant=True)
                     for p in PROTOCOLS}
        assert len(invariant) == 1

    def test_result_cache_never_shares_entries_across_protocols(
            self, tmp_path):
        from repro.core.executor import SweepExecutor
        from repro.runtime import RunRequest

        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache)
        base = MachineConfig(n_processors=8)
        spec_dir = RunRequest.make("ocean", 2, 4.0, TINY_OCEAN)
        spec_dls = RunRequest.make("ocean", 2, 4.0, TINY_OCEAN,
                                   protocol="dls")

        first = executor.run([spec_dir], base)[0]
        assert cache.hits == 0 and cache.misses == 1
        crossed = executor.run([spec_dls], base)[0]
        # differing only in protocol: must miss, must execute, and must
        # produce a different result (DLS pays mandatory remote traffic)
        assert cache.hits == 0 and cache.misses == 2
        assert (crossed.result.execution_time
                != first.result.execution_time)

        again = executor.run([spec_dls], base)[0]
        assert cache.hits == 1  # the honest hit: identical protocol
        assert again.result.to_json() == crossed.result.to_json()

    def test_daemon_stats_stay_honest_across_protocols(self, serve_daemon):
        from repro.runtime import RunRequest

        # a problem no other test runs on the session daemon, whose result
        # cache would otherwise already hold the directory point
        ocean = dict(TINY_OCEAN, seed=7)
        stats0 = serve_daemon.daemon.stats_dict()
        with serve_daemon.client() as client:
            r_dir = client.run_point(
                RunRequest.make("ocean", 2, 4.0, ocean))
            r_dls = client.run_point(
                RunRequest.make("ocean", 2, 4.0, ocean,
                                protocol="dls"))
            r_dls_again = client.run_point(
                RunRequest.make("ocean", 2, 4.0, ocean,
                                protocol="dls"))
        assert r_dir.key != r_dls.key
        assert r_dls_again.key == r_dls.key
        assert not r_dir.cached and not r_dls.cached  # distinct executions
        assert r_dls_again.cached  # the honest hit
        assert (r_dls.result.execution_time
                != r_dir.result.execution_time)
        stats = serve_daemon.daemon.stats_dict()
        assert stats["executed"] >= stats0["executed"] + 2
        assert stats["cache_hits"] >= stats0["cache_hits"] + 1


# ------------------------------------------------------- protocol sweep


class TestProtocolSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.core.study import ClusteringStudy

        study = ClusteringStudy("ocean", MachineConfig(n_processors=8),
                                dict(TINY_OCEAN))
        return study.protocol_sweep(PROTOCOLS, (1, 2), cache_kb=4.0)

    def test_grid_shape_and_protocol_effects(self, sweep):
        assert set(sweep) == {(p, c) for p in PROTOCOLS for c in (1, 2)}
        times = {k: pt.execution_time for k, pt in sweep.items()}
        # all three protocols simulate; DLS's mandatory remote traffic
        # makes it strictly slower than the directory at every cluster
        for c in (1, 2):
            assert times[("dls", c)] > times[("directory", c)]

    def test_directory_column_matches_cluster_sweep(self, sweep):
        from repro.core.study import ClusteringStudy

        study = ClusteringStudy("ocean", MachineConfig(n_processors=8),
                                dict(TINY_OCEAN))
        plain = study.cluster_sweep(4.0, (1, 2))
        for c in (1, 2):
            assert (sweep[("directory", c)].result.to_json()
                    == plain[c].result.to_json())

    def test_figure_from_protocol_sweep(self, sweep):
        from repro.analysis import figure_from_protocol_sweep

        fig = figure_from_protocol_sweep("cross-protocol", sweep)
        assert [g.label for g in fig.groups] == list(PROTOCOLS)
        assert all(len(g.bars) == 2 for g in fig.groups)
        # global baseline: directory @ 1p is the 100% bar
        assert fig.bar("directory", "1p").total == pytest.approx(100.0)
        assert fig.bar("dls", "1p").total > 100.0

    def test_render_protocol_comparison(self, sweep):
        from repro.analysis import render_protocol_comparison

        table = render_protocol_comparison(sweep, "ocean: protocols")
        for proto in PROTOCOLS:
            assert proto in table
        assert "vs directory" in table
        assert "1.000" in table
