"""Runtime pipeline parity: RunSession is byte-identical to the
pre-refactor evaluation path, observed or not.

``tests/golden/runtime_parity.json`` was generated by the executor's
worker function before the :mod:`repro.runtime` extraction, for all
nine applications at two cluster sizes with 4 KB caches on an
8-processor machine, sharing one trace cache across the grid exactly the
way a sweep does.  The tests here replay the same grid through
:class:`~repro.runtime.session.RunSession` and require every result's
canonical JSON to match byte for byte — the refactor moved code, not
behaviour.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import MachineConfig
from repro.apps.registry import build_app
from repro.core.executor import SweepExecutor
from repro.runtime import (RunPlan, RunRequest, RunSession, TimingObserver)
from repro.sim.compiled import TraceCache, clear_memory_cache

GOLDEN = Path(__file__).parent / "golden" / "runtime_parity.json"

#: tiny problem sizes — large enough to exercise every phase structure,
#: small enough that the 18-point grid stays in test-suite time
TINY = {
    "lu": dict(n=32, block=8),
    "fft": dict(n_points=256),
    "ocean": dict(n=16, n_vcycles=1),
    "barnes": dict(n_particles=64, n_steps=1),
    "fmm": dict(n_particles=64, levels=2, n_steps=1),
    "radix": dict(n_keys=512, radix=16, n_digits=1),
    "raytrace": dict(width=8, height=8, n_spheres=8),
    "volrend": dict(volume_side=8, width=8, height=8, block=2),
    "mp3d": dict(n_particles=64, n_steps=1),
}

CFG = MachineConfig(n_processors=8)


def golden_payload() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


class TestGoldenParity:
    def test_golden_covers_all_apps_at_two_cluster_sizes(self):
        golden = golden_payload()
        assert len(golden) == len(TINY) * 2
        for app in TINY:
            assert f"{app}/c1/4k" in golden and f"{app}/c2/4k" in golden

    def test_session_matches_pre_refactor_pipeline(self):
        """RunSession reproduces the pre-refactor golden results."""
        golden = golden_payload()
        clear_memory_cache()
        session = RunSession(base_config=CFG, trace_cache=TraceCache())
        for app, kw in TINY.items():
            for c in (1, 2):
                result = session.run(RunRequest.make(app, c, 4.0, kw))
                assert result.to_json() == golden[f"{app}/c{c}/4k"], \
                    f"{app}/c{c}: RunSession diverged from golden"

    def test_evaluate_point_still_matches_golden(self):
        """The executor's worker routes through the same pipeline."""
        golden = golden_payload()
        clear_memory_cache()
        executor = SweepExecutor()
        for app in ("ocean", "barnes"):  # one invariant, one dynamic
            for c in (1, 2):
                spec = RunRequest.make(app, c, 4.0, TINY[app])
                result = executor.run([spec], CFG)[0].result
                assert result.to_json() == golden[f"{app}/c{c}/4k"]


class TestObserverTransparency:
    @pytest.mark.parametrize("app", ["ocean", "barnes"])
    def test_observed_run_is_bit_identical_to_detached(self, app):
        request = RunRequest.make(app, 2, 4.0, TINY[app])

        clear_memory_cache()
        detached = RunSession(base_config=CFG, trace_cache=TraceCache())
        want = detached.run(request).to_json()

        clear_memory_cache()
        observer = TimingObserver()
        observed = RunSession(base_config=CFG, trace_cache=TraceCache(),
                              observer=observer)
        got = observed.run(request).to_json()

        assert got == want
        assert observer.result is not None
        assert observer.result.to_json() == want

    def test_observer_sees_the_pipeline_phases(self):
        observer = TimingObserver()
        clear_memory_cache()
        session = RunSession(base_config=CFG, trace_cache=TraceCache(),
                             observer=observer)
        request = RunRequest.make("ocean", 1, 4.0, TINY["ocean"])

        session.run(request)
        names = [n for n, _, _ in observer.phases]
        assert names == ["resolve", "build", "capture", "execute"]

        observer.phases.clear()
        session.run(request)  # second run: served from the trace cache
        names = [n for n, _, _ in observer.phases]
        assert names == ["resolve", "build", "trace-hit", "execute"]
        assert observer.elapsed("execute") > 0.0
        assert observer.total() >= observer.elapsed("execute")
        report = observer.format()
        assert "execute" in report and "total" in report

    def test_execute_phase_names_the_kernel_and_why_it_declined(
            self, monkeypatch):
        import repro.native as native

        def execute_info(request, base=CFG):
            observer = TimingObserver()
            RunSession(base_config=base, observer=observer).run(request)
            (info,) = [i for n, _, i in observer.phases if n == "execute"]
            return info

        ocean = RunRequest.make("ocean", 2, 4.0, TINY["ocean"])
        dls = RunRequest.make("ocean", 2, 4.0, TINY["ocean"], protocol="dls")
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        if native.kernel() is not None:
            for request in (ocean, dls):
                info = execute_info(request)
                assert info["kernel"] == "native" and "declined" not in info
        two_way = execute_info(ocean, CFG.with_associativity(2))
        assert (two_way["kernel"], two_way["declined"]) == (
            "python", "set-associative")
        monkeypatch.setenv("REPRO_NATIVE", "0")
        off = execute_info(ocean)
        assert (off["kernel"], off["declined"]) == (
            "python", "native-off-or-unavailable")
        # a cold dynamic app is recorded, then replayed like any other
        # capture: its kernel and why the native one declined
        barnes = execute_info(RunRequest.make("barnes", 2, 4.0,
                                              TINY["barnes"]))
        assert (barnes["recorded"], barnes["kernel"], barnes["declined"]) \
            == (True, "python", "native-off-or-unavailable")

    def test_cold_dynamic_point_says_it_was_a_recording_run(self):
        """Cold, barnes is recorded by ``recorded_program()`` — no
        ``capture`` phase — and replayed, and its ``execute`` line must
        say both; warm, it is an ordinary replay.  Both are the
        generators' own run, byte for byte."""
        request = RunRequest.make("barnes", 2, 4.0, TINY["barnes"])
        want = build_app("barnes", request.config_for(CFG),
                         **TINY["barnes"]).run().to_json()

        observer = TimingObserver()
        session = RunSession(base_config=CFG, trace_cache=TraceCache(),
                             observer=observer)
        clear_memory_cache()
        assert session.run(request).to_json() == want
        assert [n for n, _, _ in observer.phases] == [
            "resolve", "build", "execute"]
        cold = observer.phases[-1][2]
        assert cold["recorded"] is True
        assert cold["kernel"] in ("native", "python")
        assert 0 < cold["ops"] <= cold["source_ops"]
        assert (f"references={cold['references']} cycles={cold['cycles']} "
                f"recorded=True ops={cold['ops']} "
                f"source_ops={cold['source_ops']}") in observer.format()

        observer.phases.clear()
        assert session.run(request).to_json() == want
        assert [n for n, _, _ in observer.phases] == [
            "resolve", "build", "trace-hit", "execute"]
        warm = observer.phases[-1][2]
        assert warm["kernel"] == cold["kernel"]
        assert "recorded" not in warm
        assert warm["references"] == cold["references"]

    def test_detached_session_has_no_observer_state(self):
        session = RunSession(base_config=CFG, trace_cache=None)
        assert session.observer is None
        result = session.run(RunRequest.make("fft", 1, 4.0, TINY["fft"]))
        assert result.execution_time > 0


class TestRunApp:
    @pytest.mark.parametrize("app", ["ocean", "raytrace"],
                             ids=["static", "dynamic"])
    def test_public_entry_point_takes_the_canonical_pipeline(self, app):
        """``repro.run_app`` == the app's own generator run, by bytes."""
        from repro import run_app

        config = MachineConfig(n_processors=8, cluster_size=2,
                               cache_kb_per_processor=4.0, protocol="dls")
        want = build_app(app, config, **TINY[app]).run()
        assert run_app(app, config, **TINY[app]).to_json() == want.to_json()


class TestPlans:
    def test_resolve_binds_cluster_cache_and_base(self):
        request = RunRequest.make("lu", 4, 16, {"n": 32})
        plan = RunPlan.resolve(request, CFG)
        assert plan.config.cluster_size == 4
        assert plan.config.cache_kb_per_processor == 16.0
        assert plan.config.n_processors == 8
        assert plan == RunPlan(request, request.config_for(CFG))

    def test_default_base_is_the_paper_machine(self):
        plan = RunPlan.resolve(RunRequest.make("lu", 1, None, {}))
        assert plan.config.n_processors == 64
