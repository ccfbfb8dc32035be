"""SweepExecutor behaviour: request checking, the pool, failure isolation."""

import pytest

from repro.core.config import MachineConfig
from repro.core.executor import (PointOutcome, SweepExecutionError,
                                 SweepExecutor, raise_failures)
from repro.core.study import ClusteringStudy
from repro.runtime import RunRequest
from repro.runtime.hooks import RunObserver

CFG = MachineConfig(n_processors=8)
OCEAN_KW = {"n": 16, "n_vcycles": 1}


class Count(RunObserver):
    """Counts the points evaluated in this process."""

    evaluations = 0

    def on_result(self, plan, result):
        self.evaluations += 1


class TestRunRequest:
    def test_make_sorts_kwargs(self):
        a = RunRequest.make("ocean", 2, 4, {"b": 1, "a": 2})
        b = RunRequest.make("ocean", 2, 4, {"a": 2, "b": 1})
        assert a == b
        assert a.kwargs == {"a": 2, "b": 1}

    def test_specs_are_hashable(self):
        assert len({RunRequest.make("lu", 1, None, {"n": 32}),
                    RunRequest.make("lu", 1, None, {"n": 32})}) == 1

    def test_config_for_applies_cluster_and_cache(self):
        spec = RunRequest.make("ocean", 4, 16, {})
        cfg = spec.config_for(CFG)
        assert cfg.cluster_size == 4
        assert cfg.cache_kb_per_processor == 16.0
        spec_inf = RunRequest.make("ocean", 2, None, {})
        assert spec_inf.config_for(CFG).cache_kb_per_processor is None

    def test_coercion_from_tuples_is_rejected(self):
        executor = SweepExecutor()
        with pytest.raises(TypeError, match=r"RunRequest\.make"):
            executor.run([("ocean", 2, 4)], CFG)
        with pytest.raises(TypeError, match=r"RunRequest\.make"):
            executor.run([["ocean", 2, None, {"n": 16}]], CFG)
        with pytest.raises(TypeError, match=r"RunRequest\.make"):
            executor.submit_one(("ocean", 2, 4), CFG)

    def test_coercion_rejects_junk(self):
        with pytest.raises(TypeError, match="sweep point"):
            SweepExecutor().run(["ocean"], CFG)
        with pytest.raises(TypeError, match="sweep point"):
            SweepExecutor().run([RunRequest.make("lu", 1, None), None], CFG)

    def test_describe_mentions_everything(self):
        text = RunRequest.make("ocean", 4, None, {"n": 16}).describe()
        assert "ocean" in text and "4" in text and "inf" in text \
            and "n=16" in text


class TestConstruction:
    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            SweepExecutor(jobs=0)

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            SweepExecutor(timeout=-1.0)


class TestFailureIsolation:
    """One bad point must not take down the sweep."""

    def test_unknown_app_is_isolated_serial(self):
        specs = [RunRequest.make("ocean", 1, None, OCEAN_KW),
                 RunRequest.make("notanapp", 1, None, {}),
                 RunRequest.make("ocean", 2, None, OCEAN_KW)]
        outcomes = SweepExecutor().run(specs, CFG)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "notanapp" in outcomes[1].error
        assert outcomes[1].result is None

    def test_unknown_app_is_isolated_process(self):
        specs = [RunRequest.make("ocean", 1, None, OCEAN_KW),
                 RunRequest.make("notanapp", 1, None, {})]
        outcomes = SweepExecutor(jobs=2).run(specs, CFG)
        assert [o.ok for o in outcomes] == [True, False]
        assert "notanapp" in outcomes[1].error
        # the full traceback, the worker's own frames included
        assert "_evaluate_timed" in outcomes[1].error

    def test_every_entry_records_the_full_traceback(self):
        bad = RunRequest.make("notanapp", 1, None, {})
        served = SweepExecutor().submit_one(bad, CFG).result(timeout=60)
        ran = SweepExecutor().run([bad], CFG)[0]
        for outcome in (served, ran):
            assert outcome.error.startswith("Traceback")
            assert "notanapp" in outcome.error.strip().splitlines()[-1]
        with pytest.raises(SweepExecutionError) as exc:
            raise_failures([ran])
        assert "Traceback" not in str(exc.value)

    def test_unresolvable_machine_is_isolated_with_a_result_cache(
            self, tmp_path):
        """A cluster size the machine cannot hold used to abort the whole
        sweep while its result-cache key was computed."""
        from repro.core.resultcache import ResultCache

        good = RunRequest.make("ocean", 2, None, OCEAN_KW)
        bad = RunRequest.make("ocean", 3, None, OCEAN_KW)
        outcomes = SweepExecutor(cache=ResultCache(tmp_path)).run(
            [good, bad], CFG)
        assert [o.ok for o in outcomes] == [True, False]
        assert "ValueError" in outcomes[1].error
        again = SweepExecutor(cache=ResultCache(tmp_path)).run([good], CFG)
        assert again[0].cached

    def test_bad_kwargs_are_isolated(self):
        outcomes = SweepExecutor().run(
            [RunRequest.make("ocean", 1, None, {"no_such_knob": 3})], CFG)
        assert not outcomes[0].ok

    def test_raise_failures_collects_all(self):
        bad = PointOutcome(RunRequest.make("x", 1, None, {}), error="boom")
        good = PointOutcome(RunRequest.make("y", 1, None, {}),
                            result=object())
        with pytest.raises(SweepExecutionError) as exc:
            raise_failures([good, bad, bad])
        assert len(exc.value.failures) == 2
        assert "boom" in str(exc.value)

    def test_raise_failures_quiet_when_clean(self):
        good = PointOutcome(RunRequest.make("y", 1, None, {}),
                            result=object())
        raise_failures([good])  # no exception

    def test_study_raises_on_failed_point(self):
        study = ClusteringStudy("ocean", CFG, {"no_such_knob": 1})
        with pytest.raises(SweepExecutionError):
            study.run_point(1, None)

    def test_timeout_reports_error_not_crash(self):
        """A point exceeding the per-point budget becomes an error outcome."""
        slow = RunRequest.make("ocean", 1, None, {"n": 32, "n_vcycles": 2})
        executor = SweepExecutor(jobs=2, timeout=1e-4)
        outcomes = executor.run([slow], CFG)
        assert not outcomes[0].ok
        assert "timed out" in outcomes[0].error


class TestPoolLifecycle:
    def test_pool_is_reused_across_runs(self):
        with SweepExecutor(jobs=2) as executor:
            first = executor.run(
                [RunRequest.make("ocean", 1, None, OCEAN_KW)], CFG)
            pool = executor._pool
            second = executor.run(
                [RunRequest.make("ocean", 2, None, OCEAN_KW)], CFG)
            assert executor._pool is pool
        assert executor._pool is None  # context exit closed it
        assert first[0].ok and second[0].ok

    def test_close_is_idempotent_and_pool_reopens(self):
        executor = SweepExecutor(jobs=2)
        executor.close()
        executor.close()
        outcome = executor.run(
            [RunRequest.make("ocean", 1, None, OCEAN_KW)], CFG)[0]
        assert outcome.ok
        executor.close()
        assert executor._pool is None

    def test_submit_one_and_run_share_the_one_pool(self):
        spec = RunRequest.make("ocean", 1, None, OCEAN_KW)
        with SweepExecutor(jobs=2) as executor:
            assert executor.submit_one(spec, CFG).result(timeout=120).ok
            pool = executor._pool
            assert pool is not None and executor.worker_processes()
            assert executor.run(
                [RunRequest.make("ocean", 2, None, OCEAN_KW)], CFG)[0].ok
            assert executor._pool is pool

    def test_one_job_runs_inline_and_submits_to_one_thread(self):
        count = Count()
        with SweepExecutor(observer=count) as executor:
            assert executor.run(
                [RunRequest.make("ocean", 1, None, OCEAN_KW)], CFG)[0].ok
            assert executor._pool is None
            assert executor.submit_one(
                RunRequest.make("ocean", 2, None, OCEAN_KW),
                CFG).result(timeout=120).ok
            assert executor._pool._max_workers == 1
            assert executor.worker_processes() == []
        assert count.evaluations == 2


class TestDedupe:
    def test_duplicate_specs_execute_once_and_share_the_result(self):
        spec = RunRequest.make("ocean", 2, 4.0, OCEAN_KW)
        other = RunRequest.make("ocean", 1, 4.0, OCEAN_KW)
        out = SweepExecutor().run([spec, other, spec], CFG)
        assert out[2].result is out[0].result
        assert out[2].elapsed == 0.0
        assert out[0].elapsed > 0.0
        assert out[1].result is not out[0].result

    def test_one_point_key_is_one_evaluation(self):
        """Two spellings of one machine (the default protocol left
        implicit, then named) are one point: evaluated once."""
        lu = {"n": 32, "block": 8}
        implicit = RunRequest.make("lu", 2, 4.0, lu)
        named = RunRequest.make("lu", 2, 4.0, lu, protocol="directory")
        assert implicit != named
        count = Count()
        out = SweepExecutor(observer=count).run([implicit, named], CFG)
        assert count.evaluations == 1
        assert out[1].result is out[0].result
        assert out[1].elapsed == 0.0 and out[1].spec is named

    def test_duplicates_of_a_failing_point_share_the_error(self):
        bad = RunRequest.make("notanapp", 1, None, {})
        out = SweepExecutor().run([bad, bad], CFG)
        assert not out[0].ok and not out[1].ok
        assert out[1].error == out[0].error


class TestResults:
    def test_elapsed_recorded(self):
        outcome = SweepExecutor().run(
            [RunRequest.make("ocean", 1, None, OCEAN_KW)], CFG)[0]
        assert outcome.ok and outcome.elapsed > 0.0 and not outcome.cached

    def test_default_base_config_is_paper_machine(self):
        outcome = SweepExecutor().run(
            [RunRequest.make("lu", 1, None, {"n": 16, "block": 4})])[0]
        assert outcome.ok
        assert outcome.result.n_processors == 64

    def test_study_sweeps_match_previous_api(self):
        """The executor-backed sweeps keep the historical dict shapes."""
        study = ClusteringStudy("ocean", CFG, dict(OCEAN_KW))
        cluster = study.cluster_sweep(None, (1, 2))
        assert set(cluster) == {1, 2}
        assert cluster[2].cluster_size == 2
        capacity = study.capacity_sweep((1, None), (1, 2))
        assert set(capacity) == {(1, 1), (1, 2), (None, 1), (None, 2)}
        assert capacity[(1, 2)].cache_kb == 1


class TestForkBackend:
    """Pool workers (forked wherever that is the default start method)
    map their traces from the shared TraceStore themselves."""

    def test_fork_matches_serial(self, tmp_path):
        from repro.core.resultcache import TraceStore
        from repro.sim.compiled import clear_memory_cache

        specs = [RunRequest.make("ocean", c, None, OCEAN_KW)
                 for c in (1, 2)]
        store = TraceStore(tmp_path)
        clear_memory_cache()
        serial = SweepExecutor(trace_store=store)
        want = [o.result.to_json() for o in serial.run(specs, CFG)]

        clear_memory_cache()
        with SweepExecutor(jobs=2, trace_store=store) as executor:
            outcomes = executor.run(specs, CFG)
        raise_failures(outcomes)
        assert [o.result.to_json() for o in outcomes] == want
