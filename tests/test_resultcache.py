"""Correctness of the persistent result cache.

The dangerous failure modes of a memoizing harness are (a) serving a stale
result for a configuration that actually changed and (b) crashing on a
damaged cache file.  These tests pin the key's sensitivity to *every*
simulation input and the corrupt-entry-is-a-miss contract.
"""

import json
import sys
import threading

import pytest

from repro.core.config import MachineConfig, NetworkConfig
from repro.core.executor import SweepExecutor
from repro.core.metrics import (MissCause, MissCounters, RunResult,
                                TimeBreakdown)
from repro.core import resultcache
from repro.core.resultcache import (ENV_CACHE_DIR, ResultCache,
                                    default_cache_dir, point_key)
from repro.runtime import RunRequest

CFG = MachineConfig(n_processors=8)
OCEAN_KW = {"n": 16, "n_vcycles": 1}


def tiny_result() -> RunResult:
    counters = MissCounters(reads=6, writes=4,
                            read_misses=1, write_misses=1)
    counters.by_cause[MissCause.COLD] += 2
    return RunResult(execution_time=123,
                     breakdown=TimeBreakdown(100, 20, 2, 1),
                     per_processor=[TimeBreakdown(100, 20, 2, 1)],
                     misses=counters,
                     per_cluster_misses=[counters])


def _edited(text: str, edit) -> str:
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload)


#: ways an entry can be damaged on disk; every one must read as a miss
DAMAGE = {
    "empty": lambda text: "",
    "truncated": lambda text: text[: len(text) // 2],
    "garbage": lambda text: "definitely not json {",
    "wrong-shape": lambda text: json.dumps({"wrong": "shape"}),
    "bad-values": lambda text: json.dumps(
        {"result": {"execution_time": "NaNsense"}}),
    "bad-value": lambda text: _edited(
        text, lambda p: p.update(execution_time="NaNsense")),
    "bool-component": lambda text: _edited(
        text, lambda p: p["per_processor"][0].update(cpu=True)),
    "unknown-cause": lambda text: _edited(
        text, lambda p: p["misses"]["by_cause"].update(warp=1)),
    "inconsistent-hits": lambda text: _edited(
        text, lambda p: p["misses"].update(hits=p["misses"]["hits"] + 1)),
}

#: valid entries in another spelling than the canonical text; each one
#: is a hit, served (as text) re-encoded
SPELLINGS = {
    "indented": lambda text: json.dumps(json.loads(text), indent=2),
    "trailing-newline": lambda text: text + "\n",
    "reordered-spaced": lambda text: json.dumps(
        dict(reversed(json.loads(text).items()))),
}


# ------------------------------------------------------------------- keys


class TestKeySensitivity:
    def test_stable_for_identical_inputs(self):
        assert point_key("ocean", OCEAN_KW, CFG) == \
            point_key("ocean", dict(OCEAN_KW), MachineConfig(n_processors=8))

    def test_app_name_changes_key(self):
        assert point_key("ocean", {}, CFG) != point_key("lu", {}, CFG)

    def test_app_kwarg_changes_key(self):
        assert point_key("ocean", {"n": 16}, CFG) != \
            point_key("ocean", {"n": 32}, CFG)
        assert point_key("ocean", {}, CFG) != \
            point_key("ocean", {"n": 16}, CFG)

    @pytest.mark.parametrize("variant", [
        MachineConfig(n_processors=16),
        MachineConfig(n_processors=8, cluster_size=2),
        MachineConfig(n_processors=8, cache_kb_per_processor=4),
        MachineConfig(n_processors=8, associativity=2),
        MachineConfig(n_processors=8, line_size=32),
        MachineConfig(n_processors=8, page_size=8192),
        MachineConfig(n_processors=8,
                      network=NetworkConfig(provider="mesh")),
        MachineConfig(n_processors=8,
                      network=NetworkConfig(directory_cycles=10)),
        MachineConfig(n_processors=8,
                      network=NetworkConfig(background_load=0.3)),
        MachineConfig(n_processors=8,
                      network=NetworkConfig(contention=False)),
        MachineConfig(n_processors=8, protocol="dls"),
    ], ids=["processors", "cluster", "cache", "assoc", "line", "page",
            "net-provider", "net-directory", "net-load", "net-contention",
            "protocol"])
    def test_every_config_field_changes_key(self, variant):
        """No MachineConfig field may be invisible to the cache key."""
        assert point_key("ocean", {}, CFG) != point_key("ocean", {}, variant)

    def test_version_changes_key(self, monkeypatch):
        key = point_key("ocean", {}, CFG)
        monkeypatch.setattr("repro._version.__version__", "0.0.0-other")
        assert point_key("ocean", {}, CFG) != key

    def test_kwarg_order_does_not_change_key(self):
        assert point_key("ocean", {"a": 1, "b": 2}, CFG) == \
            point_key("ocean", {"b": 2, "a": 1}, CFG)


# -------------------------------------------------------------- directory


class TestDirectoryResolution:
    def test_env_var_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        assert ResultCache().directory == tmp_path / "custom"

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
        assert default_cache_dir().name == "repro-clustering"

    def test_explicit_argument_wins_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "env"))
        cache = ResultCache(tmp_path / "arg")
        assert cache.directory == tmp_path / "arg"


# ----------------------------------------------------------------- get/put


class TestGetPut:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = tiny_result()
        key = point_key("ocean", OCEAN_KW, CFG)
        assert cache.get(key) is None  # cold
        cache.put(key, result)
        assert key in cache
        assert cache.get(key) == result
        assert (cache.hits, cache.misses) == (1, 1)

    def test_missing_directory_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(tmp_path / "never" / "created")
        assert cache.get("0" * 64) is None
        assert cache.misses == 1

    @pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE)
    def test_corrupt_entry_is_miss_then_rewritten(self, tmp_path, damage):
        cache = ResultCache(tmp_path)
        result = tiny_result()
        key = point_key("ocean", OCEAN_KW, CFG)
        cache.put(key, result)
        path = cache.path_for(key)
        path.write_text(damage(path.read_text()))
        assert cache.get(key) is None           # corrupt → miss, no raise
        cache.put(key, result)                   # harness re-runs + rewrites
        assert cache.get(key) == result

    @pytest.mark.parametrize("spell", SPELLINGS.values(), ids=SPELLINGS)
    def test_entry_in_another_spelling_is_served_canonical(
            self, tmp_path, spell):
        cache = ResultCache(tmp_path)
        key = "k" * 64
        cache.put(key, tiny_result())
        path = cache.path_for(key)
        path.write_text(spell(path.read_text()))
        assert path.read_text() != tiny_result().to_json()
        assert cache.get_text(key) == tiny_result().to_json()
        assert cache.get_text(key) == tiny_result().to_json()   # hot
        assert (cache.hits, cache.hot_hits, cache.misses) == (2, 1, 0)
        assert cache.hot_info()["bytes"] == len(tiny_result().to_json())

    def test_get_admits_nothing_to_the_hot_tier(self, tmp_path,
                                                monkeypatch):
        """The CLI's read decodes and pays no encode."""
        cache = ResultCache(tmp_path)
        cache.put("k" * 64, tiny_result())
        calls = []
        to_json = RunResult.to_json
        monkeypatch.setattr(RunResult, "to_json", lambda self, *a, **k: (
            calls.append(1), to_json(self, *a, **k))[1])
        assert cache.get("k" * 64) == cache.get("k" * 64) == tiny_result()
        assert calls == []
        assert cache.hot_info() == {"entries": 0, "bytes": 0, "hits": 0}

    def test_entry_is_the_canonical_text(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k" * 64, tiny_result())
        assert cache.path_for("k" * 64).read_text() == \
            tiny_result().to_json()

    def test_old_envelope_entry_is_a_miss_then_rewritten(self, tmp_path):
        """An entry in the old ``{"key", "result"}`` format is not read:
        the point is recomputed once and stored as its canonical text."""
        request = RunRequest.make("ocean", 2, 4.0, OCEAN_KW)
        executor = SweepExecutor(cache=ResultCache(tmp_path))
        key = executor.key(request, CFG)
        result = executor.run([request], CFG)[0].result
        path = executor.cache.path_for(key)
        path.write_text(json.dumps({"key": key, "result": result.to_dict()},
                                   sort_keys=True))
        cache = ResultCache(tmp_path)
        assert cache.get(key) is None and cache.misses == 1
        outcome = SweepExecutor(cache=cache).run([request], CFG)[0]
        assert not outcome.cached and outcome.result == result
        assert path.read_text() == result.to_json()
        assert cache.get(key) == result

    def test_hot_tier_evicts_least_recently_used_at_its_budget(
            self, tmp_path, monkeypatch):
        size = len(tiny_result().to_json())
        monkeypatch.setattr(resultcache, "_HOT_BYTES", 2 * size + size // 2)
        cache = ResultCache(tmp_path)
        keys = [f"{i}" * 64 for i in range(3)]
        for key in keys:
            cache.put(key, tiny_result())
        for key in keys[:2]:
            cache.get_text(key)        # disk reads: both admitted
        cache.get_text(keys[0])        # hot: keys[0] is now the newest
        cache.get_text(keys[2])        # admitted: keys[1] goes
        assert cache.hot_info() == {"entries": 2, "bytes": 2 * size,
                                    "hits": 1}
        cache.get_text(keys[0])
        cache.get_text(keys[2])
        assert cache.hot_hits == 3
        cache.get_text(keys[1])        # from disk again
        assert cache.hot_hits == 3 and cache.hits == 7
        assert cache.hot_bytes <= resultcache._HOT_BYTES

    def test_hot_tier_admits_nothing_past_its_budget(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(resultcache, "_HOT_BYTES", 10)
        cache = ResultCache(tmp_path)
        cache.put("k" * 64, tiny_result())
        assert cache.get_text("k" * 64) == cache.get_text("k" * 64) == \
            tiny_result().to_json()
        assert cache.hot_info() == {"entries": 0, "bytes": 0, "hits": 0}

    def test_put_drops_the_hot_copy_and_clear_empties_the_tier(
            self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k" * 64, tiny_result())
        assert cache.get_text("k" * 64) == tiny_result().to_json()
        changed = tiny_result()
        changed.execution_time = 456
        cache.put("k" * 64, changed)
        assert cache.hot_info()["entries"] == 0
        assert cache.get("k" * 64) == changed
        assert cache.clear() == 1
        assert cache.hot_info() == {"entries": 0, "bytes": 0, "hits": 0}
        assert cache.get_text("k" * 64) is None

    def test_put_is_atomic_no_tmp_litter(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k" * 64, tiny_result())
        assert [p.suffix for p in tmp_path.iterdir()] == [".json"]

    def test_two_writers_racing_one_key_never_tear_it(self, tmp_path):
        """``--jobs`` workers and the daemon can finish the same point at
        once: a reader must see one writer's whole entry or none — never
        a blend — and the race leaves one file behind."""
        first, second = tiny_result(), tiny_result()
        second.execution_time = 456
        valid = {first.to_json(), second.to_json()}
        assert len(valid) == 2
        key = "r" * 64
        failures = []

        def hammer(seed):
            cache = ResultCache(tmp_path)   # one per writer, as processes have
            mine = second if seed % 2 else first
            try:
                for _ in range(500):
                    cache.put(key, mine)
                    # after its own put a writer can never miss: the
                    # entry is replaced whole, not rewritten in place
                    got = cache.get(key)
                    if got is None or got.to_json() not in valid:
                        failures.append(got and got.to_json())
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=hammer, args=(seed,))
                   for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]
        assert ResultCache(tmp_path).get(key).to_json() in valid

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(f"key{i}", tiny_result())
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_put_swallows_unwritable_storage(self, tmp_path, monkeypatch):
        # can't rely on chmod (tests may run as root) — fail the temp file
        import tempfile

        def denied(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(tempfile, "mkstemp", denied)
        cache = ResultCache(tmp_path)
        cache.put("x" * 64, tiny_result())  # must not raise
        assert cache.get("x" * 64) is None


# ------------------------------------------------------- executor coupling


class TestExecutorCoupling:
    def test_hits_skip_simulation(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache)
        specs = [RunRequest.make("ocean", c, None, OCEAN_KW)
                 for c in (1, 2)]
        first = executor.run(specs, CFG)
        assert [o.cached for o in first] == [False, False]
        second = executor.run(specs, CFG)
        assert [o.cached for o in second] == [True, True]
        assert cache.stats() == "2 hits, 2 misses"

    def test_no_cache_executor_never_touches_disk(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "cachedir"))
        executor = SweepExecutor(cache=None)
        executor.run([RunRequest.make("ocean", 1, None, OCEAN_KW)], CFG)
        executor.run([RunRequest.make("ocean", 1, None, OCEAN_KW)], CFG)
        assert not (tmp_path / "cachedir").exists()

    @pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE)
    def test_entry_damaged_before_its_first_read_is_recomputed(
            self, tmp_path, damage):
        """A damaged entry is never served, as text or as a result: the
        point is evaluated again and its entry rewritten."""
        request = RunRequest.make("ocean", 2, 4.0, OCEAN_KW)
        executor = SweepExecutor(cache=ResultCache(tmp_path))
        key = executor.key(request, CFG)
        text = executor.run([request], CFG)[0].result.to_json()
        path = executor.cache.path_for(key)
        path.write_text(damage(path.read_text()))

        fresh = SweepExecutor(cache=ResultCache(tmp_path))
        assert fresh.cached_text(key) is None
        assert fresh.cached(key) is None
        outcome = fresh.run([request], CFG)[0]
        assert not outcome.cached and outcome.result.to_json() == text
        assert path.read_text() == text
        assert fresh.cached_text(key) == text
        assert fresh.cache.hot_info()["entries"] == 1

    def test_failed_points_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache)
        executor.run([RunRequest.make("notanapp", 1, None, {})], CFG)
        assert len(cache) == 0
        again = executor.run([RunRequest.make("notanapp", 1, None, {})], CFG)
        assert not again[0].ok and not again[0].cached

    def test_interrupted_sweep_keeps_finished_points(self, tmp_path):
        """Results are written as each point completes, so Ctrl-C late in
        a grid loses only the point that was running."""
        from repro.runtime import RunObserver

        class InterruptOnSecond(RunObserver):
            seen = 0

            def on_result(self, plan, result):
                self.seen += 1
                if self.seen == 2:
                    raise KeyboardInterrupt

        specs = [RunRequest.make("ocean", c, None, OCEAN_KW)
                 for c in (1, 2, 4)]
        executor = SweepExecutor(cache=ResultCache(tmp_path),
                                 observer=InterruptOnSecond())
        with pytest.raises(KeyboardInterrupt):
            executor.run(specs, CFG)
        fresh = SweepExecutor(cache=ResultCache(tmp_path))
        assert fresh.run([specs[0]], CFG)[0].cached
        assert not fresh.run([specs[1]], CFG)[0].cached

    def test_different_base_config_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache)
        spec = RunRequest.make("ocean", 1, None, OCEAN_KW)
        executor.run([spec], CFG)
        executor.run([spec], MachineConfig(n_processors=4))
        assert cache.hits == 0 and cache.misses == 2
        assert len(cache) == 2


# -------------------------------------------------------------------- CLI


class TestCLIFlags:
    def run_cli(self, *argv):
        from repro import cli
        return cli.main(list(argv))

    BASE = ("--processors", "8", "--cluster-sizes", "1,2")
    RUN = ("fig2", "--apps", "ocean")

    @pytest.fixture(autouse=True)
    def tiny_quick(self, monkeypatch):
        from repro import cli
        monkeypatch.setattr(
            cli, "QUICK_PROBLEM_SIZES", {"ocean": dict(OCEAN_KW)})

    def test_second_invocation_hits(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "c"))
        assert self.run_cli(*self.BASE, "--quick", *self.RUN) == 0
        err = capsys.readouterr().err
        assert "0 hits, 2 misses" in err
        assert self.run_cli(*self.BASE, "--quick", *self.RUN) == 0
        assert "2 hits, 0 misses" in capsys.readouterr().err

    def test_no_cache_flag_bypasses_reads_and_writes(self, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "c"))
        assert self.run_cli(*self.BASE, "--quick", "--no-cache",
                            *self.RUN) == 0
        captured = capsys.readouterr()
        assert "result cache" not in captured.err
        assert not (tmp_path / "c").exists()

    def test_cache_dir_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "env"))
        assert self.run_cli(*self.BASE, "--quick", "--cache-dir",
                            str(tmp_path / "flag"), *self.RUN) == 0
        assert (tmp_path / "flag").exists()
        assert not (tmp_path / "env").exists()

    def test_jobs_flag_parallel_output_matches_serial(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "a"))
        assert self.run_cli(*self.BASE, "--quick", *self.RUN) == 0
        serial = capsys.readouterr().out
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "b"))
        assert self.run_cli(*self.BASE, "--quick", "--jobs", "2",
                            *self.RUN) == 0
        parallel = capsys.readouterr().out

        def strip_timing(text):
            return [ln for ln in text.splitlines()
                    if not ln.startswith("[")]

        assert strip_timing(serial) == strip_timing(parallel)

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            self.run_cli("--jobs", "0", "fig2", "--apps", "ocean")
