"""Streaming traces: the mmappable format, streamed replay, byte budget.

The contract of the out-of-core trace layer is that *where the columns
live is unobservable*: a program packed from a capture, decoded eagerly
from ``RPROTRC4`` bytes, or memory-mapped and streamed column by column
must replay to byte-identical results.  These tests pin that contract,
the corruption-degrades-to-miss behaviour the cache relies on (a blob in
a retired ``RPROTRC1``-``3`` format is a silent miss, a damaged one a
miss with a warning), and the byte-budget LRU accounting that makes
mapped traces ~free to keep resident.
"""

import array
import json
import mmap
import os
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MachineConfig
from repro.core.resultcache import TraceStore
from repro.memory.coherence import CoherentMemorySystem
from repro.runtime import RunRequest, RunSession
from repro.sim import compiled
from repro.sim.compiled import (CompiledProgram, TraceCache,
                                TraceDecodeError, clear_memory_cache, decode,
                                trace_cache_info, trace_key)
from repro.sim.engine import Engine
from repro.sim.program import OP_READ, OP_TASK, OP_WORK, OP_WRITE

from refmodel import words
from test_compiled import TINY_SIZES, capture
from test_native_properties import needs_kernel

#: what one trace word holds: any opcode field, any 61-bit operand
OPCODE = st.integers(0, 7)
OPERAND = st.integers(-(2 ** 60), 2 ** 60 - 1)


def make_program(columns, line_size=32):
    """A CompiledProgram over explicit per-processor (ops, args) columns."""
    total = sum(len(c[0]) for c in columns)
    return CompiledProgram([words(*c) for c in columns], line_size,
                           source_ops=total)


def _pairs(program):
    """Per processor, its ``(ops, args)`` as two int64 arrays."""
    return [tuple(array.array("q", col) for col in zip(*decode(w)))
            or (array.array("q"), array.array("q"))
            for w in program.words]


def v1_bytes(program):
    """An RPROTRC1 blob, as the removed v1 writer produced it.

    Native byte order, zlib-compressed payload, no ``payload_offset``;
    the library has neither a writer nor a reader for it any more.
    """
    pairs = _pairs(program)
    payload = b"".join(col.tobytes() for pair in pairs for col in pair)
    header = json.dumps({
        "n_processors": program.n_processors,
        "line_size": program.line_size,
        "source_ops": program.source_ops,
        "counts": [len(o) for o, _ in pairs],
        "itemsize": 8,
        "byteorder": sys.byteorder,
        "crc32": zlib.crc32(payload),
    }, sort_keys=True).encode("utf-8")
    return (b"RPROTRC1" + len(header).to_bytes(4, "little") + header
            + zlib.compress(payload, 1))


def make_task_program(line_size=32):
    """Two processors that drain one queue of two 2-op tasks."""
    return CompiledProgram(
        [words([OP_TASK, OP_WORK], [0, 4]), words([OP_TASK], [0])],
        line_size, source_ops=5,
        tasks=(words([OP_READ, OP_WORK, OP_WRITE, OP_WORK], [7, 3, 9, 2]),
               [[2, 2]]))


#: the program of ops ``[[1, 2], [0]]``, args ``[[3, 4], [5]]``, line size
#: 32 and 3 source ops, as the last RPROTRC2 writer (the commit before
#: ``TASK``) encoded it: no ``tasks`` in the header
V2_BLOB = (
    b'RPROTRC2\xae\x00\x00\x00{"byteorder": "little", "counts": [2, 1], '
    b'"crc32": 2721637634, "fused_work": false, "itemsize": 8, '
    b'"line_size": 32, "n_processors": 2, "payload_offset": 192, '
    b'"source_ops": 3}\x00\x00\x00\x00\x00\x00'
    + b"".join(v.to_bytes(8, "little") for v in (1, 2, 3, 4, 0, 5)))


def v2_bytes(program):
    """A well-formed blob of an RPROTRC2 writer (whatever the program)."""
    return V2_BLOB


def v3_bytes(program):
    """An RPROTRC3 blob, as the last two-column writer laid it out: per
    processor an ``ops`` then an ``args`` section, then the task table's
    ``task_ops`` and ``task_args``, behind the same header keys."""
    sections = [col for pair in _pairs(program) for col in pair]
    sections += [array.array("q", col) for col in
                 zip(*decode(program.task_words))] or [array.array("q")] * 2
    payload = b"".join(col.tobytes() for col in sections)
    header = {"n_processors": program.n_processors,
              "line_size": program.line_size,
              "source_ops": program.source_ops,
              "counts": [len(w) for w in program.words],
              "tasks": program.task_lens, "itemsize": 8,
              "byteorder": sys.byteorder, "crc32": zlib.crc32(payload),
              "payload_offset": 0}
    while True:
        text = json.dumps(header, sort_keys=True).encode("utf-8")
        offset = (12 + len(text) + 7) & ~7
        if offset == header["payload_offset"]:
            break
        header["payload_offset"] = offset
    head = b"RPROTRC3" + len(text).to_bytes(4, "little") + text
    return head + bytes(offset - len(head)) + payload


#: what each retired writer made; the store takes these for a miss
RETIRED = (v1_bytes, v2_bytes, v3_bytes)


def columns_of(program):
    """Fully boxed (ops, args) per processor, whatever the backing."""
    return [([op for op, _ in decode(w)], [arg for _, arg in decode(w)])
            for w in program.words]


@st.composite
def column_sets(draw):
    n_proc = draw(st.integers(1, 4))
    cols = []
    for _ in range(n_proc):
        n = draw(st.integers(0, 40))
        cols.append((draw(st.lists(OPCODE, min_size=n, max_size=n)),
                     draw(st.lists(OPERAND, min_size=n, max_size=n))))
    return cols


class TestFormatRoundTrip:
    """Encode/decode equivalence of the mmappable format, eager and mapped."""

    @given(columns=column_sets())
    @settings(max_examples=40, deadline=None)
    def test_v2_round_trip(self, columns):
        program = make_program(columns)
        decoded = CompiledProgram.from_bytes(program.buffer)
        assert columns_of(decoded) == columns
        assert decoded.n_processors == program.n_processors
        assert decoded.line_size == program.line_size
        assert decoded.source_ops == program.source_ops
        assert not decoded.mapped

    @given(columns=column_sets())
    @settings(max_examples=60, deadline=None)
    def test_any_op_round_trips_through_streams(self, columns):
        """Any opcode field with any operand in [-2**60, 2**60) is what
        the python replay pulls back out, eager or decoded from bytes."""
        program = make_program(columns)
        for twin in (program, CompiledProgram.from_bytes(program.buffer)):
            pulled = [list(iter(nxt, None)) for nxt in twin.streams()]
            assert pulled == [list(zip(*c)) for c in columns]

    @given(columns=column_sets())
    @settings(max_examples=20, deadline=None)
    def test_mapped_file_decode_equal(self, columns, tmp_path_factory):
        program = make_program(columns)
        path = tmp_path_factory.mktemp("blob") / "t.trace"
        path.write_bytes(program.buffer)
        mapped = CompiledProgram.from_file(path)
        assert mapped.mapped
        assert columns_of(mapped) == columns

    def test_v2_blob_is_uncompressed_and_aligned(self):
        program = make_program([([1, 2, 3], [4, -5, 6])])
        blob = bytes(program.buffer)
        assert blob[:8] == b"RPROTRC4"
        # payload: 3 words (arg << 3 | opcode) in host-order int64 at an
        # 8-aligned offset (a static program's task section is empty)
        assert blob.endswith(array.array("q", [33, -38, 51]).tobytes())
        assert (len(blob) - 3 * 8) % 8 == 0

    def test_task_table_round_trips(self, tmp_path):
        """The task table travels inside the blob, eager and mapped, and
        a replay cannot tell which backing it came from."""
        cfg = MachineConfig(n_processors=2, cluster_size=1)
        program = make_task_program(cfg.line_size)
        blob = bytes(program.buffer)
        path = tmp_path / "t.trace"
        path.write_bytes(blob)
        results = set()
        for twin in (program, CompiledProgram.from_bytes(blob),
                     CompiledProgram.from_file(path)):
            assert columns_of(twin) == columns_of(program)
            assert (list(decode(twin.task_words)), twin.task_lens) == (
                [(OP_READ, 7), (OP_WORK, 3), (OP_WRITE, 9), (OP_WORK, 2)],
                [[2, 2]])
            assert bytes(twin.buffer) == blob
            # 3 frame ops of which 2 dispatch, 4 task ops; one word each
            assert (twin.total_ops, twin.nbytes) == (5, 7 * 8)
            results.add(Engine(cfg, CoherentMemorySystem(cfg))
                        .run_compiled(twin).to_json())
        assert twin.mapped and len(results) == 1

    def test_mapped_replay_matches_materialised(self, tmp_path):
        """A mapped trace streams through the python engine to the same
        result as its in-memory twin (10,000 ops on one processor)."""
        n = 10_000
        ops = [OP_READ if i % 3 else OP_WRITE for i in range(n)]
        args = [(i * 7) % 611 for i in range(n)]
        cfg = MachineConfig(n_processors=2, cluster_size=1,
                            cache_kb_per_processor=4.0)
        twin = make_program([(ops, args), ([OP_WORK], [5])], cfg.line_size)
        path = tmp_path / "t.trace"
        path.write_bytes(twin.buffer)
        mapped = CompiledProgram.from_file(path)
        assert mapped.mapped and mapped.total_ops == n + 1
        results = {Engine(cfg, CoherentMemorySystem(cfg))
                   .run_compiled(program).to_json()
                   for program in (twin, mapped)}
        assert len(results) == 1


class TestCorruption:
    """Damaged blobs degrade to cache misses, never wrong results."""

    def _store_with_blob(self, tmp_path, blob):
        store = TraceStore(tmp_path)
        store.put_bytes("deadbeef", blob)
        return store

    @pytest.mark.parametrize("mutilate", [
        lambda b: b[: len(b) // 2],          # truncated payload
        lambda b: b[:11],                    # truncated header
        lambda b: b"RPROTRC9" + b[8:],       # wrong magic
        lambda b: b + b"\0" * 8,             # trailing garbage
        lambda b: b"",                       # empty file
    ])
    def test_mapped_corruption_is_a_miss_with_warning(self, tmp_path,
                                                      mutilate):
        good = bytes(make_program([([1, 2], [3, 4])]).buffer)
        store = self._store_with_blob(tmp_path, mutilate(good))
        cache = TraceCache(store)
        with pytest.warns(UserWarning, match="corrupt compiled trace"):
            assert cache.get("deadbeef") is None
        assert cache.misses == 1

    @pytest.mark.parametrize("damage", [
        {"tasks": [[2, 10 ** 6]]},           # a task overruns the blob
        {"tasks": [[-2, 6]]},                # ... or starts before its queue
        {"tasks": [[2, 2], [8]]},            # a queue the payload lacks
        {"tasks": [[2.0, 2.0]]},             # lengths that are not ints
        {"tasks": [4]},                      # not a table at all
        {"tasks": None},
        {"payload_offset": 16},              # sections overlap the header
        {"payload_offset": 10 ** 9},
        {"counts": [1, -1], "tasks": [[3, 3]]},
        # written on a host of the other byte order: the payload is in
        # the writer's order, so it is refused, not swapped
        {"byteorder": "big" if sys.byteorder == "little" else "little"},
        {"itemsize": 4},
    ])
    def test_hostile_task_table_is_a_miss_never_a_sigbus(self, tmp_path,
                                                         damage):
        """``from_file`` checks every section the header promises against
        the mapping before slicing it: a header that lies is a decode
        error, hence a cache miss with the usual warning."""
        blob = bytes(make_task_program().buffer)
        hlen = int.from_bytes(blob[8:12], "little")
        header = json.loads(blob[12:12 + hlen])
        payload = blob[header["payload_offset"]:]
        head = json.dumps({**header, **damage}, sort_keys=True).encode()
        head += b" " * (-(12 + len(head)) % 8)   # keep the payload aligned
        if "payload_offset" not in damage:
            head = head.replace(
                b'"payload_offset": %d' % header["payload_offset"],
                b'"payload_offset": %d' % (12 + len(head)))
        bad = blob[:8] + len(head).to_bytes(4, "little") + head + payload

        path = tmp_path / "t.trace"
        path.write_bytes(bad)
        with pytest.raises(TraceDecodeError):
            CompiledProgram.from_file(path)
        with pytest.raises(TraceDecodeError):
            CompiledProgram.from_bytes(bad)
        cache = TraceCache(self._store_with_blob(tmp_path, bad))
        with pytest.warns(UserWarning, match="corrupt compiled trace"):
            assert cache.get("deadbeef") is None

    def test_every_truncation_fails_structurally(self, tmp_path):
        blob = bytes(make_program([([0, 1, 2], [7, 8, 9])]).buffer)
        path = tmp_path / "t.trace"
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises((TraceDecodeError, OSError)):
                CompiledProgram.from_file(path)

    def test_flipped_payload_bit_caught_eagerly(self):
        blob = bytearray(make_program([([1, 2], [3, 4])]).buffer)
        blob[-1] ^= 0x40
        # the eager decoder reads every byte, so the CRC must catch it
        with pytest.raises(TraceDecodeError):
            CompiledProgram.from_bytes(bytes(blob))

    @pytest.mark.parametrize("plant", [
        v1_bytes,                            # retired RPROTRC1 format
        v2_bytes,                            # retired RPROTRC2 format
        v3_bytes,                            # retired RPROTRC3 format
        lambda p: bytes(p.buffer)[:-8],      # truncated payload
    ])
    def test_bad_blob_in_store_recaptures(self, tmp_path, plant):
        """A recapture, the same bytes out, and the file overwritten in
        today's format.  A damaged blob is a store hit that warns once; a
        retired format's is stale, not corrupt: a silent store miss."""
        cfg = MachineConfig(n_processors=4, cluster_size=2,
                            cache_kb_per_processor=4)
        spec = RunRequest.make("lu", 2, 4.0, dict(TINY_SIZES["lu"]))
        store = TraceStore(tmp_path)
        clear_memory_cache()
        want = RunSession(cfg, TraceCache(store)).run(spec).to_json()
        (path,) = store.directory.glob("*.trace")
        path.write_bytes(plant(CompiledProgram.from_bytes(path.read_bytes())))

        clear_memory_cache()
        store.hits = store.misses = 0
        cache = TraceCache(store)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = RunSession(cfg, cache).run(spec)
        retired = plant in RETIRED
        assert [str(w.message).split(" ")[:3] for w in caught] == (
            [] if retired else [["discarding", "corrupt", "compiled"]])
        assert (store.hits, store.misses) == ((0, 1) if retired else (1, 0))
        assert cache.misses == 1 and cache.disk_hits == 0
        assert got.to_json() == want
        assert path.read_bytes()[:8] == b"RPROTRC4"
        clear_memory_cache()


class TestReplayIdentity:
    """Mapped replay is byte-identical to in-memory, all nine apps."""

    @pytest.mark.parametrize("name", sorted(TINY_SIZES))
    def test_mapped_vs_materialized(self, name, tmp_path):
        cfg = MachineConfig(n_processors=4, cluster_size=2,
                            cache_kb_per_processor=4)
        spec = RunRequest.make(name, 2, 4.0, dict(TINY_SIZES[name]))
        store = TraceStore(tmp_path)

        # the capture pass replays the freshly packed, in-memory program
        clear_memory_cache()
        materialized = RunSession(cfg, TraceCache(store)).run(spec)
        assert trace_cache_info()["mapped_entries"] == 0

        clear_memory_cache()
        cache = TraceCache(store)
        mapped = RunSession(cfg, cache).run(spec)
        assert cache.disk_hits == 1  # really served from the stored blob
        assert trace_cache_info()["mapped_entries"] == 1

        assert mapped.to_json() == materialized.to_json()
        clear_memory_cache()

    def test_capture_pass_equals_mapped_disk_pass(self, tmp_path):
        """The first (capture) pass and a later mapped pass agree."""
        cfg = MachineConfig(n_processors=4, cluster_size=2)
        spec = RunRequest.make("lu", 2, None, dict(TINY_SIZES["lu"]))
        store = TraceStore(tmp_path)
        clear_memory_cache()
        first = RunSession(cfg, TraceCache(store)).run(spec)
        clear_memory_cache()
        second = RunSession(cfg, TraceCache(store)).run(spec)
        assert first.to_json() == second.to_json()
        clear_memory_cache()


class TestByteBudget:
    """The in-memory LRU charges resident bytes, not entries."""

    def _programs(self, cfg, names=("lu", "fft")):
        return {n: capture(n, cfg) for n in names}

    def test_materialized_bytes_counted_and_evicted(self, cfg4,
                                                    monkeypatch):
        programs = self._programs(cfg4)
        nbytes = {n: p.resident_nbytes for n, p in programs.items()}
        assert all(v > 0 for v in nbytes.values())
        # a budget that fits exactly one of the two programs
        budget = max(nbytes.values())
        monkeypatch.setattr(compiled, "_LRU_BYTES", budget)
        clear_memory_cache()
        cache = TraceCache()
        for name, program in programs.items():
            cache.put(trace_key(name, TINY_SIZES[name], cfg4, 12345),
                      program)
        info = trace_cache_info()
        assert info["entries"] == 1  # the first program was evicted
        assert info["budget_bytes"] == budget >= info["resident_bytes"]
        clear_memory_cache()

    def test_overbudget_single_entry_survives(self, cfg4, monkeypatch):
        monkeypatch.setattr(compiled, "_LRU_BYTES", 1)
        clear_memory_cache()
        cache = TraceCache()
        program = capture("lu", cfg4)
        cache.put(trace_key("lu", TINY_SIZES["lu"], cfg4, 12345), program)
        # eviction never empties the cache below one live entry
        assert trace_cache_info()["entries"] == 1
        clear_memory_cache()

    def test_mapped_entry_is_nearly_free(self, cfg4, tmp_path):
        program = capture("lu", cfg4)
        store = TraceStore(tmp_path)
        key = trace_key("lu", TINY_SIZES["lu"], cfg4, 12345)
        store.put_bytes(key, program.buffer)
        clear_memory_cache()
        cache = TraceCache(store)
        mapped = cache.get(key)
        assert mapped is not None and mapped.mapped
        info = trace_cache_info()
        assert info["mapped_entries"] == 1
        assert info["resident_bytes"] < 64 * 1024
        assert info["payload_bytes"] >= program.resident_nbytes
        clear_memory_cache()

    def test_legacy_entry_count_knob_is_ignored(self, cfg4, monkeypatch):
        """Neither retired knob, the entry count or the byte budget's
        environment override, reaches the LRU."""
        monkeypatch.setenv("REPRO_TRACE_LRU", "1")
        monkeypatch.setenv("REPRO_TRACE_LRU_BYTES", "1")
        clear_memory_cache()
        cache = TraceCache()
        programs = self._programs(cfg4)
        for name, program in programs.items():
            cache.put(trace_key(name, TINY_SIZES[name], cfg4, 12345),
                      program)
        assert trace_cache_info()["entries"] == len(programs) > 1
        clear_memory_cache()


#: 400 distinct stored traces loaded, and dropped, by a process allowed
#: 256 file descriptors; argv[1] is the store root.  Each mapping holds a
#: descriptor for as long as the LRU holds its program.
_FD_CHILD = """
import resource, sys, warnings
from array import array
from repro.core.config import MachineConfig
from repro.core.resultcache import ResultCache, TraceStore
from repro.sim.compiled import CompiledProgram, TraceCache
from repro.sim.engine import Engine, PerfectMemory
from repro.sim.program import Work

resource.setrlimit(resource.RLIMIT_NOFILE,
                   (256, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
store = TraceStore(sys.argv[1])
keys = [f"{k:064x}" for k in range(400)]
for k, key in enumerate(keys):
    store.put_bytes(key, CompiledProgram(
        [array("q", [k << 3])], 32, source_ops=1).buffer)  # WORK k
config = MachineConfig(n_processors=1, cluster_size=1)
result = Engine(config, PerfectMemory()).run(lambda pid: [Work(1)])
cache = TraceCache(store)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    loaded = sum(cache.get(key) is not None for key in keys)
results = ResultCache(sys.argv[1])
results.put("point", result)
landed = results.get("point")
print(loaded, len(caught), store.misses,
      landed is not None and landed.to_json() == result.to_json())
"""


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX rlimits")
def test_mapped_traces_never_exhaust_file_descriptors(tmp_path):
    """Far more stored traces than descriptors: every load maps (a store
    hit, so nothing would be recaptured or rewritten), none is taken for
    corrupt, and the process can still write a result afterwards."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", _FD_CHILD, str(tmp_path)],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["400", "0", "0", "True"]


def test_an_unmappable_trace_is_a_plain_store_miss(tmp_path, monkeypatch):
    """An ``OSError`` from ``mmap`` (out of descriptors, say) says nothing
    about the blob: a store miss, with no corruption warning."""
    store = TraceStore(tmp_path)
    store.put_bytes("deadbeef", make_program([([1, 2], [3, 4])]).buffer)

    def refuse(*args, **kwargs):
        raise OSError(24, "Too many open files")

    monkeypatch.setattr(mmap, "mmap", refuse)
    cache = TraceCache(store)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cache.get("deadbeef") is None
    assert (store.misses, store.hits, cache.misses) == (1, 0, 1)


#: one paper-scale point against a trace store, in a process of its own
#: (``ru_maxrss`` is a process-lifetime high-water mark); argv[1] is the
#: store root.  The first run captures, every later run maps the blob.
_LU512_CHILD = """
import json, resource, sys
from repro.core.config import MachineConfig
from repro.core.resultcache import TraceStore
from repro.runtime import RunRequest, RunSession
from repro.sim.compiled import TraceCache

cache = TraceCache(TraceStore(sys.argv[1]))
spec = RunRequest.make("lu", 4, 4.0, {"n": 512, "block": 16})
result = RunSession(MachineConfig(n_processors=64), cache).run(spec)
print(json.dumps({
    "result": result.to_json(), "disk_hits": cache.disk_hits,
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


@pytest.mark.medium
class TestPaperScale:
    """Paper-scale smoke: the workload the streaming layer exists for."""

    @pytest.mark.parametrize("native", [
        "0", pytest.param("1", marks=needs_kernel)], ids=["python", "native"])
    def test_lu_512_mapped_replay_bounded_rss(self, tmp_path, native):
        """512x512 LU is captured and replays through the mapping, each
        under a firm RSS lid, on either replay path (the native one is
        what ``benchmarks/e2e``'s ``lu512_paper`` measures)."""
        env = os.environ.copy()
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        env["REPRO_NATIVE"] = native

        def child():
            proc = subprocess.run(
                [sys.executable, "-c", _LU512_CHILD, str(tmp_path)],
                capture_output=True, text=True, env=env, check=True)
            return json.loads(proc.stdout)

        captured = child()
        assert captured["disk_hits"] == 0
        blob = next(Path(tmp_path, "traces").glob("*.trace"))
        # genuinely paper-scale, at one int64 word per op (~23 MB)
        assert 20e6 < blob.stat().st_size < 24e6
        # the capturing child holds the drained words and the one buffer
        # they are packed into, which the store writes as it is: ~88 MB
        # measured on either path (it was ~142 MB at two words per op)
        assert captured["maxrss_kb"] < 100 * 1024

        mapped = child()
        assert mapped["disk_hits"] == 1
        assert mapped["result"] == captured["result"]
        # the mapped child never boxes the whole trace: firm absolute
        # ceiling (the trace alone is ~23 MB; boxing it costs hundreds)
        assert mapped["maxrss_kb"] < 250 * 1024


def test_module_hygiene():
    """No test above leaks LRU state into the rest of the suite."""
    clear_memory_cache()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert trace_cache_info()["entries"] == 0
