"""What a replay of a capture pays for: the placement half of set-up,
kernel arguments built once per program.

* :meth:`Application.place` alone binds every page a full set-up binds,
  to the same home, and leaves the same next first-touch home — for every
  app, cluster size and line size;
* :meth:`PageAllocator.place_chunks` places what one ``place_range`` per
  chunk, in order, places;
* a trace hit through :meth:`RunSession.run`, from memory or from disk,
  never builds the input problem, and a capture builds it once;
* replaying one :class:`CompiledProgram` again and again builds its
  kernel arguments once, with the results of a fresh program.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.native as native
import repro.native.driver as driver
from repro.apps.base import Application
from repro.apps.registry import (APP_NAMES, QUICK_PROBLEM_SIZES, app_class,
                                 build_app)
from repro.core.config import MachineConfig
from repro.core.resultcache import TraceStore
from repro.memory.allocation import PageAllocator
from repro.runtime import RunRequest, RunSession
from repro.sim.compiled import CompiledProgram, TraceCache, clear_memory_cache

try:
    _LIB = native.kernel()  # auto mode: None when no compiler/artifact
except RuntimeError:  # forced on but unbuildable
    _LIB = None


def _placement(app) -> tuple:
    al = app.allocator
    return (dict(al.page_homes), al.next_home, al.placed_pages,
            [(r.name, r.base, r.size) for r in app.space.regions()])


@pytest.mark.parametrize("line_size", [16, 64])
@pytest.mark.parametrize("cluster_size", [1, 2, 4, 8])
@pytest.mark.parametrize("name", APP_NAMES)
def test_the_placement_half_places_what_full_setup_places(
        name, cluster_size, line_size):
    config = MachineConfig(cluster_size=cluster_size, line_size=line_size)
    placed = build_app(name, config, **QUICK_PROBLEM_SIZES[name])
    placed.ensure_placed()
    full = build_app(name, config, **QUICK_PROBLEM_SIZES[name])
    full.ensure_setup()
    assert _placement(placed) == _placement(full)
    assert placed.allocator.page_homes  # every app places something
    # the problem half completes a placed app without placing again
    placed.ensure_setup()
    assert _placement(placed) == _placement(full)


def test_an_app_without_a_placement_half_is_refused_at_construction():
    class _NoPlace(Application):
        def program(self, pid):
            yield from ()

    with pytest.raises(TypeError, match="place"):
        _NoPlace(MachineConfig(n_processors=2))


@settings(max_examples=200, deadline=None)
@given(start=st.integers(0, 5000), n=st.integers(1, 12),
       chunk=st.integers(1, 700), tail=st.integers(0, 699),
       bound=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 3)),
                      max_size=6),
       data=st.data())
def test_place_chunks_is_one_place_range_per_chunk(start, n, chunk, tail,
                                                   bound, data):
    clusters = data.draw(st.lists(st.integers(0, 3), min_size=n,
                                  max_size=n))
    end = start + n * chunk + tail
    one, each = PageAllocator(4, 256, 16), PageAllocator(4, 256, 16)
    for al in (one, each):
        for page, home in bound:  # bound before the placement
            al.place_range(page * 256, 1, home)
    one.place_chunks(start, end, chunk, clusters)
    for k, cluster in enumerate(clusters):
        first = start + k * chunk
        each.place_range(first, (first + chunk if k < n - 1 else end)
                         - first, cluster)
    assert dict(one.page_homes) == dict(each.page_homes)
    assert one.placed_pages == each.placed_pages


# ------------------------------------------------------- the session

_SMALL = {"fft": {"n_points": 256}, "lu": {"n": 32, "block": 8}}
_CFG = MachineConfig(n_processors=8)


@pytest.mark.parametrize("name", sorted(_SMALL))
def test_a_trace_hit_never_builds_the_input_problem(name, tmp_path,
                                                    monkeypatch):
    cls = app_class(name)
    built = []
    real = cls.build_input
    monkeypatch.setattr(cls, "build_input",
                        lambda self: (built.append(self), real(self))[1])
    requests = [RunRequest.make(name, c, 4.0, _SMALL[name]) for c in (1, 2)]
    clear_memory_cache()
    session = RunSession(_CFG, TraceCache(TraceStore(tmp_path)))
    texts = [session.run(r).to_json() for r in requests]
    assert len(built) == 1  # the capture, for both points
    # the in-memory LRU, then the store, serve every later point
    again = [session.run(r).to_json() for r in requests]
    clear_memory_cache()
    cache = TraceCache(TraceStore(tmp_path))
    disk = [RunSession(_CFG, cache).run(r).to_json() for r in requests]
    assert cache.disk_hits == 1
    assert len(built) == 1
    assert texts == again == disk
    # and the bytes are those of a point that builds everything
    fresh = [RunSession(_CFG).run(r).to_json() for r in requests]
    assert len(built) == 3 and fresh == texts


# ------------------------------------------------------- kernel arguments

@pytest.mark.skipif(_LIB is None, reason="native kernel unavailable")
@pytest.mark.parametrize("name, kwargs", [
    ("fft", {"n_points": 256}),
    ("raytrace", {"width": 8, "height": 8, "n_spheres": 8})])
def test_a_program_builds_its_kernel_arguments_once(name, kwargs,
                                                    monkeypatch):
    built = []
    real = driver._program_args
    monkeypatch.setattr(driver, "_program_args",
                        lambda program: (built.append(program),
                                         real(program))[1])
    program = build_app(name, _CFG, **kwargs).compiled_program()
    assert (program.task_lens != []) == (name == "raytrace")
    runs = []
    for c in (1, 2, 8, 2):
        app = build_app(name, _CFG.with_clusters(c), **kwargs)
        result, kernel = app.replay(program)
        assert kernel == "native"
        runs.append(result.to_json())
    assert built == [program]
    # a fresh program over a copy of the blob: its own arguments, the
    # same numbers
    fresh = CompiledProgram.from_bytes(bytes(program.buffer))
    for c, text in zip((1, 2, 8), runs):
        app = build_app(name, _CFG.with_clusters(c), **kwargs)
        assert app.replay(fresh)[0].to_json() == text
    assert built == [program, fresh]
    assert len(set(runs[:3])) == 3 and runs[3] == runs[1]
