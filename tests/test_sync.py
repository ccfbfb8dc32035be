"""Unit tests for barriers, locks, and the sync registry."""

import pytest

from repro.sim.sync import BarrierState, LockState, SyncRegistry


class TestBarrier:
    def test_fills_then_releases(self):
        b = BarrierState(3)
        assert b.arrive(0, now=10) is None
        assert b.arrive(1, now=20) is None
        releases = b.arrive(2, now=50)
        assert dict(releases) == {0: 40, 1: 30, 2: 0}

    def test_reusable(self):
        b = BarrierState(2)
        b.arrive(0, 0)
        b.arrive(1, 5)
        assert b.arrive(0, 10) is None
        releases = b.arrive(1, 12)
        assert dict(releases) == {0: 2, 1: 0}

    def test_single_participant_trivial(self):
        b = BarrierState(1)
        assert b.arrive(0, 7) == [(0, 0)]

    def test_n_waiting(self):
        b = BarrierState(3)
        b.arrive(0, 0)
        assert b.n_waiting == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BarrierState(0)


class TestLock:
    def test_uncontended_acquire(self):
        lk = LockState()
        assert lk.acquire(0, 0) is True
        assert lk.holder == 0

    def test_contended_queueing_fifo(self):
        lk = LockState()
        lk.acquire(0, 0)
        assert lk.acquire(1, 5) is False
        assert lk.acquire(2, 7) is False
        pid, wait = lk.release(0, 20)
        assert (pid, wait) == (1, 15)
        pid, wait = lk.release(1, 30)
        assert (pid, wait) == (2, 23)
        assert lk.release(2, 40) is None
        assert lk.holder is None

    def test_reacquire_while_held_raises(self):
        lk = LockState()
        lk.acquire(0, 0)
        with pytest.raises(RuntimeError):
            lk.acquire(0, 5)

    def test_release_by_non_holder_raises(self):
        lk = LockState()
        lk.acquire(0, 0)
        with pytest.raises(RuntimeError):
            lk.release(1, 5)


class TestRegistry:
    def test_lazily_creates(self):
        reg = SyncRegistry(4)
        b = reg.barrier(7)
        assert b.n_participants == 4
        assert reg.barrier(7) is b
        lk = reg.lock(3)
        assert reg.lock(3) is lk

    def test_idle_check_clean(self):
        reg = SyncRegistry(2)
        assert reg.idle_check() is None

    def test_idle_check_reports_stuck_barrier(self):
        reg = SyncRegistry(2)
        reg.barrier(0).arrive(0, 0)
        msg = reg.idle_check()
        assert msg is not None and "barrier 0" in msg

    def test_idle_check_reports_stuck_lock(self):
        reg = SyncRegistry(2)
        reg.lock(4).acquire(0, 0)
        reg.lock(4).acquire(1, 0)
        msg = reg.idle_check()
        assert msg is not None and "lock 4" in msg
