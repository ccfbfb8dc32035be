"""Synchronization primitives with wait-time accounting.

The paper's execution-time bars charge all barrier and lock waiting to a
distinct *sync* component; these objects do the bookkeeping.  Both are
driven by the engine — a processor that blocks is simply not rescheduled
until the primitive says when it may resume.

Barriers are sense-reversing in spirit: an instance is reusable, and a new
episode starts automatically after a release.  Locks are FIFO (ticket)
locks — the paper's applications use locks for task queues and histogram
cells where fairness keeps the simulation deterministic.
"""

from __future__ import annotations

from collections import deque

__all__ = ["BarrierState", "LockState", "SyncRegistry"]


class BarrierState:
    """One reusable global barrier.

    The engine calls :meth:`arrive`; when the last participant arrives the
    method returns the list of ``(processor, wait_cycles)`` releases and the
    barrier resets for its next episode.
    """

    __slots__ = ("n_participants", "_waiting")

    def __init__(self, n_participants: int) -> None:
        if n_participants <= 0:
            raise ValueError("n_participants must be positive")
        self.n_participants = n_participants
        self._waiting: list[tuple[int, int]] = []  # (processor, arrival time)

    def arrive(self, processor: int, now: int) -> list[tuple[int, int]] | None:
        """Register arrival; return releases if this arrival completes it.

        Returns ``None`` while the barrier is still filling.  On completion
        returns ``[(processor, wait), ...]`` for *every* participant
        (including the last arrival, with wait 0); all resume at ``now``.
        """
        self._waiting.append((processor, now))
        if len(self._waiting) < self.n_participants:
            return None
        releases = [(pid, now - arrived) for pid, arrived in self._waiting]
        self._waiting.clear()
        return releases

    @property
    def n_waiting(self) -> int:
        return len(self._waiting)


class LockState:
    """One FIFO lock."""

    __slots__ = ("holder", "_queue")

    def __init__(self) -> None:
        self.holder: int | None = None
        self._queue: deque[tuple[int, int]] = deque()  # (processor, arrival)

    def acquire(self, processor: int, now: int) -> bool:
        """Try to take the lock; True if acquired, False if queued."""
        if self.holder is None:
            self.holder = processor
            return True
        if self.holder == processor:
            raise RuntimeError(f"processor {processor} re-acquiring held lock")
        self._queue.append((processor, now))
        return False

    def release(self, processor: int, now: int) -> tuple[int, int] | None:
        """Release the lock; return ``(next_processor, wait)`` if one queued."""
        if self.holder != processor:
            raise RuntimeError(
                f"processor {processor} releasing lock held by {self.holder}")
        if self._queue:
            next_pid, arrived = self._queue.popleft()
            self.holder = next_pid
            return next_pid, now - arrived
        self.holder = None
        return None

    @property
    def n_waiting(self) -> int:
        return len(self._queue)


class SyncRegistry:
    """Lazily created barriers and locks, keyed by application-chosen ids.

    All barriers span all processors (the paper's applications use global
    barriers; subset barriers can be modelled with distinct work phases).
    """

    __slots__ = ("n_processors", "_barriers", "_locks")

    def __init__(self, n_processors: int) -> None:
        self.n_processors = n_processors
        self._barriers: dict[int, BarrierState] = {}
        self._locks: dict[int, LockState] = {}

    def barrier(self, barrier_id: int) -> BarrierState:
        b = self._barriers.get(barrier_id)
        if b is None:
            b = BarrierState(self.n_processors)
            self._barriers[barrier_id] = b
        return b

    def lock(self, lock_id: int) -> LockState:
        lk = self._locks.get(lock_id)
        if lk is None:
            lk = LockState()
            self._locks[lock_id] = lk
        return lk

    def idle_check(self) -> str | None:
        """Describe any primitive still holding blocked processors, if any.

        The engine calls this when the event queue drains; a non-``None``
        result means deadlock (e.g. mismatched barrier participation).
        """
        for bid, b in self._barriers.items():
            if b.n_waiting:
                return (f"barrier {bid} still holds {b.n_waiting} of "
                        f"{b.n_participants} processors")
        for lid, lk in self._locks.items():
            if lk.n_waiting:
                return f"lock {lid} still has {lk.n_waiting} waiters"
        return None
