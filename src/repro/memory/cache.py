"""Cluster caches: fully associative LRU (the paper's model) and a
set-associative variant (the paper's stated future work on destructive
interference under limited associativity).

Paper §3.1: *"the caches that are simulated are fully associative caches with
an LRU replacement policy ... we do not want to include the effect of
conflict misses that are due to limited associativity."*

A cache holds *lines* (line numbers, not byte addresses).  Each resident line
carries

* a coherence state — ``SHARED`` or ``EXCLUSIVE`` (absence is INVALID), and
* a ``pending_until`` timestamp: the simulated time at which an outstanding
  fill for the line returns.  A read that finds the line pending is the
  paper's **merge miss** and stalls until that time.

State layout — slab columns, not per-line objects
-------------------------------------------------
Per-line metadata lives in preallocated flat **columns** indexed by a slot
number::

    slot_of : dict line -> slot          (residency + LRU order)
    state   : array('q')  per-slot coherence state (SHARED/EXCLUSIVE)
    pending : list[int]   per-slot fill-return timestamp ("pending until")
    fetcher : list[int]   per-slot fetching processor (-1 once the
                          prefetch benefit has been counted)
    tag     : array('q')  per-slot line number (reverse map / debugging)
    free    : list[int]   recycled slot numbers

The two values read on *every hit* — the pending timestamp and the fetcher
id — live in **plain lists indexed directly by the slot**, for two reasons.
Plain list, because a list load returns the stored int object where an
``array('q')`` read would materialise a fresh int per probe (timestamps
exceed the small-int cache).  Direct slot indexing, because any index
arithmetic (a stride-2 ``2*s`` / ``2*s + 1`` encoding was tried) allocates
an int object per probe for slots past the small-int range — measurably
slower on hit-heavy streams than touching two parallel columns.  The
state/tag columns keep the machine-word ``array('q')`` layout (their values
are small or read only on misses).

Nothing is allocated per access: a hit is one dict probe (plus the LRU
touch), a miss reuses the victim's slot or pops the free list, and an
invalidation pushes the slot back.  The columns are machine-word arrays, so
a 64-cluster simulation's cache state is a handful of flat buffers instead
of tens of thousands of heap objects — cheaper to touch and invisible to
the garbage collector's cycle detector.

LRU comes from the *slot index dict*, not from the columns: CPython dicts
iterate in insertion order, so deleting + reinserting a line's slot mapping
on every touch makes the first key the least recently used.  This gives
O(1) lookup, touch and eviction with no auxiliary list and — crucially —
the exact same victim sequence as the previous per-line-object
implementation (the contract for bit-identical simulation results).

Infinite caches (``capacity_lines is None``) never evict; the paper uses them
to isolate cold and coherence misses.  Their columns grow geometrically and
are extended **in place** so references bound before growth stay valid.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

__all__ = [
    "SHARED",
    "EXCLUSIVE",
    "Eviction",
    "FullyAssociativeCache",
    "SetAssociativeCache",
    "fully_associative",
    "make_cache",
]

#: Coherence state: line readable, possibly cached by other clusters too.
SHARED = 1
#: Coherence state: line writable, this cluster is the sole owner.
EXCLUSIVE = 2

_STATE_NAMES = {SHARED: "SHARED", EXCLUSIVE: "EXCLUSIVE"}

#: initial column length for caches that start empty (infinite caches)
_INITIAL_SLOTS = 1024


class Eviction(NamedTuple):
    """A line pushed out of the cache; the protocol layer notifies the
    directory (replacement hint for SHARED, writeback for EXCLUSIVE).

    A named tuple rather than a frozen dataclass: one is allocated per
    eviction on the miss path, and tuple construction is C-level while a
    frozen dataclass pays two ``object.__setattr__`` calls.
    """

    line: int
    state: int


class FullyAssociativeCache:
    """Fully associative LRU cache over whole lines, slab-allocated.

    Parameters
    ----------
    capacity_lines:
        Number of lines the cache holds, or ``None`` for an infinite cache.

    The per-line columns (``state``/``meta``/``tag``) and the ``slot_of``
    index are public on purpose: the coherence layer binds them once per
    cluster and runs its hot path as plain dict/array operations.  All
    invariants (slot lifecycle, LRU order) are maintained by the methods
    here; external writers must only mutate *values* of live slots, never
    the slot lifecycle itself.
    """

    __slots__ = ("capacity_lines", "slot_of", "state", "pending", "fetcher",
                 "tag", "free", "evictions", "inserts")

    def __init__(self, capacity_lines: int | None) -> None:
        if capacity_lines is not None and capacity_lines <= 0:
            raise ValueError(
                f"capacity_lines must be positive or None, got {capacity_lines}"
            )
        self.capacity_lines = capacity_lines
        #: line -> slot; dict order is LRU order (finite caches only)
        self.slot_of: dict[int, int] = {}
        n = capacity_lines if capacity_lines is not None else 0
        zeros = bytes(8 * n)
        self.state = array("q", zeros)
        self.pending = [0] * n
        self.fetcher = [-1] * n
        self.tag = array("q", zeros)
        #: recycled slots, popped LIFO (finite caches are preallocated)
        self.free: list[int] = list(range(n - 1, -1, -1))
        #: lifetime counters, used by tests and the working-set profiler
        self.evictions = 0
        self.inserts = 0

    def _grow(self) -> int:
        """Extend all columns in place; returns a fresh slot.

        Every column is extended **in place** (``frombytes``/``extend``
        mutate the existing buffers), so column references bound by the
        coherence kernel before growth remain valid.
        """
        n = len(self.state)
        add = n if n else _INITIAL_SLOTS
        zeros = bytes(8 * add)
        self.state.frombytes(zeros)
        self.pending.extend([0] * add)
        self.fetcher.extend([-1] * add)
        self.tag.frombytes(zeros)
        free = self.free
        free.extend(range(n + add - 1, n, -1))
        return n

    # ------------------------------------------------------------------ hot
    def lookup(self, line: int) -> int:
        """Slot of ``line`` (refreshing its LRU position) or ``-1``."""
        slot = self.slot_of.get(line, -1)
        if slot >= 0 and self.capacity_lines is not None:
            # Move to MRU position: delete + reinsert keeps dict order = LRU.
            del self.slot_of[line]
            self.slot_of[line] = slot
        return slot

    def peek(self, line: int) -> int:
        """Slot of ``line`` without touching LRU order, or ``-1``."""
        return self.slot_of.get(line, -1)

    def insert(self, line: int, state: int, pending_until: int = 0,
               fetcher: int = -1) -> Eviction | None:
        """Install ``line``; return the victim eviction if one was needed.

        The line being inserted must not already be resident (the protocol
        layer upgrades in place via the slot returned by :meth:`lookup`
        instead of re-inserting).  An evicted victim's slot is reused
        directly for the incoming line — no free-list round trip.
        """
        slot_of = self.slot_of
        if line in slot_of:
            raise ValueError(f"line {line:#x} already resident")
        victim: Eviction | None = None
        cap = self.capacity_lines
        if cap is not None and len(slot_of) >= cap:
            victim_line = next(iter(slot_of))
            slot = slot_of.pop(victim_line)
            victim = Eviction(victim_line, self.state[slot])
            self.evictions += 1
        else:
            free = self.free
            slot = free.pop() if free else self._grow()
        self.state[slot] = state
        self.pending[slot] = pending_until
        self.fetcher[slot] = fetcher
        self.tag[slot] = line
        slot_of[line] = slot
        self.inserts += 1
        return victim

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` (even if pending).  True if it was resident."""
        slot = self.slot_of.pop(line, -1)
        if slot < 0:
            return False
        self.free.append(slot)
        return True

    def downgrade(self, line: int) -> None:
        """EXCLUSIVE → SHARED in place (remote read to a dirty line)."""
        slot = self.slot_of.get(line, -1)
        if slot < 0:
            raise KeyError(f"line {line:#x} not resident; cannot downgrade")
        self.state[slot] = SHARED

    # ---------------------------------------------------------------- query
    def __len__(self) -> int:
        return len(self.slot_of)

    def __contains__(self, line: int) -> bool:
        return line in self.slot_of

    @property
    def is_infinite(self) -> bool:
        """Whether this cache never evicts."""
        return self.capacity_lines is None

    def state_of(self, line: int) -> int | None:
        """Coherence state of ``line`` or ``None`` if absent (no LRU touch)."""
        slot = self.slot_of.get(line, -1)
        return None if slot < 0 else self.state[slot]

    def pending_until_of(self, line: int) -> int | None:
        """Fill-return time of ``line`` or ``None`` if absent (no LRU touch)."""
        slot = self.slot_of.get(line, -1)
        return None if slot < 0 else self.pending[slot]

    def fetcher_of(self, line: int) -> int | None:
        """Fetching processor of ``line`` or ``None`` if absent."""
        slot = self.slot_of.get(line, -1)
        return None if slot < 0 else self.fetcher[slot]

    def resident_lines(self) -> list[int]:
        """All resident line numbers.

        For a *finite* cache the order is LRU → MRU (dict order is LRU
        order; see the module docstring).  An infinite cache never reorders
        on touch — :meth:`lookup` skips the delete/reinsert because no
        eviction can ever consult the order — so there the order is simply
        insertion order.
        """
        return list(self.slot_of)


class SetAssociativeCache:
    """Set-associative LRU cache (extension E-X1: destructive interference).

    The paper's §7 names "the destructive interference due to limited
    associativity" as follow-on work; this class lets the same protocol
    engine run with realistic associativity.  Sets are indexed by
    ``line % n_sets``; set ``i`` owns the slot range
    ``[i * associativity, (i + 1) * associativity)`` of one shared slab, and
    each set's LRU order is its index dict's insertion order (exactly as in
    the fully associative cache).

    The public surface mirrors :class:`FullyAssociativeCache` so the
    coherence engine is agnostic to which is plugged in.
    """

    __slots__ = ("capacity_lines", "associativity", "n_sets", "slot_of",
                 "state", "pending", "fetcher", "tag", "_set_free",
                 "evictions", "inserts")

    def __init__(self, capacity_lines: int, associativity: int) -> None:
        if capacity_lines <= 0:
            raise ValueError("capacity_lines must be positive")
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        if capacity_lines % associativity != 0:
            raise ValueError(
                f"capacity {capacity_lines} not divisible by "
                f"associativity {associativity}"
            )
        self.capacity_lines = capacity_lines
        self.associativity = associativity
        self.n_sets = capacity_lines // associativity
        zeros = bytes(8 * capacity_lines)
        self.state = array("q", zeros)
        self.pending = [0] * capacity_lines
        self.fetcher = [-1] * capacity_lines
        self.tag = array("q", zeros)
        #: per-set line -> slot index dicts; dict order is the set's LRU order
        self.slot_of: list[dict[int, int]] = [dict() for _ in range(self.n_sets)]
        self._set_free: list[list[int]] = [
            list(range((i + 1) * associativity - 1, i * associativity - 1, -1))
            for i in range(self.n_sets)]
        self.evictions = 0
        self.inserts = 0

    def lookup(self, line: int) -> int:
        s = self.slot_of[line % self.n_sets]
        slot = s.get(line, -1)
        if slot >= 0:
            del s[line]
            s[line] = slot
        return slot

    def peek(self, line: int) -> int:
        return self.slot_of[line % self.n_sets].get(line, -1)

    def insert(self, line: int, state: int, pending_until: int = 0,
               fetcher: int = -1) -> Eviction | None:
        idx = line % self.n_sets
        s = self.slot_of[idx]
        if line in s:
            raise ValueError(f"line {line:#x} already resident")
        victim: Eviction | None = None
        if len(s) >= self.associativity:
            victim_line = next(iter(s))
            slot = s.pop(victim_line)
            victim = Eviction(victim_line, self.state[slot])
            self.evictions += 1
        else:
            slot = self._set_free[idx].pop()
        self.state[slot] = state
        self.pending[slot] = pending_until
        self.fetcher[slot] = fetcher
        self.tag[slot] = line
        s[line] = slot
        self.inserts += 1
        return victim

    def invalidate(self, line: int) -> bool:
        idx = line % self.n_sets
        slot = self.slot_of[idx].pop(line, -1)
        if slot < 0:
            return False
        self._set_free[idx].append(slot)
        return True

    def downgrade(self, line: int) -> None:
        slot = self.slot_of[line % self.n_sets].get(line, -1)
        if slot < 0:
            raise KeyError(f"line {line:#x} not resident; cannot downgrade")
        self.state[slot] = SHARED

    def __len__(self) -> int:
        return sum(len(s) for s in self.slot_of)

    def __contains__(self, line: int) -> bool:
        return line in self.slot_of[line % self.n_sets]

    @property
    def is_infinite(self) -> bool:
        return False

    def state_of(self, line: int) -> int | None:
        slot = self.slot_of[line % self.n_sets].get(line, -1)
        return None if slot < 0 else self.state[slot]

    def pending_until_of(self, line: int) -> int | None:
        slot = self.slot_of[line % self.n_sets].get(line, -1)
        return None if slot < 0 else self.pending[slot]

    def fetcher_of(self, line: int) -> int | None:
        slot = self.slot_of[line % self.n_sets].get(line, -1)
        return None if slot < 0 else self.fetcher[slot]

    def resident_lines(self) -> list[int]:
        """All resident line numbers, set by set.

        The order is **set-concatenation order** — set 0's lines (LRU →
        MRU within the set), then set 1's, and so on — *not* a global LRU
        ordering: sets age independently, so no global recency order
        exists.
        """
        out: list[int] = []
        for s in self.slot_of:
            out.extend(s)
        return out


def fully_associative(capacity_lines: int | None,
                      associativity: int | None) -> bool:
    """Whether this geometry is one fully associative set.

    ``associativity=None`` (the paper's setting) is; so is an infinite
    cache, and so are ways that cover the whole capacity.
    """
    return (associativity is None or capacity_lines is None
            or associativity >= capacity_lines)


def make_cache(capacity_lines: int | None, associativity: int | None = None):
    """Build the cache the configuration asks for: fully associative
    where :func:`fully_associative` says so, else the set-associative
    extension."""
    if fully_associative(capacity_lines, associativity):
        return FullyAssociativeCache(capacity_lines)
    return SetAssociativeCache(capacity_lines, associativity)
