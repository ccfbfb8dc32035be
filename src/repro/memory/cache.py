"""The cluster cache: ``n_sets`` LRU sets of ``ways`` lines over one slab.

Paper §3.1: *"the caches that are simulated are fully associative caches with
an LRU replacement policy ... we do not want to include the effect of
conflict misses that are due to limited associativity."*  That is the
default geometry — **one set** holding the whole capacity — and the paper's
stated future work (§7, destructive interference under limited
associativity, our E-X1) is the same class with more, smaller sets.

A cache holds *lines* (line numbers, not byte addresses).  Each resident line
carries

* a coherence state — ``SHARED`` or ``EXCLUSIVE`` (absence is INVALID), and
* a ``pending_until`` timestamp: the simulated time at which an outstanding
  fill for the line returns.  A read that finds the line pending is the
  paper's **merge miss** and stalls until that time.

State layout — slab columns, not per-line objects
-------------------------------------------------
Per-line metadata lives in preallocated flat **columns** indexed by a slot
number, shared by every set; a line maps to set ``line % n_sets``, and set
``i`` owns the slots ``[i * ways, (i + 1) * ways)``::

    sets[i] : dict line -> slot          (residency + LRU order of set i)
    free[i] : list[int]   recycled slot numbers of set i
    state   : array('q')  per-slot coherence state (SHARED/EXCLUSIVE)
    pending : list[int]   per-slot fill-return timestamp ("pending until")
    fetcher : list[int]   per-slot fetching processor (-1 once the
                          prefetch benefit has been counted)
    tag     : array('q')  per-slot line number (reverse map / debugging)

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
touch), a miss reuses the victim's slot or pops the set's free list, and an
invalidation pushes the slot back.  The columns are machine-word arrays, so
a 64-cluster simulation's cache state is a handful of flat buffers instead
of tens of thousands of heap objects — cheaper to touch and invisible to
the garbage collector's cycle detector.

LRU comes from the *set's index dict*, not from the columns: CPython dicts
iterate in insertion order, so deleting + reinserting a line's slot mapping
on every touch makes the first key the least recently used of its set.
This gives O(1) lookup, touch and eviction with no auxiliary list and —
crucially — the exact same victim sequence as the object-per-line oracle
in ``tests/refmodel.py`` (the contract for bit-identical simulation
results).

Infinite caches (``capacity_lines is None``, ``ways is None``) are one set
that never evicts; the paper uses them to isolate cold and coherence misses.
Their columns grow geometrically and are extended **in place** so references
bound before growth stay valid.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

__all__ = [
    "SHARED",
    "EXCLUSIVE",
    "Eviction",
    "Cache",
    "fully_associative",
]

#: Coherence state: line readable, possibly cached by other clusters too.
SHARED = 1
#: Coherence state: line writable, this cluster is the sole owner.
EXCLUSIVE = 2

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


def fully_associative(capacity_lines: int | None,
                      associativity: int | None) -> bool:
    """Whether this geometry is one fully associative set.

    ``associativity=None`` (the paper's setting) is; so is an infinite
    cache, and so are ways that cover the whole capacity.
    """
    return (associativity is None or capacity_lines is None
            or associativity >= capacity_lines)


class Cache:
    """LRU cache over whole lines: ``n_sets`` sets of ``ways`` lines.

    Parameters
    ----------
    capacity_lines:
        Number of lines the cache holds, or ``None`` for an infinite cache.
    associativity:
        Lines per set.  ``None`` (the paper's model), an infinite capacity,
        or ways covering the whole capacity give one fully associative set
        (:func:`fully_associative`); otherwise it must divide the capacity.

    The per-slot columns and the per-set ``sets`` dicts are public on
    purpose: the protocol back ends bind them once per cache as *kernel
    tuples* (:meth:`kernels`) and run their **hit** paths as plain
    dict/array operations.  The slot lifecycle — a slot leaves ``sets[i]``
    only into ``free[i]`` or straight to the line that evicted it — is
    kept by the methods here alone; the only external writers are those
    hit paths: the LRU touch (delete + reinsert of a resident line's own
    mapping), ``fetcher`` (the prefetch benefit is counted once) and
    ``state`` on a write hit.
    """

    __slots__ = ("capacity_lines", "ways", "n_sets", "sets", "free", "state",
                 "pending", "fetcher", "tag", "evictions", "inserts")

    def __init__(self, capacity_lines: int | None,
                 associativity: int | None = None) -> None:
        if capacity_lines is not None and capacity_lines <= 0:
            raise ValueError(
                f"capacity_lines must be positive or None, got {capacity_lines}"
            )
        if associativity is not None and associativity <= 0:
            raise ValueError("associativity must be positive")
        if fully_associative(capacity_lines, associativity):
            ways = capacity_lines
        elif capacity_lines % associativity != 0:
            raise ValueError(
                f"capacity {capacity_lines} not divisible by "
                f"associativity {associativity}"
            )
        else:
            ways = associativity
        self.capacity_lines = capacity_lines
        #: lines per set; ``None`` for the single set of an infinite cache
        self.ways = ways
        n = capacity_lines if capacity_lines is not None else 0
        self.n_sets = n // ways if ways else 1
        #: per-set line -> slot; dict order is the set's LRU order
        self.sets: list[dict[int, int]] = [{} for _ in range(self.n_sets)]
        #: per-set recycled slots, popped LIFO (finite caches are preallocated)
        self.free: list[list[int]] = [
            list(range((i + 1) * ways - 1, i * ways - 1, -1)) if ways else []
            for i in range(self.n_sets)]
        zeros = bytes(8 * n)
        self.state = array("q", zeros)
        self.pending = [0] * n
        self.fetcher = [-1] * n
        self.tag = array("q", zeros)
        #: lifetime counters, used by tests and the working-set profiler
        self.evictions = 0
        self.inserts = 0

    def kernels(self) -> list[tuple]:
        """One ``(slot_of, state, pending, fetcher)`` tuple per set: the
        set's index dict beside the shared columns a hit reads."""
        return [(slot_of, self.state, self.pending, self.fetcher)
                for slot_of in self.sets]

    def _grow(self) -> int:
        """Extend all columns in place; returns a fresh slot.

        Only the single set of an infinite cache ever runs out of free
        slots.  Every column is extended **in place** (``frombytes``/
        ``extend`` mutate the existing buffers), so column references bound
        through :meth:`kernels` before growth remain valid.
        """
        n = len(self.state)
        add = n if n else _INITIAL_SLOTS
        zeros = bytes(8 * add)
        self.state.frombytes(zeros)
        self.pending.extend([0] * add)
        self.fetcher.extend([-1] * add)
        self.tag.frombytes(zeros)
        self.free[0].extend(range(n + add - 1, n, -1))
        return n

    # ------------------------------------------------------------------ hot
    def lookup(self, line: int) -> int:
        """Slot of ``line`` (refreshing its LRU position) or ``-1``."""
        slot_of = self.sets[line % self.n_sets]
        slot = slot_of.get(line, -1)
        if slot >= 0 and self.ways is not None:
            # Move to MRU position: delete + reinsert keeps dict order = LRU.
            del slot_of[line]
            slot_of[line] = slot
        return slot

    def peek(self, line: int) -> int:
        """Slot of ``line`` without touching LRU order, or ``-1``."""
        return self.sets[line % self.n_sets].get(line, -1)

    def insert(self, line: int, state: int, pending_until: int = 0,
               fetcher: int = -1) -> Eviction | None:
        """Install ``line``; return the victim eviction if one was needed.

        The line being inserted must not already be resident (the protocol
        layer upgrades in place via the slot returned by :meth:`lookup`
        instead of re-inserting).  A full set evicts its least recently
        used line, whose slot is reused directly for the incoming line —
        no free-list round trip.
        """
        index = line % self.n_sets
        slot_of = self.sets[index]
        if line in slot_of:
            raise ValueError(f"line {line:#x} already resident")
        victim: Eviction | None = None
        ways = self.ways
        if ways is not None and len(slot_of) >= ways:
            victim_line = next(iter(slot_of))
            slot = slot_of.pop(victim_line)
            victim = Eviction(victim_line, self.state[slot])
            self.evictions += 1
        else:
            free = self.free[index]
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
        index = line % self.n_sets
        slot = self.sets[index].pop(line, -1)
        if slot < 0:
            return False
        self.free[index].append(slot)
        return True

    def downgrade(self, line: int) -> None:
        """EXCLUSIVE → SHARED in place (remote read to a dirty line)."""
        slot = self.peek(line)
        if slot < 0:
            raise KeyError(f"line {line:#x} not resident; cannot downgrade")
        self.state[slot] = SHARED

    # ---------------------------------------------------------------- query
    def __len__(self) -> int:
        return sum(map(len, self.sets))

    def __contains__(self, line: int) -> bool:
        return line in self.sets[line % self.n_sets]

    @property
    def is_infinite(self) -> bool:
        """Whether this cache never evicts."""
        return self.capacity_lines is None

    def state_of(self, line: int) -> int | None:
        """Coherence state of ``line`` or ``None`` if absent (no LRU touch)."""
        slot = self.peek(line)
        return None if slot < 0 else self.state[slot]

    def pending_until_of(self, line: int) -> int | None:
        """Fill-return time of ``line`` or ``None`` if absent (no LRU touch)."""
        slot = self.peek(line)
        return None if slot < 0 else self.pending[slot]

    def fetcher_of(self, line: int) -> int | None:
        """Fetching processor of ``line`` or ``None`` if absent."""
        slot = self.peek(line)
        return None if slot < 0 else self.fetcher[slot]

    def resident_lines(self) -> list[int]:
        """All resident line numbers, set by set.

        Within a *finite* set the order is LRU → MRU (dict order is LRU
        order; see the module docstring); sets age independently, so across
        sets this is concatenation order, not a global recency order.  An
        infinite cache never reorders on touch — no eviction can ever
        consult the order — so there it is simply insertion order.
        """
        return [line for slot_of in self.sets for line in slot_of]

    def check_slots(self, name: str = "cache") -> None:
        """Raise unless every set's slots balance: each slot of the set's
        range is mapped by exactly one resident line or on its free list
        (so no set can hold more than ``ways`` lines)."""
        per_set = len(self.state) // self.n_sets
        for index, (slot_of, free) in enumerate(zip(self.sets, self.free)):
            slots = sorted([*slot_of.values(), *free])
            if slots != list(range(index * per_set, (index + 1) * per_set)):
                raise AssertionError(
                    f"{name} set {index} slot leak: {len(slot_of)} mapped + "
                    f"{len(free)} free != its {per_set} slots")
