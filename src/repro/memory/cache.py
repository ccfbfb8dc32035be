"""The cluster cache: ``n_sets`` LRU sets of ``ways`` lines, one record each.

Paper §3.1: *"the caches that are simulated are fully associative caches with
an LRU replacement policy ... we do not want to include the effect of
conflict misses that are due to limited associativity."*  That is the
default geometry — **one set** holding the whole capacity — and the paper's
stated future work (§7, destructive interference under limited
associativity, our E-X1) is the same class with more, smaller sets.

A cache holds *lines* (line numbers, not byte addresses); a line maps to set
``line % n_sets``.  Each resident line has one :class:`Line` record, the
value of its set's dict, carrying

* a coherence ``state`` — ``SHARED`` or ``EXCLUSIVE`` (absence is INVALID),
* ``pending_until``: the simulated time at which an outstanding fill for the
  line returns.  A read that finds the line pending is the paper's **merge
  miss** and stalls until that time, and
* ``fetcher``: the processor whose miss brought the line in, ``-1`` once
  :meth:`Cache.probe_read` has counted the cluster prefetch hit it gave.

LRU is the set dict's insertion order: CPython dicts iterate in insertion
order, so deleting + reinserting a line on every touch makes the first key
the least recently used line of its set.  Lookup, touch and eviction are
O(1) with no auxiliary list, and this order is the victim order every
implementation must reproduce (``kernel.c`` keeps it as a recency list).
A full set hands its victim's record to the incoming line, so once a set
is full its misses allocate no records.

Infinite caches (``capacity_lines is None``, ``ways is None``) are one set
that never evicts; the paper uses them to isolate cold and coherence misses.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["SHARED", "EXCLUSIVE", "READ_HIT", "READ_MERGE", "READ_MISS",
           "Eviction", "Line", "Cache", "fully_associative"]

#: Coherence state: line readable, possibly cached by other clusters too.
SHARED = 1
#: Coherence state: line writable, this cluster is the sole owner.
EXCLUSIVE = 2

#: a back end's read() outcome tags (plain ints for speed on the hot path)
READ_HIT = 0
READ_MERGE = 1
READ_MISS = 2

#: the one preallocated hit result, the most common outcome of a
#: simulation: :meth:`Cache.probe_read` returns it and callers unpack it
_HIT = (READ_HIT, 0)


class Eviction(NamedTuple):
    """A line pushed out of the cache; the protocol layer notifies the
    directory (replacement hint for SHARED, writeback for EXCLUSIVE)."""

    line: int
    state: int


class Line:
    """One resident line's record (see the module docstring); only
    :meth:`Cache.insert` creates and fills one.  No ``__init__``: a call
    to it would be a python frame on every allocating miss."""

    __slots__ = ("state", "pending_until", "fetcher")


def fully_associative(capacity_lines: int | None,
                      associativity: int | None) -> bool:
    """Whether this geometry is one fully associative set: no
    associativity (the paper's setting), an infinite cache, or ways that
    cover the whole capacity."""
    return (associativity is None or capacity_lines is None
            or associativity >= capacity_lines)


class Cache:
    """LRU cache over whole lines: ``n_sets`` sets of ``ways`` lines.

    ``capacity_lines`` is the number of lines held (``None``: infinite);
    ``associativity`` the lines per set, which must divide the capacity
    unless the geometry is :func:`fully_associative` (one set).

    Only this class picks a set (``line % n_sets``) or touches LRU order.
    The protocol back ends probe a read through :meth:`probe_read`, which
    decides hit, merge or absent, and a write (or a DLS remote read)
    through :meth:`lookup`, writing ``state`` in place on an upgrade.
    Lines enter and leave a set only through
    :meth:`insert` and :meth:`invalidate`; a record from a lookup is not
    used after an insert into the same set, which may hand it to another
    line.
    """

    __slots__ = ("capacity_lines", "ways", "n_sets", "sets", "evictions",
                 "inserts")

    def __init__(self, capacity_lines: int | None,
                 associativity: int | None = None) -> None:
        if capacity_lines is not None and capacity_lines <= 0:
            raise ValueError(f"capacity_lines must be positive or None, "
                             f"got {capacity_lines}")
        if associativity is not None and associativity <= 0:
            raise ValueError("associativity must be positive")
        if fully_associative(capacity_lines, associativity):
            ways = capacity_lines
        elif capacity_lines % associativity != 0:
            raise ValueError(f"capacity {capacity_lines} not divisible by "
                             f"associativity {associativity}")
        else:
            ways = associativity
        self.capacity_lines = capacity_lines
        #: lines per set; ``None`` for the single set of an infinite cache
        self.ways = ways
        self.n_sets = capacity_lines // ways if ways else 1
        #: per-set line -> record; dict order is the set's LRU order
        self.sets: list[dict[int, Line]] = [{} for _ in range(self.n_sets)]
        #: lifetime counters, used by tests and the working-set profiler
        self.evictions = 0
        self.inserts = 0

    # ------------------------------------------------------------------ hot
    def probe_read(self, line: int, processor: int, now: int,
                   ctr) -> tuple[int, int] | None:
        """A read's probe, ``kernel.c``'s ``probe_read``: ``None`` for an
        absent line, else refresh its LRU position and return
        ``(READ_MERGE, stall)`` while its fill is pending (counting
        ``ctr.merges``) or the hit, counting ``ctr.prefetch_hits`` once
        if another processor fetched it."""
        lines = self.sets[line % self.n_sets]
        record = lines.get(line)
        if record is None:
            return None
        if self.ways is not None:
            del lines[line]  # delete + reinsert: dict order stays LRU order
            lines[line] = record
        pending_until = record.pending_until
        if pending_until > now:
            ctr.merges += 1
            return READ_MERGE, pending_until - now
        fetcher = record.fetcher
        if fetcher != -1 and fetcher != processor:
            ctr.prefetch_hits += 1
            record.fetcher = -1
        return _HIT

    def lookup(self, line: int) -> Line | None:
        """Record of ``line`` (refreshing its LRU position) or ``None``."""
        lines = self.sets[line % self.n_sets]
        record = lines.get(line)
        if record is not None and self.ways is not None:
            del lines[line]  # delete + reinsert: dict order stays LRU order
            lines[line] = record
        return record

    def peek(self, line: int) -> Line | None:
        """Record of ``line`` without touching LRU order, or ``None``."""
        return self.sets[line % self.n_sets].get(line)

    def insert(self, line: int, state: int, pending_until: int = 0,
               fetcher: int = -1) -> Eviction | None:
        """Install ``line``; return the victim eviction if one was needed.

        The line being inserted must not already be resident (the protocol
        layer upgrades in place through the record :meth:`lookup` returns
        instead of re-inserting).  A full set evicts its least recently
        used line, whose record is reused for the incoming line.
        """
        lines = self.sets[line % self.n_sets]
        if line in lines:
            raise ValueError(f"line {line:#x} already resident")
        ways = self.ways
        if ways is not None and len(lines) >= ways:
            victim_line = next(iter(lines))
            record = lines.pop(victim_line)
            victim = Eviction(victim_line, record.state)
            self.evictions += 1
        else:
            victim = None
            record = Line()
        record.state = state
        record.pending_until = pending_until
        record.fetcher = fetcher
        lines[line] = record
        self.inserts += 1
        return victim

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` (even if pending).  True if it was resident."""
        return self.sets[line % self.n_sets].pop(line, None) is not None

    def downgrade(self, line: int) -> None:
        """EXCLUSIVE → SHARED in place (remote read to a dirty line)."""
        record = self.peek(line)
        if record is None:
            raise KeyError(f"line {line:#x} not resident; cannot downgrade")
        record.state = SHARED

    # ---------------------------------------------------------------- query
    def __len__(self) -> int:
        return sum(map(len, self.sets))

    def __contains__(self, line: int) -> bool:
        return line in self.sets[line % self.n_sets]

    def state_of(self, line: int) -> int | None:
        """Coherence state of ``line`` or ``None`` if absent (no LRU touch)."""
        record = self.peek(line)
        return None if record is None else record.state

    def resident_lines(self) -> list[int]:
        """All resident line numbers, set by set: LRU → MRU within a
        finite set (sets age independently, so not a global recency
        order), insertion order in an infinite cache, which never touches."""
        return [line for lines in self.sets for line in lines]

    def check_sets(self, name: str = "cache") -> None:
        """Raise unless every set holds at most ``ways`` lines, each of
        them a line of that set (``line % n_sets``)."""
        for index, lines in enumerate(self.sets):
            if self.ways is not None and len(lines) > self.ways:
                raise AssertionError(
                    f"{name} set {index} holds {len(lines)} lines, over its "
                    f"{self.ways} ways")
            for line in lines:
                if line % self.n_sets != index:
                    raise AssertionError(f"{name} set {index} holds line "
                                         f"{line:#x} of another set")
