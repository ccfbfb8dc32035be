"""Full-bit-vector directory with replacement hints, over per-line records.

Paper §3.1: *"The directory is implemented as a full bit vector with
replacement hints."* and *"The directory supports three cache states for a
line, NOT CACHED, EXCLUSIVE, and SHARED."*

Physically the directory is distributed — each cluster holds the entries for
the lines whose home it is (the :class:`~repro.memory.allocation.PageAllocator`
decides homes).  Logically it is the ``mask``/``dir_state`` half of one map
from line number to :class:`LineRecord`; a miss finds the home in the same
record, so nothing is lost by the centralised representation.

Line records
------------
Everything the machine knows about a line *outside* the caches is one
``__slots__`` record, field for field ``kernel.c``'s ``Rec``::

    mask       bit c set  ⇔  cluster c shares the line
    dir_state  NOT_CACHED / DIR_SHARED / DIR_EXCLUSIVE
    lost_coh   bit i set  ⇔  cache i last lost the line to an invalidation
    lost_cap   bit i set  ⇔  cache i last lost the line to an eviction
    home       home cluster; -1 until a miss that goes to the home binds it

A memory system keeps one record per line ever missed on, in one dict
(``records``), and never deletes one.  A line is *in the directory* iff its
``mask`` is non-zero; a transition that empties the mask resets
``dir_state`` to NOT_CACHED.  Sharer bits count *clusters* (not processors):
in a shared-cache cluster the processors behind one cache are
indistinguishable to the directory, which is precisely the coherence
benefit of clustering.  The two history masks count *caches* — one per
cluster, or per processor under snoopy — and a loss sets the cache's bit in
one and clears it in the other, so the latest loss wins and neither bit
means the cache's next miss on the line is cold (:func:`miss_cause`).
DLS has no directory and leaves ``mask`` empty.
"""

from __future__ import annotations

from ..core.metrics import MissCause

__all__ = ["NOT_CACHED", "DIR_SHARED", "DIR_EXCLUSIVE", "LineRecord",
           "rec_at_miss", "miss_cause", "Directory"]

#: No cluster caches the line.
NOT_CACHED = 0
#: One or more clusters hold the line read-only.
DIR_SHARED = 1
#: Exactly one cluster owns the line with write permission.
DIR_EXCLUSIVE = 2

_COLD = MissCause.COLD
_CAPACITY = MissCause.CAPACITY
_COHERENCE = MissCause.COHERENCE


class LineRecord:
    """One line's record (see the module docstring); only
    :func:`rec_at_miss` creates one.  No ``__init__``, as for
    :class:`~repro.memory.cache.Line`: a call to it would be a python
    frame on every line's first miss."""

    __slots__ = ("mask", "dir_state", "lost_coh", "lost_cap", "home")


def rec_at_miss(records: dict[int, LineRecord], line: int) -> LineRecord:
    """``line``'s record in ``records``, ``kernel.c``'s ``rec_at_miss``:
    created at the line's first miss cached nowhere, cold in every cache
    and with its home not yet bound (``-1``)."""
    record = records.get(line)
    if record is None:
        record = records[line] = LineRecord()
        record.mask = record.dir_state = record.lost_coh = record.lost_cap = 0
        record.home = -1
    return record


def miss_cause(record: LineRecord, bit: int) -> MissCause:
    """Cause of a miss on ``record``'s line by the cache whose history bit
    is ``bit``: the cause of that cache's latest loss of it, or cold."""
    return (_COHERENCE if record.lost_coh & bit
            else _CAPACITY if record.lost_cap & bit else _COLD)


#: the record every line without one reads as (never stored, never written)
_ABSENT = rec_at_miss({}, -1)


class Directory:
    """The directory half of a record dict; NOT_CACHED unless ``mask != 0``.

    ``records`` is the memory system's line → :class:`LineRecord` dict (a
    directory built alone starts its own).  The five transitions take the
    line's record and are its only writers of ``mask`` and ``dir_state``;
    the line-keyed queries read them for inspection.
    Bookkeeping counters track protocol traffic that the analysis layer
    reports (invalidations sent, replacement hints received, writebacks).
    """

    __slots__ = ("n_clusters", "records", "invalidations_sent",
                 "replacement_hints", "writebacks")

    def __init__(self, n_clusters: int) -> None:
        if n_clusters <= 0:
            raise ValueError(f"n_clusters must be positive, got {n_clusters}")
        self.n_clusters = n_clusters
        self.records: dict[int, LineRecord] = {}
        self.invalidations_sent = 0
        self.replacement_hints = 0
        self.writebacks = 0

    def entry(self, line: int) -> LineRecord:
        """``line``'s record, created unbound at its first request."""
        return rec_at_miss(self.records, line)

    # -- line-keyed queries --------------------------------------------------
    def state_of(self, line: int) -> int:
        """Directory state of ``line`` (NOT_CACHED when nobody shares it)."""
        return self.records.get(line, _ABSENT).dir_state

    def sharer_mask(self, line: int) -> int:
        """Cluster bit-mask of sharers (bit ``c`` set ⇔ cluster ``c`` shares)."""
        return self.records.get(line, _ABSENT).mask

    def is_sharer(self, line: int, cluster: int) -> bool:
        return bool(self.sharer_mask(line) >> cluster & 1)

    def sharer_list(self, line: int) -> list[int]:
        """Cluster ids with their bit set, ascending."""
        mask = self.sharer_mask(line)
        return [c for c in range(mask.bit_length()) if mask >> c & 1]

    def owner_of(self, line: int) -> int:
        """Owning cluster; only meaningful when the state is DIR_EXCLUSIVE."""
        record = self.records.get(line, _ABSENT)
        if record.dir_state != DIR_EXCLUSIVE:
            raise ValueError("owner undefined unless directory state is EXCLUSIVE")
        return record.mask.bit_length() - 1

    # -- transitions driven by the protocol layer ---------------------------
    def record_read_fill(self, record: LineRecord, cluster: int) -> None:
        """A read fill completed: cluster now shares the line."""
        record.mask |= 1 << cluster
        record.dir_state = DIR_SHARED

    def record_exclusive(self, record: LineRecord, cluster: int) -> int:
        """Grant exclusive ownership of the line to ``cluster``.

        Returns the number of *other* clusters that had to be invalidated
        (the paper's invalidation count; invalidations are instantaneous).
        """
        bit = 1 << cluster
        n_inval = (record.mask & ~bit).bit_count()
        self.invalidations_sent += n_inval
        record.mask = bit
        record.dir_state = DIR_EXCLUSIVE
        return n_inval

    def replacement_hint(self, record: LineRecord, cluster: int) -> None:
        """A SHARED line was evicted from ``cluster``'s cache.

        The full-bit-vector-with-hints directory clears the sharer bit so it
        never sends a useless invalidation later.  If the last sharer
        leaves, the line is NOT_CACHED; a line nobody shares hears nothing.
        """
        if not record.mask:
            return
        record.mask &= ~(1 << cluster)
        self.replacement_hints += 1
        if not record.mask:
            record.dir_state = NOT_CACHED

    def writeback(self, record: LineRecord, cluster: int) -> None:
        """An EXCLUSIVE line was evicted: data returns home, line NOT_CACHED.

        Only the sole owner's eviction writes back.
        """
        if record.dir_state == DIR_EXCLUSIVE and record.mask == 1 << cluster:
            record.mask = 0
            record.dir_state = NOT_CACHED
            self.writebacks += 1

    def downgrade_owner(self, record: LineRecord, reader: int) -> None:
        """Remote read hit a dirty line: owner downgrades, reader joins.

        Resulting state is DIR_SHARED with {old owner, reader} as sharers.
        """
        if record.dir_state != DIR_EXCLUSIVE:
            raise ValueError("line not exclusive at directory")
        record.mask |= 1 << reader
        record.dir_state = DIR_SHARED

    # -- inspection ----------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise unless every record is NOT_CACHED exactly when its sharer
        mask is empty, and EXCLUSIVE only with one sharer, the owner."""
        for line, record in self.records.items():
            mask, state = record.mask, record.dir_state
            if ((state == NOT_CACHED) != (mask == 0) or state ==
                    DIR_EXCLUSIVE and mask & (mask - 1)):
                raise AssertionError(f"line {line:#x} is {state} at the "
                                     f"directory with sharers {mask:#x}")

    def __len__(self) -> int:
        return len(self.lines())

    def lines(self) -> list[int]:
        """All lines in the directory: every one has a sharer bit set."""
        return [line for line, record in self.records.items() if record.mask]
