"""Full-bit-vector directory with replacement hints, packed-int storage.

Paper §3.1: *"The directory is implemented as a full bit vector with
replacement hints."* and *"The directory supports three cache states for a
line, NOT CACHED, EXCLUSIVE, and SHARED."*

Physically the directory is distributed — each cluster holds the entries for
the lines whose home it is (the :class:`~repro.memory.allocation.PageAllocator`
decides homes).  Logically it is a single map from line number to a packed
entry; the protocol layer computes the home separately to assign network
latencies, so nothing is lost by the centralised representation.

Packed entry encoding
---------------------
One Python int per line holds the whole entry::

    packed = (sharer_mask << 2) | state        # state in the low 2 bits
    bit (cluster + 2)  set  ⇔  cluster shares the line

so the common transitions are single int operations: *add sharer* is
``packed | (4 << cluster) ...``, *sole-owner writeback eligibility* is the
one comparison ``packed == (4 << cluster) | DIR_EXCLUSIVE``, and the owner
of an EXCLUSIVE line is ``packed.bit_length() - 3``.  Sharer bits count
*clusters* (not processors): in a shared-cache cluster the processors
behind one cache are indistinguishable to the directory, which is precisely
the coherence benefit of clustering.

An **absent** table entry encodes NOT_CACHED with no sharers, and every
transition that empties the sharer mask deletes the entry (*pruning*).
Long runs therefore stop accumulating dead per-line state — the previous
implementation kept a ``DirEntry`` object forever for every line ever
cached, which both leaked memory on streaming access patterns and made
``lines()``/``len()`` over-report dead lines.
"""

from __future__ import annotations

__all__ = ["NOT_CACHED", "DIR_SHARED", "DIR_EXCLUSIVE", "SHARER_SHIFT",
           "Directory"]

#: No cluster caches the line.
NOT_CACHED = 0
#: One or more clusters hold the line read-only.
DIR_SHARED = 1
#: Exactly one cluster owns the line with write permission.
DIR_EXCLUSIVE = 2

#: bit position of cluster 0's sharer bit in a packed entry
SHARER_SHIFT = 2

_STATE_NAMES = {NOT_CACHED: "NOT_CACHED", DIR_SHARED: "SHARED",
                DIR_EXCLUSIVE: "EXCLUSIVE"}


class Directory:
    """Map from line number to packed entry int; absent means NOT_CACHED.

    The table (``packed``) is a plain ``dict[int, int]`` and is public on
    purpose: the coherence layer's miss path reads an entry once and
    decodes state, owner and sharers from the int.  Every transition —
    every write to the table — lives here, and nowhere else; bookkeeping
    counters track protocol traffic that the analysis layer reports
    (invalidations sent, replacement hints received, writebacks).
    """

    __slots__ = ("n_clusters", "packed", "invalidations_sent",
                 "replacement_hints", "writebacks")

    def __init__(self, n_clusters: int) -> None:
        if n_clusters <= 0:
            raise ValueError(f"n_clusters must be positive, got {n_clusters}")
        self.n_clusters = n_clusters
        #: line -> (sharer_mask << 2) | state; pruned when the mask empties
        self.packed: dict[int, int] = {}
        self.invalidations_sent = 0
        self.replacement_hints = 0
        self.writebacks = 0

    # -- accessors over the packed encoding ---------------------------------
    def state_of(self, line: int) -> int:
        """Directory state of ``line`` (NOT_CACHED when the entry is pruned)."""
        return self.packed.get(line, 0) & 3

    def sharer_mask(self, line: int) -> int:
        """Cluster bit-mask of sharers (bit ``c`` set ⇔ cluster ``c`` shares)."""
        return self.packed.get(line, 0) >> SHARER_SHIFT

    def is_sharer(self, line: int, cluster: int) -> bool:
        return bool(self.packed.get(line, 0) >> (cluster + SHARER_SHIFT) & 1)

    def only_sharer_is(self, line: int, cluster: int) -> bool:
        return self.packed.get(line, 0) >> SHARER_SHIFT == 1 << cluster

    def sharer_list(self, line: int) -> list[int]:
        """Cluster ids with their bit set, ascending."""
        out = []
        bits = self.packed.get(line, 0) >> SHARER_SHIFT
        while bits:
            low = bits & -bits
            bits ^= low
            out.append(low.bit_length() - 1)
        return out

    def owner_of(self, line: int) -> int:
        """Owning cluster; only meaningful when the state is DIR_EXCLUSIVE."""
        packed = self.packed.get(line, 0)
        if packed & 3 != DIR_EXCLUSIVE:
            raise ValueError("owner undefined unless directory state is EXCLUSIVE")
        return packed.bit_length() - 1 - SHARER_SHIFT

    # -- transitions driven by the protocol layer ---------------------------
    def record_read_fill(self, line: int, cluster: int) -> None:
        """A read fill completed: cluster now shares the line."""
        table = self.packed
        table[line] = (table.get(line, 0) & -4) | (4 << cluster) | DIR_SHARED

    def record_exclusive(self, line: int, cluster: int) -> int:
        """Grant exclusive ownership of ``line`` to ``cluster``.

        Returns the number of *other* clusters that had to be invalidated
        (the paper's invalidation count; invalidations are instantaneous).
        """
        table = self.packed
        others = (table.get(line, 0) >> SHARER_SHIFT) & ~(1 << cluster)
        n_inval = others.bit_count()
        self.invalidations_sent += n_inval
        table[line] = (4 << cluster) | DIR_EXCLUSIVE
        return n_inval

    def replacement_hint(self, line: int, cluster: int) -> None:
        """A SHARED line was evicted from ``cluster``'s cache.

        The full-bit-vector-with-hints directory clears the sharer bit so it
        never sends a useless invalidation later.  If the last sharer
        leaves, the entry is pruned — NOT_CACHED with no sharers is the
        encoding of absence.
        """
        table = self.packed
        packed = table.get(line)
        if packed is None:
            return
        packed &= ~(4 << cluster)
        self.replacement_hints += 1
        if packed >> SHARER_SHIFT == 0:
            del table[line]
        else:
            table[line] = packed

    def writeback(self, line: int, cluster: int) -> None:
        """An EXCLUSIVE line was evicted: data returns home, line NOT_CACHED.

        Only the sole owner's eviction writes back; the whole eligibility
        check is one comparison against the packed sole-owner pattern.
        """
        table = self.packed
        if table.get(line) == (4 << cluster) | DIR_EXCLUSIVE:
            del table[line]
            self.writebacks += 1

    def downgrade_owner(self, line: int, reader: int) -> None:
        """Remote read hit a dirty line: owner downgrades, reader joins.

        Resulting state is DIR_SHARED with {old owner, reader} as sharers.
        """
        table = self.packed
        packed = table.get(line, 0)
        if packed & 3 != DIR_EXCLUSIVE:
            raise ValueError(f"line {line:#x} not exclusive at directory")
        table[line] = (packed & -4) | (4 << reader) | DIR_SHARED

    # -- inspection ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.packed)

    def lines(self) -> list[int]:
        """All lines with a live (non-pruned) directory entry.

        Every returned line has at least one sharer bit set: entries whose
        mask empties are deleted on the spot, so — unlike the previous
        object-per-line directory — this never reports dead lines.
        """
        return list(self.packed)

    def describe(self, line: int) -> str:  # pragma: no cover - debug aid
        packed = self.packed.get(line, 0)
        return (f"DirEntry({_STATE_NAMES[packed & 3]}, "
                f"sharers={self.sharer_list(line)})")
