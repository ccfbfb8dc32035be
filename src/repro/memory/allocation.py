"""Page-to-home-cluster allocation policy.

The paper (§3.1): *"Memory is allocated to clusters when first touched on a
round robin basis.  Some application programs explicitly place data when such
placement improves performance.  All stack references are allocated
locally."*

:class:`PageAllocator` implements the first two:

* the first reference to a page binds it to a home cluster, cycling
  round-robin over clusters;
* an application may *explicitly place* a page (or a whole region) at a
  chosen cluster before any reference touches it, overriding round-robin.

Stack references never reach it: the applications count private and
stack traffic as compute time (:mod:`repro.apps.base`).

Home lookup is on the critical path of every miss, so the hot method
:meth:`PageAllocator.home_of_line` does a single dict probe in the common
case.
"""

from __future__ import annotations

from itertools import repeat
from operator import floordiv
from types import MappingProxyType
from typing import Mapping, Sequence

from .address import DEFAULT_LINE_SIZE, DEFAULT_PAGE_SIZE, Region

__all__ = ["PageAllocator"]


class PageAllocator:
    """First-touch round-robin page placement with explicit override.

    Parameters
    ----------
    n_clusters:
        Number of clusters (home candidates) in the machine.
    page_size, line_size:
        Geometry; both in bytes, page a multiple of line.
    """

    __slots__ = ("n_clusters", "page_size", "line_size", "_lines_per_page",
                 "_page_home", "_rr_next", "first_touch_pages", "placed_pages")

    def __init__(
        self,
        n_clusters: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        line_size: int = DEFAULT_LINE_SIZE,
    ) -> None:
        if n_clusters <= 0:
            raise ValueError(f"n_clusters must be positive, got {n_clusters}")
        if page_size % line_size != 0:
            raise ValueError("page size must be a multiple of line size")
        self.n_clusters = n_clusters
        self.page_size = page_size
        self.line_size = line_size
        self._lines_per_page = page_size // line_size
        self._page_home: dict[int, int] = {}
        self._rr_next = 0
        #: statistics: pages bound by first touch vs. explicit placement
        self.first_touch_pages = 0
        self.placed_pages = 0

    # ------------------------------------------------------------------ hot
    def home_of_line(self, line: int) -> int:
        """Home cluster of cache line ``line``, binding its page on first touch.

        Called on every directory access.  ``line`` is a line *number*, not a
        byte address.
        """
        page = line // self._lines_per_page
        home = self._page_home.get(page)
        if home is None:
            home = self._rr_next
            self._page_home[page] = home
            self._rr_next = (home + 1) % self.n_clusters
            self.first_touch_pages += 1
        return home

    # ---------------------------------------------------------------- setup
    def place_page(self, page: int, cluster: int) -> None:
        """Explicitly bind ``page`` to ``cluster`` (must precede first touch)."""
        self._check_cluster(cluster)
        if page in self._page_home:
            raise ValueError(f"page {page} already bound to cluster "
                             f"{self._page_home[page]}")
        self._page_home[page] = cluster
        self.placed_pages += 1

    def place_range(self, start_addr: int, size: int, cluster: int) -> None:
        """Explicitly place every page overlapping ``[start, start+size)``.

        Pages already bound (e.g. by an earlier overlapping placement) are
        left alone — applications place adjacent partitions and partitions
        may share boundary pages.
        """
        if size > 0:
            self.place_chunks(start_addr, start_addr + size, size, [cluster])

    def place_chunks(self, start_addr: int, end_addr: int, chunk: int,
                     clusters: Sequence[int]) -> None:
        """Place ``[start, end)`` as ``chunk``-byte chunks at ``clusters``
        (the last runs to ``end``) in one pass, as one :meth:`place_range`
        a chunk in order: an unbound page goes to the first it overlaps."""
        for cluster in (min(clusters), max(clusters)):
            self._check_cluster(cluster)
        size, last = self.page_size, len(clusters) - 1
        pages = range(start_addr // size, (end_addr - 1) // size + 1)
        # page p's chunk at C speed: min(max(p*size - start, 0) // chunk, last)
        firsts = map(max, range(pages.start * size - start_addr,
                                pages.stop * size - start_addr, size),
                     repeat(0))
        chunks = map(min, map(floordiv, firsts, repeat(chunk)), repeat(last))
        new = dict(zip(pages, map(clusters.__getitem__, chunks)))
        for page in new.keys() & self._page_home.keys():
            del new[page]
        self._page_home.update(new)
        self.placed_pages += len(new)

    def place_region(self, region: Region, cluster: int) -> None:
        """Explicitly place an entire :class:`~repro.memory.address.Region`."""
        self.place_range(region.base, region.size, cluster)

    # ---------------------------------------------------------------- query
    @property
    def page_homes(self) -> Mapping[int, int]:
        """Read-only live view of every page → home binding."""
        return MappingProxyType(self._page_home)

    @property
    def next_home(self) -> int:
        """Cluster the next first-touched page will be bound to."""
        return self._rr_next

    def _check_cluster(self, cluster: int) -> None:
        if not (0 <= cluster < self.n_clusters):
            raise ValueError(
                f"cluster {cluster} out of range [0, {self.n_clusters})"
            )
