"""Address arithmetic and shared-address-space layout.

The simulated machine exposes a single flat shared address space, exactly as
in the paper's architecture (Figure 1 of CSL-TR-94-632): memory is physically
distributed among clusters but globally addressable.  This module provides

* line/page arithmetic used throughout the memory system, and
* :class:`AddressSpace`, a bump allocator that hands out named, page-aligned
  *regions* of the address space to applications.

Applications allocate one region per logical data structure (a grid, a
particle array, an octree pool, ...) and then translate element indices to
byte addresses with :meth:`Region.element`.  Keeping structures in distinct
page-aligned regions mirrors how the SPLASH codes lay out their shared heaps
and keeps first-touch page placement meaningful.

All addresses are plain Python ints (byte addresses); the memory system only
ever looks at their line and page numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.config import DEFAULT_LINE_SIZE, DEFAULT_PAGE_SIZE

__all__ = [
    "DEFAULT_LINE_SIZE",
    "DEFAULT_PAGE_SIZE",
    "align_up",
    "Region",
    "AddressSpace",
]


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return -(-value // alignment) * alignment


@dataclass(frozen=True)
class Region:
    """A named, contiguous, page-aligned chunk of the shared address space.

    Attributes
    ----------
    name:
        Human-readable label (used in traces and debugging output).
    base:
        First byte address of the region.
    size:
        Size in bytes.
    element_size:
        Size of one logical element; :meth:`element` scales indices by it.
    """

    name: str
    base: int
    size: int
    element_size: int = 8

    def element(self, index: int) -> int:
        """Byte address of logical element ``index`` (bounds-checked)."""
        addr = self.base + index * self.element_size
        if not (self.base <= addr < self.base + self.size):
            raise IndexError(
                f"element {index} out of range for region {self.name!r} "
                f"({self.size // self.element_size} elements)"
            )
        return addr

    @property
    def end(self) -> int:
        """One past the last byte address of the region."""
        return self.base + self.size

    @property
    def n_elements(self) -> int:
        """Number of whole elements that fit in the region."""
        return self.size // self.element_size

    def contains(self, addr: int) -> bool:
        """Whether byte address ``addr`` falls inside this region."""
        return self.base <= addr < self.end

    def lines(self, line_size: int = DEFAULT_LINE_SIZE) -> range:
        """Range of line numbers spanned by this region."""
        return range(self.base // line_size, -(-self.end // line_size))


@dataclass
class AddressSpace:
    """Bump allocator for page-aligned shared regions.

    A fresh address space starts allocating at ``base``; every region is
    aligned to ``page_size`` so that regions never share a page (and thus
    first-touch placement of one structure never drags along another).
    """

    page_size: int = DEFAULT_PAGE_SIZE
    line_size: int = DEFAULT_LINE_SIZE
    base: int = 0
    _next: int = field(init=False)
    _regions: dict[str, Region] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.page_size % self.line_size != 0:
            raise ValueError(
                f"page size {self.page_size} must be a multiple of the "
                f"line size {self.line_size}"
            )
        self._next = align_up(self.base, self.page_size)

    def allocate(self, name: str, n_elements: int, element_size: int = 8) -> Region:
        """Allocate a new region of ``n_elements`` elements.

        Region names must be unique within one address space; this catches
        accidental double allocation in application code.
        """
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        if n_elements <= 0:
            raise ValueError(f"n_elements must be positive, got {n_elements}")
        if element_size <= 0:
            raise ValueError(f"element_size must be positive, got {element_size}")
        size = align_up(n_elements * element_size, self.page_size)
        region = Region(name=name, base=self._next, size=size, element_size=element_size)
        self._next = region.end
        self._regions[name] = region
        return region

    def region(self, name: str) -> Region:
        """Look up a previously allocated region by name."""
        return self._regions[name]

    def regions(self) -> list[Region]:
        """All regions in allocation order."""
        return sorted(self._regions.values(), key=lambda r: r.base)
