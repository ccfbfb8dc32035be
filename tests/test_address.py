"""Unit tests for address arithmetic and the region allocator."""

import pytest

from repro.memory.address import AddressSpace, Region, align_up


class TestLineMath:
    def test_align_up_exact(self):
        assert align_up(8192, 4096) == 8192

    def test_align_up_rounds(self):
        assert align_up(1, 4096) == 4096
        assert align_up(4097, 4096) == 8192

    def test_align_up_zero(self):
        assert align_up(0, 64) == 0

    def test_align_up_rejects_nonpositive_alignment(self):
        with pytest.raises(ValueError):
            align_up(10, 0)


class TestRegion:
    def test_element_addresses(self):
        r = Region("r", base=4096, size=4096, element_size=8)
        assert r.element(0) == 4096
        assert r.element(1) == 4104
        assert r.element(511) == 4096 + 511 * 8

    def test_element_out_of_range(self):
        r = Region("r", base=0, size=64, element_size=8)
        with pytest.raises(IndexError):
            r.element(8)
        with pytest.raises(IndexError):
            r.element(-1)

    def test_n_elements(self):
        assert Region("r", 0, 4096, 16).n_elements == 256

    def test_contains(self):
        r = Region("r", 100, 50)
        assert r.contains(100)
        assert r.contains(149)
        assert not r.contains(150)
        assert not r.contains(99)

    def test_lines_span(self):
        r = Region("r", base=64, size=128)
        assert list(r.lines()) == [1, 2]

    def test_lines_unaligned_region(self):
        r = Region("r", base=32, size=64)
        assert list(r.lines()) == [0, 1]


class TestAddressSpace:
    def test_regions_page_aligned(self):
        sp = AddressSpace()
        a = sp.allocate("a", 10)
        b = sp.allocate("b", 10)
        assert a.base % sp.page_size == 0
        assert b.base % sp.page_size == 0
        assert b.base >= a.end

    def test_regions_never_share_pages(self):
        sp = AddressSpace()
        a = sp.allocate("a", 1)
        b = sp.allocate("b", 1)
        assert a.base // sp.page_size != b.base // sp.page_size

    def test_duplicate_name_rejected(self):
        sp = AddressSpace()
        sp.allocate("x", 1)
        with pytest.raises(ValueError):
            sp.allocate("x", 1)

    def test_lookup_by_name(self):
        sp = AddressSpace()
        r = sp.allocate("grid", 100)
        assert sp.region("grid") is r

    def test_element_size_respected(self):
        sp = AddressSpace()
        r = sp.allocate("c", 4, element_size=16)
        assert r.element(1) - r.element(0) == 16

    def test_rejects_bad_sizes(self):
        sp = AddressSpace()
        with pytest.raises(ValueError):
            sp.allocate("bad", 0)
        with pytest.raises(ValueError):
            sp.allocate("bad", 1, element_size=0)

    def test_page_size_must_be_line_multiple(self):
        with pytest.raises(ValueError):
            AddressSpace(page_size=100, line_size=64)

    def test_regions_sorted_by_base(self):
        sp = AddressSpace()
        sp.allocate("z", 1)
        sp.allocate("a", 1)
        bases = [r.base for r in sp.regions()]
        assert bases == sorted(bases)
