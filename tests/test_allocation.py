"""Unit tests for first-touch round-robin page placement."""

import pytest

from repro.memory.address import Region
from repro.memory.allocation import PageAllocator

LINES_PER_PAGE = 4096 // 64


class TestFirstTouch:
    def test_round_robin_order(self):
        al = PageAllocator(n_clusters=4)
        homes = [al.home_of_line(p * LINES_PER_PAGE) for p in range(8)]
        assert homes == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_same_page_same_home(self):
        al = PageAllocator(n_clusters=4)
        h = al.home_of_line(0)
        assert al.home_of_line(1) == h
        assert al.home_of_line(LINES_PER_PAGE - 1) == h

    def test_next_page_next_cluster(self):
        al = PageAllocator(n_clusters=4)
        h0 = al.home_of_line(0)
        h1 = al.home_of_line(LINES_PER_PAGE)
        assert h1 == (h0 + 1) % 4

    def test_repeat_touch_stable(self):
        al = PageAllocator(n_clusters=4)
        assert al.home_of_line(5) == al.home_of_line(5)

    def test_touch_order_determines_home(self):
        al = PageAllocator(n_clusters=2)
        # touch page 7 first: it gets cluster 0 even though 7 % 2 == 1
        assert al.home_of_line(7 * LINES_PER_PAGE) == 0
        assert al.home_of_line(0) == 1

    def test_counts_first_touches(self):
        al = PageAllocator(n_clusters=2)
        al.home_of_line(0)
        al.home_of_line(1)  # same page
        al.home_of_line(LINES_PER_PAGE)
        assert al.first_touch_pages == 2


class TestExplicitPlacement:
    def test_place_page_overrides_round_robin(self):
        al = PageAllocator(n_clusters=4)
        al.place_page(0, 3)
        assert al.home_of_line(0) == 3
        # round-robin pointer untouched by placement
        assert al.home_of_line(LINES_PER_PAGE) == 0

    def test_place_after_touch_rejected(self):
        al = PageAllocator(n_clusters=4)
        al.home_of_line(0)
        with pytest.raises(ValueError):
            al.place_page(0, 2)

    def test_place_range_spans_pages(self):
        al = PageAllocator(n_clusters=4)
        al.place_range(0, 4096 * 3, 2)
        for page in range(3):
            assert al.home_of_line(page * LINES_PER_PAGE) == 2

    def test_place_range_skips_bound_pages(self):
        al = PageAllocator(n_clusters=4)
        al.place_page(1, 3)
        al.place_range(0, 4096 * 2, 1)  # covers pages 0 and 1
        assert al.bound_home(0) == 1
        assert al.bound_home(1) == 3  # untouched

    def test_place_range_empty(self):
        al = PageAllocator(n_clusters=2)
        al.place_range(0, 0, 1)
        assert not al.page_homes

    def test_place_region(self):
        al = PageAllocator(n_clusters=2)
        r = Region("r", base=8192, size=4096)
        al.place_region(r, 1)
        assert al.home_of_line(8192 // 64) == 1

    def test_invalid_cluster_rejected(self):
        al = PageAllocator(n_clusters=2)
        with pytest.raises(ValueError):
            al.place_page(0, 2)
        with pytest.raises(ValueError):
            al.place_range(0, 4096, -1)


class TestQueries:
    def test_bound_home_no_side_effect(self):
        al = PageAllocator(n_clusters=2)
        assert al.bound_home(0) is None
        assert not al.page_homes

    def test_home_histogram(self):
        al = PageAllocator(n_clusters=3)
        for p in range(6):
            al.home_of_line(p * LINES_PER_PAGE)
        assert sorted(al.page_homes.values()) == [0, 0, 1, 1, 2, 2]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PageAllocator(n_clusters=0)
        with pytest.raises(ValueError):
            PageAllocator(n_clusters=2, page_size=100, line_size=64)
