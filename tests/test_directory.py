"""Unit tests for the full-bit-vector directory over line records."""

import pytest

from repro.memory.directory import (DIR_EXCLUSIVE, DIR_SHARED, NOT_CACHED,
                                    Directory)


class TestPackedAccessors:
    def test_absent_line_is_not_cached(self):
        d = Directory(4)
        assert d.state_of(10) == NOT_CACHED
        assert d.sharer_mask(10) == 0
        assert d.sharer_list(10) == []
        assert not d.is_sharer(10, 0)
        assert len(d) == 0

    def test_sharer_bitmask(self):
        d = Directory(8)
        d.record_read_fill(d.entry(1), 0)
        d.record_read_fill(d.entry(1), 5)
        assert d.is_sharer(1, 0)
        assert d.is_sharer(1, 5)
        assert not d.is_sharer(1, 3)
        assert d.sharer_list(1) == [0, 5]
        assert d.sharer_mask(1) == (1 << 0) | (1 << 5)

    def test_packed_encoding(self):
        d = Directory(4)
        d.record_read_fill(d.entry(1), 2)
        # the entry is the line record's state and cluster bit-mask
        assert (d.state_of(1), d.sharer_mask(1)) == (DIR_SHARED, 1 << 2)
        assert d.lines() == [1]

    def test_only_sharer(self):
        d = Directory(4)
        d.record_read_fill(d.entry(1), 3)
        assert d.sharer_mask(1) == 1 << 3
        d.record_read_fill(d.entry(1), 1)
        assert d.sharer_mask(1) != 1 << 3

    def test_owner_requires_exclusive(self):
        d = Directory(8)
        d.record_read_fill(d.entry(1), 4)
        with pytest.raises(ValueError):
            d.owner_of(1)
        d.record_exclusive(d.entry(1), 4)
        assert d.owner_of(1) == 4


class TestTransitions:
    def test_read_fill_shares(self):
        d = Directory(4)
        d.record_read_fill(d.entry(1), cluster=2)
        assert d.state_of(1) == DIR_SHARED
        assert d.sharer_list(1) == [2]

    def test_multiple_readers_accumulate(self):
        d = Directory(4)
        d.record_read_fill(d.entry(1), 0)
        d.record_read_fill(d.entry(1), 3)
        assert d.sharer_list(1) == [0, 3]

    def test_record_exclusive_counts_invalidations(self):
        d = Directory(4)
        d.record_read_fill(d.entry(1), 0)
        d.record_read_fill(d.entry(1), 1)
        d.record_read_fill(d.entry(1), 2)
        n = d.record_exclusive(d.entry(1), cluster=1)
        assert n == 2
        assert d.state_of(1) == DIR_EXCLUSIVE
        assert d.owner_of(1) == 1
        assert d.invalidations_sent == 2

    def test_exclusive_from_not_cached(self):
        d = Directory(4)
        assert d.record_exclusive(d.entry(7), 3) == 0
        assert d.owner_of(7) == 3

    def test_replacement_hint_clears_bit(self):
        d = Directory(4)
        d.record_read_fill(d.entry(1), 0)
        d.record_read_fill(d.entry(1), 1)
        d.replacement_hint(d.entry(1), 0)
        assert d.sharer_list(1) == [1]
        assert d.replacement_hints == 1

    def test_hint_for_unknown_line_ignored(self):
        d = Directory(4)
        d.replacement_hint(d.entry(99), 0)  # no crash
        assert d.replacement_hints == 0

    def test_writeback_clears_ownership(self):
        d = Directory(4)
        d.record_exclusive(d.entry(1), 2)
        d.writeback(d.entry(1), 2)
        assert d.state_of(1) == NOT_CACHED
        assert d.writebacks == 1

    def test_writeback_wrong_owner_ignored(self):
        d = Directory(4)
        d.record_exclusive(d.entry(1), 2)
        d.writeback(d.entry(1), 3)
        assert d.state_of(1) == DIR_EXCLUSIVE

    def test_downgrade_owner(self):
        d = Directory(4)
        d.record_exclusive(d.entry(1), 2)
        d.downgrade_owner(d.entry(1), reader=0)
        assert d.state_of(1) == DIR_SHARED
        assert d.sharer_list(1) == [0, 2]

    def test_downgrade_non_exclusive_raises(self):
        d = Directory(4)
        d.record_read_fill(d.entry(1), 0)
        with pytest.raises(ValueError):
            d.downgrade_owner(d.entry(1), 1)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Directory(0)


class TestPruning:
    """A line whose sharer mask empties leaves the directory: its record
    stays (it holds the line's miss history and home) but reads
    NOT_CACHED, and ``lines()``/``len()`` never report it."""

    def test_last_hint_prunes_entry(self):
        d = Directory(4)
        d.record_read_fill(d.entry(1), 0)
        d.replacement_hint(d.entry(1), 0)
        assert d.state_of(1) == NOT_CACHED
        assert (d.sharer_mask(1), d.lines()) == (0, [])
        assert len(d) == 0

    def test_writeback_prunes_entry(self):
        d = Directory(4)
        d.record_exclusive(d.entry(1), 2)
        d.writeback(d.entry(1), 2)
        assert (d.state_of(1), d.sharer_mask(1), d.lines()) == \
            (NOT_CACHED, 0, [])
        assert len(d) == 0

    def test_partial_hint_keeps_entry(self):
        d = Directory(4)
        d.record_read_fill(d.entry(1), 0)
        d.record_read_fill(d.entry(1), 2)
        d.replacement_hint(d.entry(1), 0)
        assert (d.state_of(1), d.lines()) == (DIR_SHARED, [1])
        assert len(d) == 1

    def test_lines_reports_only_live_entries(self):
        d = Directory(4)
        for line in range(100):
            d.record_read_fill(d.entry(line), 0)
            d.replacement_hint(d.entry(line), 0)
        d.record_read_fill(d.entry(7), 1)
        assert d.lines() == [7]
        assert len(d) == 1

    def test_streaming_pattern_bounded(self):
        # evict-as-you-go single sharer: one line is in the directory at a
        # time, whatever the records of the lines it has left
        d = Directory(2)
        for line in range(10_000):
            d.record_read_fill(d.entry(line), 0)
            if line:
                d.replacement_hint(d.entry(line - 1), 0)
        assert len(d) == 1

    def test_pruned_line_can_return(self):
        d = Directory(4)
        d.record_read_fill(d.entry(1), 0)
        d.replacement_hint(d.entry(1), 0)
        d.record_exclusive(d.entry(1), 3)
        assert d.state_of(1) == DIR_EXCLUSIVE
        assert d.owner_of(1) == 3
