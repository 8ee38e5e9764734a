"""LLC Speculative Buffer tests (Sections V-F and VI-C)."""

from repro.invisispec.llc_sb import LLCSpeculativeBuffer


class TestLLCSpeculativeBuffer:
    def test_insert_and_match(self):
        sb = LLCSpeculativeBuffer(8)
        assert sb.insert(3, 0x1000, epoch=5)
        assert sb.match(3, 0x1000, epoch=5)

    def test_match_requires_same_epoch(self):
        """Squash/reissue race: a request from a different epoch must not
        consume the entry (Section VI-C)."""
        sb = LLCSpeculativeBuffer(8)
        sb.insert(3, 0x1000, epoch=5)
        assert not sb.match(3, 0x1000, epoch=6)
        assert not sb.match(3, 0x1000, epoch=4)

    def test_match_requires_same_address(self):
        sb = LLCSpeculativeBuffer(8)
        sb.insert(3, 0x1000, epoch=5)
        assert not sb.match(3, 0x2000, epoch=5)

    def test_stale_insert_dropped(self):
        """An insert from an older epoch than the slot's holder is stale."""
        sb = LLCSpeculativeBuffer(8)
        sb.insert(3, 0x2000, epoch=7)
        assert not sb.insert(3, 0x1000, epoch=5)
        assert sb.match(3, 0x2000, epoch=7)
        assert sb.stat_inserts == 1

    def test_newer_epoch_overwrites(self):
        sb = LLCSpeculativeBuffer(8)
        sb.insert(3, 0x1000, epoch=5)
        assert sb.insert(3, 0x2000, epoch=9)
        assert sb.match(3, 0x2000, epoch=9)

    def test_invalidate_line_everywhere(self):
        sb = LLCSpeculativeBuffer(8)
        sb.insert(1, 0x1000, epoch=1)
        sb.insert(2, 0x1000, epoch=1)
        sb.insert(3, 0x3000, epoch=1)
        sb.invalidate_line(0x1000)
        assert sb.valid_lines() == [0x3000]
        assert not sb.match(1, 0x1000, epoch=1)
        assert not sb.match(2, 0x1000, epoch=1)

    def test_slot_wraps_by_capacity(self):
        sb = LLCSpeculativeBuffer(4)
        sb.insert(1, 0x1000, epoch=1)
        sb.insert(5, 0x2000, epoch=2)  # same physical slot
        assert not sb.match(1, 0x1000, epoch=1)
        assert sb.match(5, 0x2000, epoch=2)

    def test_stats(self):
        sb = LLCSpeculativeBuffer(4)
        sb.insert(0, 0x1000, epoch=0)
        assert sb.match(0, 0x1000, epoch=0)
        assert not sb.match(0, 0x9000, epoch=0)
        assert sb.stat_inserts == 1
