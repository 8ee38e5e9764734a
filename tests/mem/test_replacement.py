"""Replacement policy tests."""

from hypothesis import given, strategies as st

from repro.mem.replacement import LRUPolicy


class TestLRU:
    def test_victim_is_least_recent(self):
        lru = LRUPolicy(4)
        for way in (0, 1, 2, 3):
            lru.touch(way)
        assert lru.victim() == 0
        lru.touch(0)
        assert lru.victim() == 1

    def test_reset_makes_way_next_victim(self):
        lru = LRUPolicy(4)
        for way in (0, 1, 2, 3):
            lru.touch(way)
        lru.reset(3)
        assert lru.victim() == 3

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=64))
    def test_victim_never_most_recently_touched(self, touches):
        lru = LRUPolicy(8)
        for way in touches:
            lru.touch(way)
        assert lru.victim() != touches[-1]
