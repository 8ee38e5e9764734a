"""Cache array tests, including the invisible-lookup property InvisiSpec
relies on (Spec-GetS must not disturb replacement state)."""

import pytest

from repro.coherence.mesi import MESIState
from repro.errors import SimulationError
from repro.mem.cache import CacheArray
from repro.params import CacheParams


def small_cache(ways=2, sets=4):
    params = CacheParams(size_bytes=64 * ways * sets, line_bytes=64, ways=ways)
    return CacheArray(params)


def addr_for_set(cache, set_idx, tag):
    return (tag * cache.num_sets + set_idx) * cache.line_bytes


class TestCacheArray:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.lookup(0x1000) is None
        cache.insert(0x1000, MESIState.EXCLUSIVE)
        entry = cache.lookup(0x1000)
        assert entry is not None
        assert entry.state is MESIState.EXCLUSIVE

    def test_insert_duplicate_raises(self):
        cache = small_cache()
        cache.insert(0x1000, MESIState.SHARED)
        with pytest.raises(SimulationError):
            cache.insert(0x1000, MESIState.SHARED)

    def test_fills_free_ways_before_evicting(self):
        cache = small_cache(ways=2)
        a = addr_for_set(cache, 0, 0)
        b = addr_for_set(cache, 0, 1)
        _, victim_a = cache.insert(a, MESIState.SHARED)
        _, victim_b = cache.insert(b, MESIState.SHARED)
        assert victim_a is None and victim_b is None

    def test_eviction_returns_lru_victim(self):
        cache = small_cache(ways=2)
        a = addr_for_set(cache, 1, 0)
        b = addr_for_set(cache, 1, 1)
        c = addr_for_set(cache, 1, 2)
        cache.insert(a, MESIState.SHARED)
        cache.insert(b, MESIState.SHARED)
        cache.lookup(a)  # a becomes MRU
        _, victim = cache.insert(c, MESIState.SHARED)
        assert victim.line_addr == b

    def test_invisible_lookup_does_not_change_victim(self):
        """A Spec-GetS probe (touch=False) must leave LRU order intact."""
        cache = small_cache(ways=2)
        a = addr_for_set(cache, 2, 0)
        b = addr_for_set(cache, 2, 1)
        c = addr_for_set(cache, 2, 2)
        cache.insert(a, MESIState.SHARED)
        cache.insert(b, MESIState.SHARED)  # a is LRU now
        cache.lookup(a, touch=False)  # invisible: a must stay LRU
        _, victim = cache.insert(c, MESIState.SHARED)
        assert victim.line_addr == a

    def test_invalidate_frees_way(self):
        cache = small_cache(ways=2)
        a = addr_for_set(cache, 0, 0)
        b = addr_for_set(cache, 0, 1)
        c = addr_for_set(cache, 0, 2)
        cache.insert(a, MESIState.SHARED)
        cache.insert(b, MESIState.SHARED)
        assert cache.invalidate(a) is not None
        _, victim = cache.insert(c, MESIState.SHARED)
        assert victim is None  # reused the freed way

    def test_invalidate_absent_returns_none(self):
        cache = small_cache()
        assert cache.invalidate(0x9999_0000) is None

    def test_flush_all_empties(self):
        cache = small_cache()
        cache.insert(0x1000, MESIState.SHARED)
        cache.insert(0x2000, MESIState.MODIFIED)
        flushed = cache.flush_all()
        assert len(flushed) == 2
        assert cache.occupancy == 0

    def test_resident_lines(self):
        cache = small_cache()
        cache.insert(0x1000, MESIState.SHARED)
        cache.insert(0x2000, MESIState.SHARED)
        assert set(cache.resident_lines()) == {0x1000, 0x2000}

    def test_lookups_leave_residency_unchanged(self):
        # Hit/miss counters are maintained by the hierarchy; the array's
        # lookups leave residency and occupancy as they are.
        cache = small_cache()
        assert cache.lookup(0x1000) is None
        cache.insert(0x1000, MESIState.SHARED)
        cache.lookup(0x1000)
        assert cache.occupancy == 1
        assert list(cache.resident_lines()) == [0x1000]

    def test_set_mapping_distributes_lines(self):
        cache = small_cache(ways=2, sets=4)
        seen = {cache.set_index(i * 64) for i in range(8)}
        assert seen == {0, 1, 2, 3}

    def test_contains(self):
        cache = small_cache()
        cache.insert(0x40, MESIState.SHARED)
        assert cache.contains(0x40)
        assert not cache.contains(0x80)

    def test_set_digest_is_lines_and_states_in_recency_order(self):
        cache = small_cache(ways=4)
        a = addr_for_set(cache, 3, 0)
        b = addr_for_set(cache, 3, 1)
        assert cache.set_digest(a) == ()
        cache.insert(a, MESIState.SHARED)
        cache.insert(b, MESIState.MODIFIED)
        assert cache.set_digest(a) == ((a, "SHARED"), (b, "MODIFIED"))
        cache.lookup(a, touch=False)  # invisible: digest unchanged
        assert cache.set_digest(a) == ((a, "SHARED"), (b, "MODIFIED"))
        cache.lookup(a)
        assert cache.set_digest(b) == ((b, "MODIFIED"), (a, "SHARED"))
