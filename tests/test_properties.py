"""Cross-cutting property-based tests on core data structures."""

import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.coherence.mesi import MESIState
from repro.cpu.branch import TournamentPredictor
from repro.cpu.isa import MicroOp, OpKind
from repro.cpu.lsq import LoadQueue, StoreQueue
from repro.cpu.rob import ROBEntry
from repro.mem.cache import CacheArray
from repro.params import CacheParams


def small_cache(ways=2, sets=4):
    return CacheArray(
        CacheParams(size_bytes=64 * ways * sets, line_bytes=64, ways=ways)
    )


class TestCacheArrayProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "invalidate", "lookup"]),
                st.integers(min_value=0, max_value=15),
            ),
            max_size=60,
        )
    )
    def test_occupancy_never_exceeds_capacity(self, operations):
        cache = small_cache()
        for op, line_idx in operations:
            line = line_idx * 64
            if op == "insert" and not cache.contains(line):
                cache.insert(line, MESIState.SHARED)
            elif op == "invalidate":
                cache.invalidate(line)
            else:
                cache.lookup(line)
            assert cache.occupancy <= 8
            # Resident lines are exactly the trackable set.
            assert len(set(cache.resident_lines())) == cache.occupancy

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=40))
    def test_inserted_line_is_resident_until_displaced(self, lines):
        cache = small_cache()
        for line_idx in lines:
            line = line_idx * 64
            if not cache.contains(line):
                cache.insert(line, MESIState.EXCLUSIVE)
            assert cache.contains(line)  # at least right after touch

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "touch", "probe", "invalidate"]),
                st.integers(min_value=0, max_value=7),
            ),
            min_size=20,
            max_size=80,
        )
    )
    def test_matches_reference_lru(self, operations):
        # Differential check against a plain recency list per set (least
        # recently used first): every eviction takes the same victim, never
        # the set's most recently touched line, and residency and recency
        # order agree after every step.
        ways, sets = 3, 2
        cache = small_cache(ways=ways, sets=sets)
        order = [[] for _ in range(sets)]
        for op, line_idx in operations:
            line = line_idx * 64
            recency = order[line_idx % sets]
            if op == "insert":
                if line in recency:
                    continue
                _entry, victim = cache.insert(line, MESIState.SHARED)
                if len(recency) < ways:
                    assert victim is None
                else:
                    assert victim.line_addr == recency[0]
                    assert victim.line_addr != recency[-1]
                    recency.pop(0)
                recency.append(line)
            elif op == "touch":
                hit = cache.lookup(line) is not None
                assert hit == (line in recency)
                if hit:
                    recency.remove(line)
                    recency.append(line)
            elif op == "probe":
                assert (cache.lookup(line, touch=False) is not None) == (
                    line in recency
                )
            else:
                assert (cache.invalidate(line) is not None) == (line in recency)
                if line in recency:
                    recency.remove(line)
            assert sorted(cache.resident_lines()) == sorted(
                addr for lines in order for addr in lines
            )
            assert [addr for addr, _state in cache.set_digest(line)] == (
                order[line_idx % sets]
            )


class TestQueueProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.sampled_from(["alloc", "retire", "squash"]), max_size=60
        ),
        st.randoms(use_true_random=False),
    )
    def test_lq_pointer_discipline(self, actions, rng):
        lq = LoadQueue(4)
        seq = 0
        for action in actions:
            if action == "alloc" and not lq.full:
                entry = ROBEntry(MicroOp(OpKind.LOAD), seq, seq, False, 0)
                lq.allocate(entry, epoch=0)
                seq += 1
            elif action == "retire" and len(lq):
                lq.retire_head()
            elif action == "squash" and len(lq):
                target = rng.randrange(lq.head, lq.tail + 1)
                lq.squash_to(target)
            assert 0 <= len(lq) <= 4
            assert lq.head <= lq.tail
            live = list(lq.entries())
            assert [e.index for e in live] == sorted(e.index for e in live)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=8))
    def test_sq_allocate_retire_roundtrip(self, n):
        sq = StoreQueue(8)
        entries = []
        for i in range(n):
            entries.append(sq.allocate(ROBEntry(MicroOp(OpKind.STORE), i, i,
                                                False, 0)))
        for expected in entries:
            assert sq.retire_head() is expected
        assert len(sq) == 0


class TestPredictorProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_history_restore_is_exact(self, outcomes):
        predictor = TournamentPredictor()
        for taken in outcomes:
            predicted, checkpoint = predictor.predict(0x400)
            history_before = checkpoint[0]
            predictor.squash_restore(checkpoint)
            assert predictor.global_history == history_before
            # Redo the prediction and train normally.
            predicted, checkpoint = predictor.predict(0x400)
            predictor.update(0x400, taken, checkpoint, predicted != taken)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.booleans(), min_size=50, max_size=300))
    def test_counters_stay_saturated(self, outcomes):
        predictor = TournamentPredictor()
        for taken in outcomes:
            _p, checkpoint = predictor.predict(0x404)
            predictor.update(0x404, taken, checkpoint, False)
        assert all(0 <= c <= 3 for c in predictor._local_counters)
        assert all(0 <= c <= 3 for c in predictor._global_counters)
        assert all(0 <= c <= 3 for c in predictor._choice_counters)
