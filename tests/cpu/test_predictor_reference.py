"""The tournament predictor against its straightforward reference.

``TournamentPredictor.predict``/``update`` index and saturate their 2-bit
counters inline.  ``ReferencePredictor`` keeps the plain form they replace
(index helpers and a ``_saturate`` function); random predict / resolve /
squash sequences must leave both with equal predictions, checkpoints,
tables, histories and statistics, at the default geometry and others.
"""

from hypothesis import given, settings, strategies as st

from repro.cpu.branch.tournament import TournamentPredictor


def _saturate(counter, taken, maximum=3):
    if taken:
        return min(counter + 1, maximum)
    return max(counter - 1, 0)


class ReferencePredictor(TournamentPredictor):
    """Same tables (inherited ``__init__``), reference update rules."""

    def _local_history_index(self, pc):
        return (pc >> 2) % self.local_history_entries

    def _local_counter_index(self, pc):
        history = self._local_history[self._local_history_index(pc)]
        return history % self.local_counter_entries

    def predict(self, pc):
        self.stat_lookups += 1
        local_taken = self._local_counters[self._local_counter_index(pc)] >= 2
        global_taken = self._global_counters[self.global_history] >= 2
        use_global = self._choice_counters[self.global_history] >= 2
        taken = global_taken if use_global else local_taken
        checkpoint = (self.global_history, local_taken, global_taken)
        self.global_history = (
            (self.global_history << 1) | int(taken)
        ) & self.global_history_mask
        return taken, checkpoint

    def update(self, pc, taken, checkpoint, mispredicted):
        history_at_predict, local_taken, global_taken = checkpoint
        if local_taken != global_taken:
            self._choice_counters[history_at_predict] = _saturate(
                self._choice_counters[history_at_predict], global_taken == taken
            )
        self._global_counters[history_at_predict] = _saturate(
            self._global_counters[history_at_predict], taken
        )
        lci = self._local_counter_index(pc)
        self._local_counters[lci] = _saturate(self._local_counters[lci], taken)
        lhi = self._local_history_index(pc)
        self._local_history[lhi] = (
            (self._local_history[lhi] << 1) | int(taken)
        ) & self.local_history_mask
        if mispredicted:
            self.stat_mispredicts += 1
            self.global_history = (
                (history_at_predict << 1) | int(taken)
            ) & self.global_history_mask

    def squash_restore(self, checkpoint):
        history_at_predict, _lt, _gt = checkpoint
        self.global_history = history_at_predict


#: (local_history_entries, local_history_bits, local_counter_entries,
#: global_history_bits): the default, a small power-of-two geometry, and
#: one whose table sizes are not powers of two.
GEOMETRIES = ((1024, 10, 1024, 12), (64, 6, 32, 5), (100, 7, 50, 3))


def _state(predictor):
    return (
        predictor._local_history, predictor._local_counters,
        predictor._global_counters, predictor._choice_counters,
        predictor.global_history, predictor.stat_lookups,
        predictor.stat_mispredicts,
    )


#: (pc, outcome, mispredicted, squash, branches resolved after predicting)
STEPS = st.lists(
    st.tuples(
        st.integers(0, 1 << 22), st.booleans(), st.booleans(), st.booleans(),
        st.integers(0, 3),
    ),
    min_size=1, max_size=300,
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GEOMETRIES), STEPS)
def test_matches_reference(geometry, steps):
    fast, reference = TournamentPredictor(*geometry), ReferencePredictor(*geometry)
    in_flight = []  # (pc, outcome, mispredicted, checkpoint), oldest first
    for pc, outcome, mispredicted, squash, resolves in steps:
        prediction = fast.predict(pc)
        assert prediction == reference.predict(pc)
        in_flight.append((pc, outcome, mispredicted, prediction[1]))
        if squash:
            # The youngest branch is squashed before it resolves.
            checkpoint = in_flight.pop()[3]
            fast.squash_restore(checkpoint)
            reference.squash_restore(checkpoint)
        for _ in range(min(resolves, len(in_flight))):
            branch_pc, taken, wrong, checkpoint = in_flight.pop(0)
            fast.update(branch_pc, taken, checkpoint, wrong)
            reference.update(branch_pc, taken, checkpoint, wrong)
        assert _state(fast) == _state(reference)
    assert fast.accuracy == reference.accuracy
