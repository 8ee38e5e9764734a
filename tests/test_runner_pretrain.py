"""Functional predictor pre-training (the fast-forward substitute) and its
per-process memo."""

import copy
from types import SimpleNamespace

import pytest

from repro import ConsistencyModel, ProcessorConfig, Scheme, runner
from repro.cpu.branch import TournamentPredictor
from repro.experiments import figures
from repro.runner import DEFAULT_PRETRAIN_OPS, run_spec
from repro.workloads import PARSEC_PROFILES, SPEC_PROFILES, SyntheticTrace

from .workloads.test_skip import walk_with_next_op


class TestPretraining:
    def test_pretrain_cuts_mispredicts(self):
        config = ProcessorConfig(scheme=Scheme.BASE)
        cold = run_spec("libquantum", config, instructions=1200, warmup=0,
                        pretrain_ops=0)
        warm = run_spec("libquantum", config, instructions=1200, warmup=0)
        cold_rate = cold.count("core.branch_mispredicts") / max(
            cold.count("core.branches_resolved"), 1
        )
        warm_rate = warm.count("core.branch_mispredicts") / max(
            warm.count("core.branches_resolved"), 1
        )
        assert warm_rate < cold_rate / 2

    def test_pretrain_preserves_committed_stream(self):
        """Pre-training must not consume the core's own trace."""
        config = ProcessorConfig(scheme=Scheme.BASE)
        a = run_spec("hmmer", config, instructions=800, warmup=0,
                     pretrain_ops=0)
        b = run_spec("hmmer", config, instructions=800, warmup=0,
                     pretrain_ops=10_000)
        assert a.instructions == b.instructions == 800
        # Same memory side effects either way (same committed stream).
        assert a.count("core.stores_performed") == b.count(
            "core.stores_performed"
        )

    def test_pretrain_resets_predictor_stats(self):
        config = ProcessorConfig(scheme=Scheme.BASE)
        result = run_spec("hmmer", config, instructions=600, warmup=0)
        core = result.cores[0]
        # Lookups counted during measurement only are bounded by the
        # branches actually dispatched (incl. squashed re-dispatches).
        assert core.predictor.stat_lookups <= 600 * 2


def _fresh_walk(profile, seed, core_id, ops):
    predictor = TournamentPredictor()
    runner._walk_predictor(predictor, profile, seed, core_id, ops)
    return predictor


def _next_op_walk(profile, seed, core_id, ops):
    """The reference walk: build every op with ``next_op``, train on its
    branches."""
    predictor = TournamentPredictor()
    trace = SyntheticTrace(profile, seed=seed, core_id=core_id)
    for pc, taken in walk_with_next_op(trace, ops):
        predicted, checkpoint = predictor.predict(pc)
        predictor.update(pc, taken, checkpoint, predicted != taken)
    return predictor


def _via_memo(profile, seed, core_id, ops):
    core = SimpleNamespace(predictor=TournamentPredictor())
    runner._pretrain_predictor(core, profile, seed, core_id, ops)
    return core.predictor


def _state(predictor):
    return (
        predictor._local_history, predictor._local_counters,
        predictor._global_counters, predictor._choice_counters,
        predictor.global_history,
    )


def _train(predictor, branches=500):
    """Train on a fixed pattern of 37 branch PCs."""
    for i in range(branches):
        pc = 0x40_0000 + 4 * (i % 37)
        taken = i % 3 == 0
        predicted, checkpoint = predictor.predict(pc)
        predictor.update(pc, taken, checkpoint, predicted != taken)


@pytest.fixture
def cold_memo():
    runner._pretrained.cache_clear()
    yield runner._pretrained
    runner._pretrained.cache_clear()


MEMO_OPS = 2_000
PROFILES = {**SPEC_PROFILES, **PARSEC_PROFILES}
EQUALITY_KEYS = [
    (name, seed, core_id)
    for seed in (0, 5)
    for profiles, cores in ((SPEC_PROFILES, (0,)), (PARSEC_PROFILES, (0, 3)))
    for name in profiles
    for core_id in cores
]


class TestPretrainMemo:
    @pytest.mark.parametrize("name,seed,core_id", EQUALITY_KEYS)
    def test_hit_equals_uncached_walk(self, cold_memo, name, seed, core_id):
        profile = PROFILES[name]
        expected = _state(_next_op_walk(profile, seed, core_id, MEMO_OPS))
        fresh = _fresh_walk(profile, seed, core_id, MEMO_OPS)
        miss = _via_memo(profile, seed, core_id, MEMO_OPS)
        hit = _via_memo(profile, seed, core_id, MEMO_OPS)
        assert cold_memo.cache_info().hits == 1
        assert _state(fresh) == expected
        assert _state(miss) == expected
        assert _state(hit) == expected
        assert hit.stat_lookups == hit.stat_mispredicts == 0

    def test_full_length_hit_equals_uncached_walk(self, cold_memo):
        profile, ops = SPEC_PROFILES["mcf"], DEFAULT_PRETRAIN_OPS
        expected = _state(_fresh_walk(profile, 0, 0, ops))
        _via_memo(profile, 0, 0, ops)
        assert _state(_via_memo(profile, 0, 0, ops)) == expected
        assert cold_memo.cache_info().hits == 1

    def test_cold_pretraining_builds_no_ops(self, cold_memo, monkeypatch):
        calls = []
        next_op = SyntheticTrace.next_op

        def counted(trace):
            calls.append(trace)
            return next_op(trace)

        monkeypatch.setattr(SyntheticTrace, "next_op", counted)
        _via_memo(PARSEC_PROFILES["canneal"], 0, 3, MEMO_OPS)
        assert cold_memo.cache_info().misses == 1
        assert calls == []

    def test_training_a_copy_never_reaches_the_memo(self, cold_memo):
        profile = SPEC_PROFILES["sjeng"]
        first = _via_memo(profile, 0, 0, MEMO_OPS)
        before = copy.deepcopy(_state(first))
        _train(first)
        assert _state(first) != before
        second = _via_memo(profile, 0, 0, MEMO_OPS)
        assert _state(second) == before
        for ours, theirs in zip(_state(first)[:4], _state(second)[:4]):
            assert ours is not theirs

    def test_snapshot_restore_builds_private_tables(self):
        source = TournamentPredictor()
        _train(source)
        snapshot = source.snapshot()
        first, second = TournamentPredictor(), TournamentPredictor()
        first.restore(snapshot)
        expected = copy.deepcopy(_state(first))
        assert expected == _state(source)
        _train(first, branches=2_000)
        second.restore(snapshot)
        assert _state(second) == expected

    def test_repeated_runs_give_identical_counters(self):
        config = ProcessorConfig(scheme=Scheme.IS_FUTURE)
        runs = [
            run_spec("mcf", config, instructions=600, pretrain_ops=MEMO_OPS)
            for _ in range(2)
        ]
        assert runs[0].counters.as_dict() == runs[1].counters.as_dict()
        assert runs[0].total_cycles == runs[1].total_cycles

    @pytest.mark.parametrize(
        "changed", [(5, 0, MEMO_OPS), (0, 3, MEMO_OPS), (0, 0, MEMO_OPS // 2)],
        ids=["seed", "core_id", "ops"],
    )
    def test_each_key_gets_its_own_walk(self, cold_memo, changed):
        profile = PARSEC_PROFILES["canneal"]
        base = _state(_via_memo(profile, 0, 0, MEMO_OPS))
        got = _state(_via_memo(profile, *changed))
        assert got == _state(_fresh_walk(profile, *changed))
        assert got != base
        assert cold_memo.cache_info().misses == 2

    def test_memo_is_bounded_and_recomputes_evicted_keys(self, cold_memo):
        profile, ops = SPEC_PROFILES["hmmer"], 40
        bound = runner.PRETRAIN_MEMO_ENTRIES
        assert cold_memo.cache_info().maxsize == bound
        for seed in range(bound + 8):
            _via_memo(profile, seed, 0, ops)
            assert cold_memo.cache_info().currsize <= bound
        assert cold_memo.cache_info().currsize == bound
        misses = cold_memo.cache_info().misses
        assert _state(_via_memo(profile, 0, 0, ops)) == _state(
            _fresh_walk(profile, 0, 0, ops)
        )
        assert cold_memo.cache_info().misses == misses + 1

    def test_matrix_walks_once_per_core(self, cold_memo, monkeypatch):
        walks = []
        walk = runner._walk_predictor

        def counted(*args):
            walks.append(args[1:])
            return walk(*args)

        monkeypatch.setattr(runner, "_walk_predictor", counted)
        matrix = figures.run_matrix(
            "spec", apps=["mcf"], instructions=300, include_rc=False
        )
        assert len(matrix[ConsistencyModel.TSO]["mcf"]) == 5
        assert walks == [
            (SPEC_PROFILES["mcf"], 0, 0, DEFAULT_PRETRAIN_OPS)
        ]
