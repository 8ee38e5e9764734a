"""Scheme policy unit tests."""

import pytest

from repro.configs import Scheme
from repro.errors import ConfigError
from repro.invisispec.policy import (
    FenceFuturePolicy,
    FenceSpectrePolicy,
    ISFuturePolicy,
    ISSpectrePolicy,
    SchemePolicy,
    make_scheme_policy,
)


class TestFactory:
    @pytest.mark.parametrize(
        "scheme,cls",
        [
            (Scheme.BASE, SchemePolicy),
            (Scheme.FENCE_SPECTRE, FenceSpectrePolicy),
            (Scheme.FENCE_FUTURE, FenceFuturePolicy),
            (Scheme.IS_SPECTRE, ISSpectrePolicy),
            (Scheme.IS_FUTURE, ISFuturePolicy),
        ],
    )
    def test_builds_each_scheme(self, scheme, cls):
        assert type(make_scheme_policy(scheme)) is cls

    def test_rejects_unknown(self):
        with pytest.raises(ConfigError):
            make_scheme_policy("nonsense")


class TestPolicyFlags:
    def test_base_is_permissive(self):
        policy = SchemePolicy()
        assert policy.make_engine(None) is None
        assert not policy.inserts_fence_after_branch
        assert not policy.inserts_fence_before_load
        assert policy.load_is_safe(None, None)
        assert policy.visible_now(None, None)

    def test_fence_spectre_fences_branches(self):
        policy = FenceSpectrePolicy()
        assert policy.inserts_fence_after_branch
        assert not policy.inserts_fence_before_load

    def test_fence_future_fences_loads(self):
        policy = FenceFuturePolicy()
        assert policy.inserts_fence_before_load

    def test_is_future_serializes_validations(self):
        assert ISFuturePolicy().validation_blocks_overlap
        assert not ISSpectrePolicy().validation_blocks_overlap


class FakeCore:
    """Just enough core for the policy predicates."""

    def __init__(self, branch_seq=None):
        self._branch_seq = branch_seq

    def min_unresolved_branch_seq(self):
        return self._branch_seq


class FakeEntry:
    def __init__(self, seq):
        self.seq = seq


class FutureFakeCore:
    """The five Section VIII probes plus the interrupt window."""

    def __init__(self, blockers=(), head_seq=None, allow_interrupt=True):
        self._blockers = dict(blockers)
        self._head_seq = head_seq
        self._allow = allow_interrupt
        self.protection_requests = []

        class _Rob:
            def __init__(inner):
                inner._head_seq = head_seq

            def head(inner):
                if inner._head_seq is None:
                    return None
                return FakeEntry(inner._head_seq)

        self.rob = _Rob()

    def _probe(self, name):
        def probe():
            return self._blockers.get(name)

        return probe

    def __getattr__(self, name):
        if name.startswith("min_"):
            return self._probe(name)
        raise AttributeError(name)

    def min_squashing_seq(self):
        """The oldest of the five probes, as a core's cached visibility
        point answers it."""
        return min(
            (seq for seq in self._blockers.values() if seq is not None),
            default=None,
        )

    def request_interrupt_protection(self, seq):
        self.protection_requests.append(seq)
        return self._allow


class TestISFutureVisibility:
    def test_visible_at_rob_head(self):
        policy = ISFuturePolicy()
        core = FutureFakeCore(head_seq=5)
        assert policy.visible_now(core, FakeEntry(5))

    def test_blocked_by_any_older_condition(self):
        policy = ISFuturePolicy()
        for probe in (
            "min_unresolved_branch_seq",
            "min_exceptable_seq",
            "min_uncommitted_store_seq",
            "min_unvalidated_load_seq",
            "min_incomplete_fence_seq",
        ):
            core = FutureFakeCore(blockers={probe: 3}, head_seq=0)
            assert not policy.visible_now(core, FakeEntry(5)), probe

    def test_non_squashable_requests_interrupt_window(self):
        policy = ISFuturePolicy()
        core = FutureFakeCore(head_seq=0)
        assert policy.visible_now(core, FakeEntry(5))
        assert core.protection_requests == [5]

    def test_refused_interrupt_window_blocks_visibility(self):
        policy = ISFuturePolicy()
        core = FutureFakeCore(head_seq=0, allow_interrupt=False)
        assert not policy.visible_now(core, FakeEntry(5))

    def test_younger_conditions_do_not_block(self):
        policy = ISFuturePolicy()
        core = FutureFakeCore(
            blockers={"min_unresolved_branch_seq": 9}, head_seq=0
        )
        assert policy.visible_now(core, FakeEntry(5))


class TestISSpectreClassification:
    def test_safe_without_older_branch(self):
        policy = ISSpectrePolicy()
        assert policy.load_is_safe(FakeCore(branch_seq=None), FakeEntry(5))

    def test_unsafe_behind_unresolved_branch(self):
        policy = ISSpectrePolicy()
        assert not policy.load_is_safe(FakeCore(branch_seq=3), FakeEntry(5))

    def test_safe_if_branch_is_younger(self):
        policy = ISSpectrePolicy()
        assert policy.load_is_safe(FakeCore(branch_seq=9), FakeEntry(5))

    def test_visibility_mirrors_safety(self):
        policy = ISSpectrePolicy()
        assert policy.visible_now(FakeCore(branch_seq=None), FakeEntry(5))
        assert not policy.visible_now(FakeCore(branch_seq=2), FakeEntry(5))
