"""``SyntheticTrace.skip(n)`` leaves a trace exactly where n ``next_op``
calls leave it.

``skip`` repeats ``next_op``'s draws without building ops, so the two
copies of the draw order must stay in step.  For every profile, at two
(seed, core) pairs and several lengths (one ending inside a PARSEC
critical section), a skipped trace and one walked with ``next_op`` must
report the same branches and end in the same generator state, and the
next ops, with the first wrong-path ops of their branches, must match.
"""

import pytest

from repro.cpu.isa import OpKind
from repro.workloads import SyntheticTrace

from ..golden.stream import PROFILES, _fields

PAIRS = ((0, 0), (5, 3))
LENGTHS = (0, 1, 7, 2_503)
NEXT_OPS = 300
WRONG_PATH_OPS = 4


def _cases():
    for name, profile in PROFILES.items():
        lengths = LENGTHS
        if profile.sync_interval:
            # The critical section's ACQUIRE and LOAD are taken; its STORE
            # and RELEASE are still queued.
            lengths += (profile.sync_interval + 1,)
        for seed, core_id in PAIRS:
            for ops in lengths:
                yield name, seed, core_id, ops


def walk_with_next_op(trace, ops):
    """The reference: ``ops`` ops built by ``next_op``; their branches."""
    branches = []
    for _ in range(ops):
        op = trace.next_op()
        if op.kind is OpKind.BRANCH:
            branches.append((op.pc, op.taken))
    return branches


def _skip(trace, ops):
    branches = []
    trace.skip(ops, lambda pc, taken: branches.append((pc, taken)))
    return branches


def _state(trace):
    return (
        trace.rng.getstate(),
        list(trace._recent_pages),
        trace._stream_pos,
        trace._ops_since_load,
        trace._sync_countdown,
        [_fields(op) for op in trace._forced],
        trace._branches_emitted,
    )


def _continuation(trace):
    """The next ops' fields, and the first wrong-path ops of each branch."""
    ops, wrong = [], []
    for _ in range(NEXT_OPS):
        op = trace.next_op()
        ops.append(_fields(op))
        if op.kind is OpKind.BRANCH:
            wrong.append([
                _fields(trace.wrong_path_op(op, index))
                for index in range(WRONG_PATH_OPS)
            ])
    return ops, wrong


@pytest.mark.parametrize(
    "name,seed,core_id,ops", list(_cases()), ids=lambda value: str(value)
)
def test_skip_equals_next_op_walk(name, seed, core_id, ops):
    profile = PROFILES[name]
    walked = SyntheticTrace(profile, seed=seed, core_id=core_id)
    skipped = SyntheticTrace(profile, seed=seed, core_id=core_id)

    assert _skip(skipped, ops) == walk_with_next_op(walked, ops)
    if profile.sync_interval and ops == profile.sync_interval + 1:
        assert [op.kind for op in walked._forced] == [
            OpKind.STORE, OpKind.RELEASE
        ]
    assert _state(skipped) == _state(walked)
    assert _continuation(skipped) == _continuation(walked)


def test_skips_compose():
    """Skipping in pieces, across a critical section, equals one skip."""
    profile = PROFILES["fluidanimate"]
    whole, pieces = SyntheticTrace(profile), SyntheticTrace(profile)
    expected = _skip(whole, 1_000)
    got = []
    for ops in (149, 1, 2, 300, 548):
        got += _skip(pieces, ops)
    assert got == expected
    assert _state(pieces) == _state(whole)
