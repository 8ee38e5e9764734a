"""The LQ's per-line index answers exactly what a full LQ scan answers."""

from hypothesis import given, settings, strategies as st

from repro.cpu.isa import MicroOp, OpKind
from repro.cpu.lsq import (
    STATE_DEFERRED,
    STATE_EXPOSURE,
    STATE_NORMAL,
    STATE_VALIDATION,
    LoadQueue,
)
from repro.cpu.rob import ROBEntry

LINES = (0x1000, 0x1040, 0x2000)
VSTATES = (None, STATE_EXPOSURE, STATE_VALIDATION, STATE_NORMAL, STATE_DEFERRED)

actions = st.lists(
    st.one_of(
        st.tuples(st.just("alloc")),
        st.tuples(st.just("resolve"), st.integers(0, 7),
                  st.sampled_from(LINES)),
        st.tuples(st.just("flags"), st.integers(0, 7), st.booleans(),
                  st.sampled_from(VSTATES), st.booleans()),
        st.tuples(st.just("retire")),
        st.tuples(st.just("squash"), st.integers(0, 8)),
    ),
    max_size=80,
)


def brute_same_line(lq, line):
    return [e for e in lq.entries() if e.line_addr == line]


def brute_older_pending(lq, entry, line):
    best = None
    for other in lq.entries():
        if other.index >= entry.index:
            break
        if (
            other.valid
            and other.issued
            and other.line_addr == line
            and other.vstate in (STATE_EXPOSURE, STATE_VALIDATION)
            and not other.forwarded
        ):
            best = other
    return best


def check(lq):
    live = lq.entries()
    assert [e.index for e in live] == list(range(lq.head, lq.tail))
    for line in LINES:
        assert lq.loads_to_line(line) == brute_same_line(lq, line)
        for entry in live:
            assert lq.older_pending_request(entry, line) is (
                brute_older_pending(lq, entry, line)
            )


class TestLineIndex:
    @settings(max_examples=300, deadline=None)
    @given(actions)
    def test_matches_brute_force_scan(self, steps):
        lq = LoadQueue(8)
        seq = 0
        for step in steps:
            action = step[0]
            live = lq.entries()
            if action == "alloc" and not lq.full:
                lq.allocate(ROBEntry(MicroOp(OpKind.LOAD), seq, seq, False, 0),
                            epoch=0)
                seq += 1
            elif action == "resolve" and live:
                # Addresses resolve out of program order (and may re-resolve).
                lq.set_line(live[step[1] % len(live)], step[2])
            elif action == "flags" and live:
                entry = live[step[1] % len(live)]
                entry.issued, entry.vstate, entry.forwarded = step[2:]
            elif action == "retire" and live:
                lq.retire_head().valid = False
            elif action == "squash" and live:
                for dropped in lq.squash_to(lq.head + step[1]):
                    dropped.valid = False
            check(lq)
