"""A core builds and feeds only the trackers something reads.

The scheme policy, the consistency model and the core's own fence gate
declare their reads (:mod:`repro.cpu.tracking`); a judge attached with
:meth:`~repro.cpu.core.Core.attach_load_issue_probe` adds its own.  An
unread tracker is never queried, so it would keep every op it was fed
alive until the run ends; the last case pins that a Base run no longer
does.

The InvisiSpec hardware sits beside the core the same way: only an IS
scheme's policy builds a load engine, and the core itself names no SB,
LLC-SB or engine class.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from repro.configs import ConsistencyModel, ProcessorConfig, Scheme
from repro.cpu import core as core_module
from repro.cpu.isa import MicroOp, OpKind
from repro.cpu.rob import ROBEntry
from repro.errors import SimTimeoutError, SimulationError
from repro.invisispec.policy import ISFuturePolicy
from repro.params import SystemParams
from repro.runner import run_spec
from repro.security.channel import AttackContext

_TSO, _RC = ConsistencyModel.TSO, ConsistencyModel.RC
_FIVE = {"branch", "exceptable", "store", "unvalidated", "fence"}

#: scheme -> the trackers its policy and the core read together.
_SCHEME_READS = {
    Scheme.BASE: {"fence"},
    Scheme.FENCE_SPECTRE: {"fence"},
    Scheme.FENCE_FUTURE: {"fence"},
    Scheme.IS_SPECTRE: {"branch", "fence"},
    Scheme.IS_FUTURE: _FIVE,
    Scheme.SELECTIVE: _FIVE,
}
#: consistency model -> what it adds.
_MODEL_READS = {_TSO: set(), _RC: {"sync"}}


def _context(scheme, model=_TSO):
    return AttackContext(ProcessorConfig(scheme=scheme, consistency=model))


@pytest.mark.parametrize("model", [_TSO, _RC], ids=lambda m: m.value)
@pytest.mark.parametrize("scheme", list(_SCHEME_READS), ids=lambda s: s.value)
def test_each_scheme_builds_what_it_and_its_model_read(scheme, model):
    with _context(scheme, model) as context:
        core = context.system.cores[0]
        expected = _SCHEME_READS[scheme] | _MODEL_READS[model]
        assert set(core.trackers) == expected
        assert (core.squash_point is not None) == (_FIVE <= expected)
        # An unread tracker's query is not there to answer "none".
        assert hasattr(core, "min_squashing_seq") == (_FIVE <= expected)
        assert hasattr(core, "min_unresolved_branch_seq") == (
            "branch" in expected
        )
        assert hasattr(core, "min_incomplete_sync_seq") == (model is _RC)


@pytest.mark.parametrize("model", [_TSO, _RC], ids=lambda m: m.value)
@pytest.mark.parametrize("scheme", list(_SCHEME_READS), ids=lambda s: s.value)
def test_only_an_invisispec_scheme_builds_a_load_engine(scheme, model):
    with _context(scheme, model) as context:
        core = context.system.cores[0]
        assert (core.visibility is not None) == context.config.is_invisispec
        assert not hasattr(core, "sb")
        assert not hasattr(core, "llc_sb")


def test_core_imports_only_the_policy_factory_and_lifecycle_from_invisispec():
    tree = ast.parse(Path(core_module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {
                (alias.name, None) for alias in node.names
                if alias.name.startswith("repro.invisispec")
            }
        elif isinstance(node, ast.ImportFrom):
            module = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), "repro.cpu"
            )
            if module.startswith("repro.invisispec"):
                imported |= {(module, alias.name) for alias in node.names}
    assert imported
    for module, name in imported:
        assert (
            module == "repro.invisispec.lifecycle"
            or (module == "repro.invisispec" and name == "lifecycle")
            or name == "make_scheme_policy"
        ), (module, name)


def _recording_judge(verdicts):
    judge = ISFuturePolicy()

    def probe(core, entry, unsafe_speculative):
        verdicts.append(judge.load_is_safe(core, entry))

    return probe, judge.reads


def _shadowed_loads():
    """A missing load feeds a branch; two loads issue in its shadow."""
    return [
        MicroOp(OpKind.LOAD, pc=0x100, addr=0x40000, size=1),
        MicroOp(OpKind.BRANCH, pc=0x104, deps=(1,), taken=False),
        MicroOp(OpKind.LOAD, pc=0x108, addr=0x1000, size=1),
        MicroOp(OpKind.LOAD, pc=0x10C, addr=0x2000, size=1),
    ]


def test_attaching_a_future_judge_to_base_builds_all_five():
    verdicts = []
    with _context(Scheme.BASE) as context:
        core = context.system.cores[0]
        context.run_ops(0, [MicroOp(OpKind.ALU, pc=0x10)])
        probe, reads = _recording_judge(verdicts)
        core.attach_load_issue_probe(probe, reads)
        assert set(core.trackers) == _FIVE
        assert core.squash_point is not None
        assert core.min_squashing_seq() is None
        context.flush(0x40000)
        context.run_ops(0, _shadowed_loads())
    # The judge sees the branch's shadow: the loads behind the unresolved
    # branch are squashable, though Base itself protects nothing.
    assert verdicts[0] is True
    assert False in verdicts[1:]


def test_attaching_to_a_core_already_reading_builds_nothing():
    with _context(Scheme.IS_FUTURE) as context:
        core = context.system.cores[0]
        trackers = dict(core.trackers)
        core.attach_load_issue_probe(lambda *args: None, ISFuturePolicy.reads)
        assert core.trackers == trackers


def test_attaching_while_the_rob_holds_live_entries_raises():
    with _context(Scheme.BASE) as context:
        core = context.system.cores[0]
        context.flush(0x40000)
        with pytest.raises(SimTimeoutError):
            context.run_ops(
                0, _shadowed_loads(), max_cycles=context.kernel.cycle + 3
            )
        assert not core.rob.empty
        with pytest.raises(SimulationError, match="ROB entries are live"):
            core.attach_load_issue_probe(
                lambda *args: None, ISFuturePolicy.reads
            )
        assert set(core.trackers) == {"fence"}
        assert core.load_issue_probe is None


def test_base_run_keeps_no_more_rob_entries_alive_than_it_can_hold(
    monkeypatch,
):
    """Every ``ROBEntry`` alive at once fits in the ROB or was just
    dispatched from the fetch queue: no unread tracker hoards them."""
    live = [0, 0]

    class CountedEntry(ROBEntry):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            live[0] += 1
            live[1] = max(live)

        def __del__(self):
            live[0] -= 1

    monkeypatch.setattr(core_module, "ROBEntry", CountedEntry)
    run_spec("mcf", ProcessorConfig(scheme=Scheme.BASE, consistency=_TSO),
             instructions=2_000, seed=0, pretrain_ops=2_000)
    core = SystemParams.for_spec().core
    assert 0 < live[1] <= core.rob_entries + 2 * core.issue_width
