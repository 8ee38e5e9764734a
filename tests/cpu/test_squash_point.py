"""The cached visibility point answers exactly what five probes would.

``Core.min_squashing_seq`` reads a :class:`~repro.cpu.tracking.SquashPoint`:
one cached entry over the five Section VIII trackers, rechecked in O(1)
and recomputed only when it goes inactive.  The allowed behaviour is
stated separately here, as the five-probe recomputation the cache
replaces: for each tracker, the smallest seq among its entries that are
unsquashed and still active.  The reference scans the heaps without
popping, so checking leaves the run untouched.

Every query any policy makes is compared, and each core is also queried
after each of its ticks.  A core builds the point only when something
reads all five trackers (IS-Future, IS-Sel), so every core here gets an
:class:`~repro.invisispec.policy.ISFuturePolicy` judge attached when it
is built, as the specflow and fuzz judges attach theirs: schemes that
never ask (Base, the fences, IS-Spectre) then still exercise the cache
under their own dynamics, and the judge's load-issue verdicts are
compared too.  The cells are the golden-counter matrix's apps under
every scheme and both consistency models, the eight attack PoCs under
every scheme, and fluidanimate and canneal on eight cores.

The mutation case drops the push-while-empty rule; the same check must
then report disagreements.
"""

import pytest

from repro.configs import ConsistencyModel, ProcessorConfig, Scheme
from repro.cpu.core import Core
from repro.cpu.tracking import LazyMinTracker, SquashPoint, SquashTracker
from repro.invisispec.policy import ISFuturePolicy
from repro.runner import run_parsec
from repro.security.cross_core import run_cross_core_attack
from repro.security.exception_attacks import VARIANTS, run_exception_attack
from repro.security.meltdown_style import run_meltdown_style_attack
from repro.security.spectre_v1 import run_spectre_v1
from repro.security.ssb import run_ssb_attack

from ..golden.matrix import CELLS, Cell, cell_id, run_cell

_SCHEMES = (
    Scheme.BASE, Scheme.FENCE_SPECTRE, Scheme.FENCE_FUTURE,
    Scheme.IS_SPECTRE, Scheme.IS_FUTURE,
)
_MODELS = (ConsistencyModel.TSO, ConsistencyModel.RC)


def five_probe_reference(point):
    """Smallest seq active in any of ``point``'s trackers, or ``None``."""
    best = None
    for tracker in point.trackers:
        is_active = tracker._is_active
        for seq, entry in tracker._heap:
            if (best is None or seq < best) and not entry.squashed and (
                is_active(entry)
            ):
                best = seq
    return best


class _Checker:
    """Compares every cached answer with :func:`five_probe_reference`."""

    def __init__(self, monkeypatch):
        self.queries = 0
        self.mismatches = []
        cached = SquashPoint.min_seq
        checker = self

        def checked(point):
            answer = cached(point)
            expected = five_probe_reference(point)
            checker.queries += 1
            if answer != expected:
                checker.mismatches.append((answer, expected))
            return answer

        judge = ISFuturePolicy()

        def probe(core, entry, unsafe_speculative):
            judge.load_is_safe(core, entry)

        init = Core.__init__

        def init_then_attach(core, *args, **kwargs):
            init(core, *args, **kwargs)
            core.attach_load_issue_probe(probe, judge.reads)

        tick = Core.tick

        def tick_then_query(core):
            state = tick(core)
            core.min_squashing_seq()
            return state

        # Core binds ``min_squashing_seq`` when it builds its point, so the
        # patch reaches every core of a run started afterwards.
        monkeypatch.setattr(SquashPoint, "min_seq", checked)
        monkeypatch.setattr(Core, "__init__", init_then_attach)
        monkeypatch.setattr(Core, "tick", tick_then_query)


def _unique_golden_shapes():
    """The golden matrix's (suite, app, cores, params) shapes."""
    shapes = {}
    for cell in CELLS:
        shapes.setdefault((cell.suite, cell.app, cell.cores, cell.params), cell)
    return list(shapes.values())


GOLDEN_CELLS = [
    cell._replace(scheme=scheme, consistency=model)
    for cell in _unique_golden_shapes()
    for scheme in _SCHEMES
    for model in _MODELS
]


def _config(scheme, model=ConsistencyModel.TSO):
    return ProcessorConfig(scheme=scheme, consistency=model)


POCS = {
    "spectre_v1": lambda config: run_spectre_v1(config, trials=1),
    "meltdown_style": run_meltdown_style_attack,
    "ssb": run_ssb_attack,
    "cross_core": run_cross_core_attack,
    **{
        f"exception_{variant}": (
            lambda config, variant=variant: run_exception_attack(
                config, variant
            )
        )
        for variant in VARIANTS
    },
}


@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=cell_id)
def test_golden_cells_agree_at_every_query(cell, monkeypatch):
    checker = _Checker(monkeypatch)
    run_cell(cell)
    assert checker.queries > 0
    assert checker.mismatches == []


@pytest.mark.parametrize("scheme", _SCHEMES, ids=lambda s: s.value)
@pytest.mark.parametrize("poc", sorted(POCS))
def test_pocs_agree_at_every_query(poc, scheme, monkeypatch):
    checker = _Checker(monkeypatch)
    POCS[poc](_config(scheme))
    assert checker.queries > 0
    assert checker.mismatches == []


@pytest.mark.parametrize("model", _MODELS, ids=lambda m: m.value)
@pytest.mark.parametrize("app", ["fluidanimate", "canneal"])
def test_eight_core_parsec_agrees_at_every_query(app, model, monkeypatch):
    checker = _Checker(monkeypatch)
    run_parsec(app, _config(Scheme.IS_FUTURE, model), instructions=200,
               seed=0, pretrain_ops=2_000)
    assert checker.queries > 0
    assert checker.mismatches == []


def test_cache_without_push_while_empty_disagrees(monkeypatch):
    """Mutation: a push no longer seeds an empty cache."""
    monkeypatch.setattr(SquashTracker, "push", LazyMinTracker.push)
    checker = _Checker(monkeypatch)
    run_cell(Cell("spec", "mcf", Scheme.IS_FUTURE, ConsistencyModel.TSO, 1,
                  ()))
    assert checker.mismatches


class FakeEntry:
    def __init__(self, seq):
        self.seq = seq
        self.squashed = False
        self.active = True


class TestSquashPoint:
    def _point(self, count=2):
        point = SquashPoint()
        trackers = [
            SquashTracker(lambda e: e.active, point) for _ in range(count)
        ]
        return point, trackers

    def test_empty_is_none(self):
        point, _trackers = self._point()
        assert point.min_seq() is None

    def test_push_while_empty_seeds_the_cache(self):
        point, (first, _second) = self._point()
        first.push(FakeEntry(4))
        assert point.cached[0].seq == 4
        assert point.min_seq() == 4

    def test_oldest_over_all_trackers(self):
        point, (first, second) = self._point()
        a, b, c = FakeEntry(1), FakeEntry(2), FakeEntry(3)
        first.push(a)
        second.push(b)
        first.push(c)
        assert point.min_seq() == 1
        a.active = False
        assert point.min_seq() == 2
        b.squashed = True
        assert point.min_seq() == 3
        c.active = False
        assert point.min_seq() is None

    def test_younger_push_keeps_the_cached_entry(self):
        point, (first, second) = self._point()
        a = FakeEntry(1)
        first.push(a)
        assert point.min_seq() == 1
        second.push(FakeEntry(2))
        assert point.cached[0] is a

    def test_recompute_only_when_the_entry_goes_inactive(self, monkeypatch):
        point, (first, _second) = self._point()
        a = FakeEntry(1)
        first.push(a)
        first.push(FakeEntry(2))
        calls = []
        recompute = SquashPoint._recompute
        monkeypatch.setattr(
            SquashPoint, "_recompute",
            lambda self: calls.append(1) or recompute(self),
        )
        for _ in range(3):
            assert point.min_seq() == 1
        assert calls == []
        a.active = False
        assert point.min_seq() == 2
        assert calls == [1]

    def test_reference_matches_on_a_synthetic_history(self):
        point, trackers = self._point(count=3)
        entries = []
        for seq in range(30):
            entry = FakeEntry(seq)
            entries.append(entry)
            trackers[seq % 3].push(entry)
            if seq % 4 == 0:
                entries[seq // 2].active = False
            if seq % 7 == 0:
                entries[seq // 3].squashed = True
            assert point.min_seq() == five_probe_reference(point)

