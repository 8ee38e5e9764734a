"""High-level run helpers used by the experiment harness and examples.

``run_spec`` / ``run_parsec`` build a system for one workload under one
processor configuration and return the :class:`~repro.system.RunResult`.
A matrix of such runs (one workload under the five Table V
configurations) is :func:`repro.experiments.figures.run_matrix`.
"""

from __future__ import annotations

import functools

from .cpu.branch import TournamentPredictor
from .params import SystemParams
from .system import System
from .workloads import PARSEC_PROFILES, SPEC_PROFILES, SyntheticTrace, parsec_traces


#: Default per-run instruction budgets.  The paper simulates 1e9
#: instructions per application in gem5 (C++); a pure-Python cycle-level
#: model gets the same relative numbers from tens of thousands.
DEFAULT_SPEC_INSTRUCTIONS = 20_000
DEFAULT_PARSEC_INSTRUCTIONS = 4_000  # per core, times 8 cores

#: Functional branch-predictor pre-training (ops walked per core).  The
#: paper fast-forwards 10B instructions before measuring, so its predictors
#: are warm; at our scales predictor warmup would otherwise dominate.
DEFAULT_PRETRAIN_OPS = 15_000

#: Trained predictors kept per process (LRU): one per (profile, seed, core,
#: ops, predictor geometry), ~10 KB each.
PRETRAIN_MEMO_ENTRIES = 256


def _pretrain_predictor(core, profile, seed, core_id, ops):
    """Train ``core``'s predictor on the first ``ops`` ops of its stream.

    This is a functional (zero-cycle) warmup: the pipeline will replay the
    same deterministic stream, so per-PC biases are already learned when
    measurement starts — the analogue of gem5's fast-forward phase.

    The trained tables are a pure function of (profile, seed, core_id,
    ops, predictor geometry), so each process walks a key once and later
    calls copy its snapshot.  Precondition: ``core.predictor`` is freshly
    built, as every ``Core`` builds its own; the copy then equals what
    walking it would give.  The copy is private: the run's own training
    never reaches the memo, another core or another run.
    """
    predictor = core.predictor
    predictor.restore(
        _pretrained(profile, seed, core_id, ops, predictor.geometry)
    )
    predictor.stat_lookups = 0
    predictor.stat_mispredicts = 0


@functools.lru_cache(maxsize=PRETRAIN_MEMO_ENTRIES)
def _pretrained(profile, seed, core_id, ops, geometry):
    """Snapshot of a fresh predictor after :func:`_walk_predictor`."""
    predictor = TournamentPredictor(*geometry)
    _walk_predictor(predictor, profile, seed, core_id, ops)
    return predictor.snapshot()


def _walk_predictor(predictor, profile, seed, core_id, ops):
    """Train ``predictor`` on the branches of the first ``ops`` committed
    ops of a throwaway trace, in order.

    :meth:`SyntheticTrace.skip` advances the trace without building its
    ops; a change to ``next_op``'s draws must be mirrored in ``skip``
    (``tests/workloads/test_skip.py``).
    """
    predict, update = predictor.predict, predictor.update

    def train(pc, taken):
        predicted, checkpoint = predict(pc)
        update(pc, taken, checkpoint, predicted != taken)

    SyntheticTrace(profile, seed=seed, core_id=core_id).skip(ops, train)


def run_spec(
    name,
    config,
    instructions=DEFAULT_SPEC_INSTRUCTIONS,
    warmup=None,
    seed=0,
    params=None,
    pretrain_ops=DEFAULT_PRETRAIN_OPS,
    max_cycles=None,
    watchdog=None,
    heartbeat=None,
    faults=None,
    sanitize=None,
):
    """Run one SPEC application under one processor configuration.

    ``warmup`` instructions (default: half the measured budget) execute
    before measurement starts, and the branch predictor is functionally
    pre-trained, mirroring the paper's fast-forward phase.

    ``max_cycles``, ``watchdog`` and ``faults`` are the reliability hooks
    (cycle budget, wall-clock guard, fault injector) used by
    :class:`~repro.reliability.RunEngine`; all default to off.
    ``sanitize`` enables the runtime invariant sanitizer
    (:mod:`repro.sanitizer`): ``"strict"`` raises on the first violation,
    ``"record"`` collects violations into ``result.sanitizer_report``.
    """
    profile = SPEC_PROFILES[name]
    if params is None:
        params = SystemParams.for_spec()
    if warmup is None:
        warmup = instructions // 2
    system = System(
        params=params,
        config=config,
        traces=[SyntheticTrace(profile, seed=seed, core_id=0)],
        max_instructions=instructions,
        warmup_instructions=warmup,
        icache_miss_rate=profile.icache_miss_rate,
        faults=faults,
        watchdog=watchdog,
        heartbeat=heartbeat,
        sanitizer=sanitize,
    )
    if pretrain_ops:
        _pretrain_predictor(system.cores[0], profile, seed, 0, pretrain_ops)
    return system.run(max_cycles=max_cycles)


def run_parsec(
    name,
    config,
    instructions=DEFAULT_PARSEC_INSTRUCTIONS,
    warmup=None,
    seed=0,
    params=None,
    pretrain_ops=DEFAULT_PRETRAIN_OPS,
    max_cycles=None,
    watchdog=None,
    heartbeat=None,
    faults=None,
    sanitize=None,
):
    """Run one PARSEC application on 8 cores under one configuration."""
    profile = PARSEC_PROFILES[name]
    if params is None:
        params = SystemParams.for_parsec()
    if warmup is None:
        warmup = instructions // 2
    system = System(
        params=params,
        config=config,
        traces=parsec_traces(name, num_cores=params.num_cores, seed=seed),
        max_instructions=instructions,
        warmup_instructions=warmup,
        icache_miss_rate=profile.icache_miss_rate,
        faults=faults,
        watchdog=watchdog,
        heartbeat=heartbeat,
        sanitizer=sanitize,
    )
    if pretrain_ops:
        for core_id, core in enumerate(system.cores):
            _pretrain_predictor(core, profile, seed, core_id, pretrain_ops)
    return system.run(max_cycles=max_cycles)
