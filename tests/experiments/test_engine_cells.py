"""Every simulated cell of every experiment runs through the engine.

Experiments sharing an engine share the cells they have in common, but
only at the same window; the sweep fans out over a supervisor like the
figures; a fault scoped to one ablation cell renders a gap; a cell that
two sweep points share runs, and fails, once.
"""

import pytest

from repro import runner
from repro.experiments import ablations, figures, sweep, variance
from repro.experiments.common import GAP
from repro.reliability import (
    FaultSchedule,
    RetryPolicy,
    RunEngine,
    RunJournal,
    Supervisor,
)


@pytest.mark.parametrize("resume", [False, True])
def test_shared_engine_simulates_common_cells_once_per_window(
    tmp_path, monkeypatch, resume
):
    calls = []
    real = runner.run_spec

    def counted(app, config, **kwargs):
        calls.append((app, config.scheme, kwargs.get("instructions")))
        return real(app, config, **kwargs)

    def variance_at_400(engine):
        return variance.run(
            apps=("mcf",), instructions=400, seeds=(0,), engine=engine
        )

    alone = variance_at_400(None)
    monkeypatch.setattr(runner, "run_spec", counted)
    engine = RunEngine(
        journal=RunJournal(tmp_path / "j.json"),
        policy=RetryPolicy(max_attempts=1),
        resume=resume,
    )
    small = dict(apps=["mcf"], instructions=300, include_rc=False)
    figures.figure4(engine=engine, **small)
    shared = variance_at_400(engine)
    figures.figure6(engine=engine, **small)
    again = variance_at_400(engine)

    # Base, IS-Sp and IS-Fu ran at both windows, each exactly once.
    assert len(calls) == len(set(calls)) == 5 + 3
    assert {window for _, _, window in calls} == {300, 400}
    assert shared.rows == again.rows == alone.rows


def test_sweep_on_two_workers_matches_serial():
    kwargs = dict(app="hmmer", dimensions=("lq",), instructions=500)
    serial = sweep.run(**kwargs)
    supervisor = Supervisor(jobs=2, heartbeat_timeout=60.0)
    engine = RunEngine(
        policy=RetryPolicy(max_attempts=1), supervisor=supervisor
    )
    parallel = sweep.run(engine=engine, **kwargs)
    assert parallel.rows == serial.rows
    assert parallel.text == serial.text
    assert len(engine.outcomes) == 6
    assert all(outcome.status == "ok" for outcome in engine.outcomes)
    assert supervisor.stats["workers_spawned"] == 2


def test_fault_in_one_ablation_cell_renders_a_gap():
    # Only the no-llc-sb cell carries a config digest after its window.
    engine = RunEngine(
        policy=RetryPolicy(max_attempts=1),
        fault_schedule=FaultSchedule.parse(["mshr.stuck:nth=1"]),
        fault_cells="spec:mcf:IS-Fu:TSO:s0:i300:*",
    )
    result = ablations.run(
        app="mcf", v2e_app="hmmer", parsec_app="swaptions",
        instructions=300, engine=engine,
    )
    rows = {row[0]: row for row in result.rows}
    assert rows["mcf IS-Fu no-llc-sb"][1:] == [GAP] * 9
    assert GAP not in rows["mcf IS-Fu (full design)"]
    assert rows["mcf IS-Fu (full design)"][2] == 1.0
    assert [o.error_class for o in engine.failures] == ["DeadlockError"]
    failed = engine.failures[0].cell_id
    assert failed.startswith("spec:mcf:IS-Fu:TSO:s0:i300:")


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_cell_shared_by_two_sweep_points_fails_once(tmp_path, jobs):
    # ROB=192 and LQ=32 are both the default machine: one cell.
    shared = "spec:hmmer:Base:TSO:s0:i300:3140311d9c"
    engine = RunEngine(
        journal=RunJournal(tmp_path / "j.json"),
        policy=RetryPolicy(max_attempts=1),
        fault_schedule=FaultSchedule.parse(["mshr.stuck:nth=1"]),
        fault_cells=shared,
        supervisor=Supervisor(jobs=jobs, heartbeat_timeout=60.0),
    )
    result = sweep.run(
        app="hmmer", dimensions=("rob", "lq"), instructions=300,
        engine=engine,
    )
    rows = {row[0]: row for row in result.rows}
    assert rows["rob:ROB=192"][1] == rows["lq:LQ=32"][1] == GAP
    assert [o.cell_id for o in engine.failures] == [shared]
    assert len(engine.journal.get(shared)["attempts"]) == 1
