"""Run engine: retry policy, journal, resume, degradation, acceptance."""

import json

import pytest

from repro.configs import ConsistencyModel, ProcessorConfig, Scheme
from repro.errors import DeadlockError, ProtocolError, SimTimeoutError
from repro.experiments import figures
from repro.reliability import (
    CellFailure,
    CellResult,
    FaultSchedule,
    RetryPolicy,
    RunEngine,
    RunJournal,
    capture_metrics,
    is_ok,
)
from repro.reliability.worker import CellSpec
from repro.reliability.engine import DEFAULT_SEED_STEP
from repro.runner import run_spec


class TestRetryPolicy:
    def test_seed_bump_is_deterministic(self):
        policy = RetryPolicy()
        assert policy.seed_for(3, 0) == 3
        assert policy.seed_for(3, 1) == 3 + DEFAULT_SEED_STEP
        assert policy.seed_for(3, 2) == 3 + 2 * DEFAULT_SEED_STEP

    def test_budget_grows_per_attempt(self):
        policy = RetryPolicy(budget_growth=2.0)
        assert policy.budget_for(1000, 0) == 1000
        assert policy.budget_for(1000, 1) == 2000
        assert policy.budget_for(None, 5) is None

    def test_retryable_classes(self):
        policy = RetryPolicy()
        assert policy.is_retryable(SimTimeoutError(9, "budget"))
        assert policy.is_retryable(DeadlockError(9, "stuck"))
        assert not policy.is_retryable(ProtocolError("bad state"))


class TestRunCell:
    def test_ok_cell_records_metrics(self, tmp_path):
        journal = RunJournal(tmp_path / "j.json", experiment="t")
        engine = RunEngine(journal=journal)
        calls = []

        def fn(seed, max_cycles, watchdog, faults):
            calls.append(seed)
            return run_spec(
                "hmmer", ProcessorConfig(scheme=Scheme.BASE),
                instructions=300, seed=seed,
            )

        outcome = engine.run_cell("t:cell", fn, base_seed=5)
        assert outcome.ok and outcome.status == "ok"
        assert calls == [5]
        record = journal.get("t:cell")
        assert record["status"] == "ok"
        assert record["metrics"]["cycles"] == outcome.result.cycles
        assert engine.exit_code == 0

    def test_transient_failure_retries_with_bumped_seed(self):
        engine = RunEngine(policy=RetryPolicy(max_attempts=3))
        seeds = []

        def fn(seed, max_cycles, watchdog, faults):
            seeds.append(seed)
            if len(seeds) < 3:
                raise SimTimeoutError(100, "injected")
            return run_spec(
                "hmmer", ProcessorConfig(scheme=Scheme.BASE),
                instructions=300, seed=seed,
            )

        outcome = engine.run_cell("t:flaky", fn, base_seed=1)
        assert outcome.ok
        assert seeds == [1, 1 + DEFAULT_SEED_STEP, 1 + 2 * DEFAULT_SEED_STEP]
        assert [a["status"] for a in outcome.attempts] == [
            "failed", "failed", "ok",
        ]

    def test_budget_grows_across_attempts(self):
        engine = RunEngine(
            policy=RetryPolicy(max_attempts=2), max_cycles=10_000
        )
        budgets = []

        def fn(seed, max_cycles, watchdog, faults):
            budgets.append(max_cycles)
            raise SimTimeoutError(max_cycles, "still too slow")

        outcome = engine.run_cell("t:slow", fn)
        assert not outcome.ok
        assert budgets == [10_000, 20_000]

    def test_non_retryable_error_fails_immediately(self):
        engine = RunEngine(policy=RetryPolicy(max_attempts=4))
        calls = []

        def fn(seed, max_cycles, watchdog, faults):
            calls.append(seed)
            raise ProtocolError("invariant broken")

        outcome = engine.run_cell("t:bug", fn)
        assert not outcome.ok
        assert len(calls) == 1
        assert outcome.error_class == "ProtocolError"

    def test_programming_errors_propagate(self):
        engine = RunEngine()

        def fn(seed, max_cycles, watchdog, faults):
            raise KeyError("not a simulation failure")

        with pytest.raises(KeyError):
            engine.run_cell("t:crash", fn)

    def test_failure_budget_controls_exit_code(self):
        engine = RunEngine(
            policy=RetryPolicy(max_attempts=1), failure_budget=1
        )

        def boom(seed, max_cycles, watchdog, faults):
            raise DeadlockError(7, "stuck")

        engine.run_cell("t:a", boom)
        assert engine.exit_code == 0  # 1 failure <= budget of 1
        engine.run_cell("t:b", boom)
        assert engine.exit_code == 1
        assert len(engine.failures) == 2

    def test_failure_marker_and_is_ok(self):
        engine = RunEngine(policy=RetryPolicy(max_attempts=1))

        def boom(seed, max_cycles, watchdog, faults):
            raise DeadlockError(7, "stuck")

        outcome = engine.run_cell("t:gap", boom)
        marker = outcome.failure()
        assert isinstance(marker, CellFailure)
        assert not is_ok(marker)
        assert is_ok(object())
        assert not is_ok(None)

    def test_fault_cells_glob_scopes_injection(self):
        schedule = FaultSchedule.parse(["dram.stall:nth=1"])
        engine = RunEngine(
            fault_schedule=schedule, fault_cells="spec:mcf:*"
        )
        seen = {}

        def fn(seed, max_cycles, watchdog, faults):
            seen[len(seen)] = faults
            return run_spec(
                "hmmer", ProcessorConfig(scheme=Scheme.BASE),
                instructions=300, seed=seed,
            )

        engine.run_cell("spec:mcf:IS-Sp:TSO:s0", fn)
        engine.run_cell("spec:hmmer:IS-Sp:TSO:s0", fn)
        assert seen[0] is not None  # matched the glob
        assert seen[1] is None  # did not


class TestJournalAndResume:
    def test_journal_roundtrip_and_attempt_accumulation(self, tmp_path):
        path = tmp_path / "j.json"
        journal = RunJournal(path, experiment="t")
        journal.record(
            "c1", {"status": "failed", "attempts": [{"status": "failed"}]}
        )
        # A later session extends, not replaces, the attempt history.
        reloaded = RunJournal(path)
        reloaded.record(
            "c1", {"status": "ok", "attempts": [{"status": "ok"}]}
        )
        final = RunJournal(path)
        record = final.get("c1")
        assert [a["status"] for a in record["attempts"]] == ["failed", "ok"]
        assert final.is_completed("c1")
        assert final.completed_ids() == ["c1"]
        with open(path) as handle:
            assert json.load(handle)["version"] == 1

    def test_cell_result_reconstructs_runresult_surface(self):
        result = run_spec(
            "hmmer", ProcessorConfig(scheme=Scheme.IS_SPECTRE),
            instructions=300,
        )
        view = CellResult(
            json.loads(json.dumps(capture_metrics(result)))
        )
        assert view.cycles == result.cycles
        assert view.instructions == result.instructions
        assert view.ipc == pytest.approx(result.ipc)
        assert view.traffic_bytes == result.traffic_bytes
        assert view.traffic_breakdown == dict(result.traffic_breakdown)
        assert view.count("invisispec.exposures") == result.count(
            "invisispec.exposures"
        )
        assert view.count("no.such.counter") == 0

    def test_resume_skips_completed_cells(self, tmp_path):
        path = tmp_path / "j.json"
        first = RunEngine(journal=RunJournal(path, experiment="t"))
        calls = []

        def fn(seed, max_cycles, watchdog, faults):
            calls.append(seed)
            return run_spec(
                "hmmer", ProcessorConfig(scheme=Scheme.BASE),
                instructions=300, seed=seed,
            )

        fresh = first.run_cell("t:done", fn)
        assert fresh.status == "ok" and calls == [0]

        second = RunEngine(journal=RunJournal(path), resume=True)
        cached = second.run_cell("t:done", fn)
        assert cached.status == "cached"
        assert calls == [0]  # not re-run
        assert cached.result.cycles == fresh.result.cycles

    def test_resume_reruns_failed_cells(self, tmp_path):
        path = tmp_path / "j.json"
        journal = RunJournal(path, experiment="t")
        journal.record(
            "t:bad",
            {"status": "failed", "error_class": "DeadlockError",
             "attempts": [{"status": "failed"}]},
        )
        engine = RunEngine(journal=RunJournal(path), resume=True)
        calls = []

        def fn(seed, max_cycles, watchdog, faults):
            calls.append(seed)
            return run_spec(
                "hmmer", ProcessorConfig(scheme=Scheme.BASE),
                instructions=300, seed=seed,
            )

        outcome = engine.run_cell("t:bad", fn)
        assert outcome.status == "ok"
        # The journaled failure already consumed attempt 0, so the resumed
        # attempt continues the seed-bump sequence instead of re-running
        # the seed that failed.
        assert calls == [DEFAULT_SEED_STEP]
        record = RunJournal(path).get("t:bad")
        assert record["status"] == "ok"
        assert [a["status"] for a in record["attempts"]] == ["failed", "ok"]

    def test_resume_continues_seed_sequence_across_sessions(self, tmp_path):
        # Regression for cross-session attempt accounting: a cell that
        # failed twice in a previous session must resume at attempt 2
        # (seed + 2 * step, budget * growth**2), not restart at attempt 0.
        path = tmp_path / "j.json"
        journal = RunJournal(path, experiment="t")
        journal.record(
            "t:bad",
            {"status": "failed", "error_class": "SimTimeoutError",
             "attempts": [{"status": "failed", "seed": 4},
                          {"status": "failed", "seed": 4 + DEFAULT_SEED_STEP}]},
        )
        engine = RunEngine(
            journal=RunJournal(path), resume=True, max_cycles=10_000,
            policy=RetryPolicy(max_attempts=2),
        )
        seen = []

        def fn(seed, max_cycles, watchdog, faults):
            seen.append((seed, max_cycles))
            return run_spec(
                "hmmer", ProcessorConfig(scheme=Scheme.BASE),
                instructions=300, seed=seed,
            )

        outcome = engine.run_cell("t:bad", fn, base_seed=4)
        assert outcome.status == "ok"
        assert seen == [(4 + 2 * DEFAULT_SEED_STEP, 40_000)]
        # A completed cell resets the offset: re-running it fresh (without
        # --resume) measures the requested seed again.
        fresh = RunEngine(journal=RunJournal(path))
        fresh.run_cell("t:bad", fn, base_seed=4)
        assert seen[-1] == (4, None)

    def test_interrupted_serial_cell_keeps_its_failed_attempts(self, tmp_path):
        # Each failed attempt is journaled as it fails, so an interrupt
        # mid-retry leaves the failure on record and a resume continues
        # the seed-bump sequence instead of re-running seed 0.
        path = tmp_path / "j.json"
        engine = RunEngine(
            journal=RunJournal(path, experiment="t"),
            policy=RetryPolicy(max_attempts=3),
        )
        seeds = []

        def fn(seed, max_cycles, watchdog, faults):
            seeds.append(seed)
            if len(seeds) == 1:
                raise SimTimeoutError(100, "injected")
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            engine.run_cell("t:int", fn)
        assert seeds == [0, DEFAULT_SEED_STEP]
        record = RunJournal(path).get("t:int")
        assert record is not None and record["status"] == "failed"
        assert [(a["status"], a["seed"]) for a in record["attempts"]] == [
            ("failed", 0),
        ]

        resumed = RunEngine(
            journal=RunJournal(path), resume=True,
            policy=RetryPolicy(max_attempts=3),
        )
        again = []

        def ok(seed, max_cycles, watchdog, faults):
            again.append(seed)
            return run_spec(
                "hmmer", ProcessorConfig(scheme=Scheme.BASE),
                instructions=300, seed=seed,
            )

        assert resumed.run_cell("t:int", ok).status == "ok"
        assert again == [1 * DEFAULT_SEED_STEP]

    def test_cell_id_format(self):
        cell = CellSpec(
            "spec", "mcf", ProcessorConfig(
                scheme=Scheme.IS_SPECTRE, consistency=ConsistencyModel.TSO
            ), 0,
        ).cell_id
        assert cell == "spec:mcf:IS-Sp:TSO:s0"


class TestFigure4Acceptance:
    """ISSUE acceptance: fault-injected figure-4 run + resume roundtrip."""

    APPS = ["mcf", "hmmer"]
    TARGET = "spec:mcf:IS-Sp:*"

    def _engine(self, path, **kwargs):
        return RunEngine(
            journal=RunJournal(path, experiment="figure4"),
            policy=RetryPolicy(max_attempts=1),
            max_cycles=50_000_000,
            **kwargs,
        )

    def test_fault_then_resume_reruns_only_failed_cell(self, tmp_path):
        path = tmp_path / "figure4.json"

        # Pass 1: a stuck-MSHR fault injected into exactly one cell.
        engine = self._engine(
            path,
            fault_schedule=FaultSchedule.parse(["mshr.stuck:nth=3"]),
            fault_cells=self.TARGET,
        )
        result = figures.figure4(
            apps=self.APPS, instructions=600, include_rc=False,
            engine=engine,
        )

        # The run completed and rendered, with the failed cell as a gap.
        mcf_row = next(row for row in result.rows if row[0] == "mcf")
        assert "×" in mcf_row
        hmmer_row = next(row for row in result.rows if row[0] == "hmmer")
        assert "×" not in hmmer_row
        assert len(engine.failures) == 1
        failed_id = engine.failures[0].cell_id
        assert failed_id == "spec:mcf:IS-Sp:TSO:s0:i600"
        assert engine.exit_code == 1

        # The failure is journaled with its error class and fault log.
        record = RunJournal(path).get(failed_id)
        assert record["status"] == "failed"
        assert record["error_class"] == "DeadlockError"
        assert record["attempts"][-1]["faults"] == {"mshr.stuck": 1}

        # Pass 2: --resume without faults re-runs only the failed cell.
        resumed = self._engine(path, resume=True)
        result2 = figures.figure4(
            apps=self.APPS, instructions=600, include_rc=False,
            engine=resumed,
        )
        statuses = {o.cell_id: o.status for o in resumed.outcomes}
        live = [cid for cid, status in statuses.items() if status == "ok"]
        assert live == [failed_id]  # every other cell served from journal
        assert all(
            status == "cached"
            for cid, status in statuses.items()
            if cid != failed_id
        )
        assert resumed.exit_code == 0

        # The gap is filled and the journal now shows the full history.
        mcf_row2 = next(row for row in result2.rows if row[0] == "mcf")
        assert "×" not in mcf_row2
        record = RunJournal(path).get(failed_id)
        assert record["status"] == "ok"
        assert [a["status"] for a in record["attempts"]] == ["failed", "ok"]

    def test_resumed_figure_matches_fresh_figure(self, tmp_path):
        # Journal-served metrics must reproduce the fresh numbers exactly.
        path = tmp_path / "figure4.json"
        engine = self._engine(path)
        fresh = figures.figure4(
            apps=["hmmer"], instructions=600, include_rc=False, engine=engine,
        )
        resumed_engine = self._engine(path, resume=True)
        resumed = figures.figure4(
            apps=["hmmer"], instructions=600, include_rc=False,
            engine=resumed_engine,
        )
        assert fresh.rows == resumed.rows
        assert all(o.status == "cached" for o in resumed_engine.outcomes)
