"""A cell id names every input of its cell; an engine runs a cell once.

The id decides what ``--resume`` serves, what ``--fault-cells`` globs
match and what an engine shares between experiments, so two cells whose
results can differ must never share one.
"""

import fnmatch
import os
import pickle
import subprocess
import sys

import pytest

from repro.configs import ConsistencyModel, ProcessorConfig, Scheme
from repro.errors import DeadlockError
from repro.params import SystemParams
from repro.reliability import (
    CellSpec,
    RetryPolicy,
    RunEngine,
    RunJournal,
    Supervisor,
)
from repro.reliability.engine import DEFAULT_SEED_STEP
from repro.runner import run_spec

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)
IS_SP = ProcessorConfig(scheme=Scheme.IS_SPECTRE)


def _id(**kwargs):
    config = kwargs.pop("config", IS_SP)
    return CellSpec("spec", "mcf", config, **kwargs).cell_id


class TestCellId:
    def test_defaults_keep_the_plain_id(self):
        assert _id() == "spec:mcf:IS-Sp:TSO:s0"
        rc = ProcessorConfig(
            scheme=Scheme.IS_FUTURE, consistency=ConsistencyModel.RC
        )
        assert CellSpec("parsec", "canneal", rc, seed=3).cell_id == (
            "parsec:canneal:IS-Fu:RC:s3"
        )

    def test_window_is_named(self):
        assert _id(instructions=600) == "spec:mcf:IS-Sp:TSO:s0:i600"
        assert _id(instructions=600) != _id(instructions=3000)

    @pytest.mark.parametrize("override", [
        {"sanitize": "strict"},
        {"config": ProcessorConfig(
            scheme=Scheme.IS_SPECTRE, llc_sb_enabled=False)},
        {"config": ProcessorConfig(
            scheme=Scheme.IS_SPECTRE, val_to_exp_optimization=False)},
        {"config": ProcessorConfig(
            scheme=Scheme.IS_SPECTRE, early_squash=False)},
        {"config": ProcessorConfig(
            scheme=Scheme.IS_SPECTRE, protected_pcs={0x40})},
        {"params": SystemParams.for_spec()},
        {"params": SystemParams.for_spec(dram_latency=200)},
    ], ids=[
        "sanitize", "no-llc-sb", "no-val-to-exp", "no-early-squash",
        "protected-pcs", "params", "params-dram-200",
    ])
    def test_every_other_input_adds_a_digest(self, override):
        plain = _id(instructions=600)
        cell = _id(instructions=600, **override)
        prefix, digest = cell.rsplit(":", 1)
        assert prefix == plain
        assert len(digest) == 10 and int(digest, 16) >= 0
        assert fnmatch.fnmatch(cell, "spec:mcf:IS-Sp:*")

    def test_distinct_inputs_get_distinct_ids(self):
        ids = [
            _id(),
            _id(sanitize="strict"),
            _id(sanitize="record"),
            _id(config=ProcessorConfig(
                scheme=Scheme.IS_SPECTRE, llc_sb_enabled=False)),
            _id(config=ProcessorConfig(
                scheme=Scheme.IS_SPECTRE, early_squash=False)),
            _id(config=ProcessorConfig(
                scheme=Scheme.IS_SPECTRE, protected_pcs={0x40})),
            _id(config=ProcessorConfig(
                scheme=Scheme.IS_SPECTRE, protected_pcs={0x44})),
            _id(params=SystemParams.for_spec()),
            _id(params=SystemParams.for_spec(dram_latency=200)),
        ]
        assert len(set(ids)) == len(ids)

    def test_equal_inputs_get_equal_ids(self):
        pcs = list(range(0x100, 0x400, 4))
        forward = ProcessorConfig(scheme=Scheme.SELECTIVE, protected_pcs=pcs)
        backward = ProcessorConfig(
            scheme=Scheme.SELECTIVE, protected_pcs=reversed(pcs)
        )
        assert _id(config=forward) == _id(config=backward)
        spec = CellSpec(
            "spec", "mcf", forward, instructions=600,
            params=SystemParams.for_spec(dram_latency=200),
        )
        assert pickle.loads(pickle.dumps(spec)).cell_id == spec.cell_id

    def test_id_is_the_same_under_every_hash_seed(self):
        script = (
            "from repro.configs import ProcessorConfig, Scheme\n"
            "from repro.params import SystemParams\n"
            "from repro.reliability import CellSpec\n"
            "config = ProcessorConfig(scheme=Scheme.SELECTIVE,\n"
            "    protected_pcs=range(0x100, 0x400, 4), early_squash=False)\n"
            "print(CellSpec('spec', 'mcf', config, instructions=600,\n"
            "    sanitize='record',\n"
            "    params=SystemParams.for_spec(dram_latency=200)).cell_id)\n"
        )
        ids = set()
        for hashseed in ("0", "1", "4242"):
            env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hashseed)
            ids.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert len(ids) == 1


class TestEngineServesFinishedCells:
    def test_a_finished_cell_runs_once(self):
        engine = RunEngine(policy=RetryPolicy(max_attempts=1))
        calls = []

        def fn(seed, max_cycles, watchdog, faults):
            calls.append(seed)
            return run_spec(
                "hmmer", ProcessorConfig(), instructions=300, seed=seed
            )

        fresh = engine.run_cell("t:done", fn)
        again = engine.run_cell("t:done", fn)
        assert (fresh.status, again.status) == ("ok", "cached")
        assert calls == [0]
        assert again.result is fresh.result

    def test_a_failed_cell_is_reattempted_along_its_seed_sequence(
        self, tmp_path
    ):
        engine = RunEngine(
            journal=RunJournal(tmp_path / "j.json"),
            policy=RetryPolicy(max_attempts=1),
        )
        seeds = []

        def fn(seed, max_cycles, watchdog, faults):
            seeds.append(seed)
            raise DeadlockError(0, "injected")

        assert engine.run_cell("t:bad", fn).status == "failed"
        assert engine.run_cell("t:bad", fn).status == "failed"
        assert seeds == [0, DEFAULT_SEED_STEP]
        assert len(engine.failures) == 2

    def test_the_supervisor_path_serves_them_too(self):
        supervisor = Supervisor(jobs=2, heartbeat_timeout=60.0)
        engine = RunEngine(
            policy=RetryPolicy(max_attempts=1), supervisor=supervisor
        )
        specs = [
            CellSpec("spec", app, ProcessorConfig(), instructions=200)
            for app in ("hmmer", "mcf")
        ]
        fresh = engine.run_specs(specs)
        spawned = supervisor.stats["workers_spawned"]
        again = engine.run_specs(specs)
        assert [o.status for o in fresh] == ["ok", "ok"]
        assert [o.status for o in again] == ["cached", "cached"]
        assert supervisor.stats["workers_spawned"] == spawned == 2
        assert [o.result.cycles for o in again] == [
            o.result.cycles for o in fresh
        ]
