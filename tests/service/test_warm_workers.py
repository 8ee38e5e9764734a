"""A forked pool worker's first job imports nothing.

Each job spec's module imports the modules its ``run`` computes with, so
a pool forked by a process that holds the spec modules hands its
workers every module a job needs.  The service process imports the
envelope (sim, specflow and fuzz specs); the experiments and fuzz CLIs
import the spec classes they submit.

Each check runs in a fresh interpreter that imports only the pool's
owner, starts a one-worker pool and leases one probe job per kind.  The
probe carries its inner spec pickled, so the worker's unpickling of the
spec is measured along with the spec's ``run``; it reports the names
that job added to the worker's ``sys.modules``.
"""

import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.configs import ProcessorConfig, Scheme
from repro.fuzz.cells import FuzzCellSpec
from repro.fuzz.generator import generate_programs
from repro.reliability.worker import CellSpec
from repro.service.envelope import JobRequest, SpecflowCellSpec

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)

#: Defined in the child's ``__main__``, which its fork-started workers
#: inherit, so a probe unpickles there without importing anything.
PROBE = """
import json
import pickle
import sys

sys.path.insert(0, {src!r})
{imports}


class Loaded:
    def __init__(self, names):
        self.names = names

    def to_metrics(self):
        return {{"cycles": 0, "loaded": self.names}}


class ModulesProbe:
    def __init__(self, kind, blob):
        self.cell_id = "probe:" + kind
        self.seed = 0
        self.blob = blob

    def run(self, seed, max_cycles, watchdog, faults, heartbeat=None):
        before = set(sys.modules)
        pickle.loads(self.blob).run(
            seed, max_cycles, watchdog, faults, heartbeat=heartbeat
        )
        return Loaded(sorted(set(sys.modules) - before))


BLOBS = pickle.loads(bytes.fromhex({blobs!r}))
{body}
print(json.dumps(loaded))
"""

SERVICE = """
from repro.reliability.pool import LeasePool

pool = LeasePool(workers=1).start()
try:
    loaded = {}
    for kind, blob in BLOBS:
        payload = pool.submit(ModulesProbe(kind, blob)).result(timeout=120)
        assert payload.status == "ok", payload.error_message
        loaded[kind] = payload.metrics["loaded"]
finally:
    pool.close()
"""

SUPERVISOR = """
from repro.reliability.engine import RetryPolicy, RunEngine

engine = RunEngine(policy=RetryPolicy(max_attempts=1))
outcomes = Supervisor(jobs=1).run_specs(
    engine, [ModulesProbe(kind, blob) for kind, blob in BLOBS]
)
loaded = {}
for (kind, _), outcome in zip(BLOBS, outcomes):
    assert outcome.ok, outcome.error_message
    loaded[kind] = outcome.result.metrics["loaded"]
"""


def _fuzz_program():
    return generate_programs(1, seed=0)[0].to_dict()


def _service_specs():
    requests = [
        ("sim", {"app": "mcf", "instructions": 200}),
        ("specflow", {"program": "spectre_v1"}),
        ("fuzz", {"programs": [_fuzz_program()]}),
    ]
    return [
        (kind, JobRequest(kind, payload).build_spec()[0])
        for kind, payload in requests
    ]


def _first_jobs(imports, body, specs):
    blobs = [(kind, pickle.dumps(spec)) for kind, spec in specs]
    script = PROBE.format(
        src=SRC, imports=imports, blobs=pickle.dumps(blobs).hex(), body=body,
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_service_workers_first_jobs_import_nothing():
    loaded = _first_jobs(
        "import repro.service.server", SERVICE, _service_specs()
    )
    assert loaded == {"sim": [], "specflow": [], "fuzz": []}


@pytest.mark.parametrize(
    "module, spec",
    [
        (
            "repro.reliability.worker",
            CellSpec("spec", "mcf", ProcessorConfig(scheme=Scheme.IS_FUTURE),
                     instructions=200),
        ),
        (
            "repro.fuzz.cells",
            FuzzCellSpec("fuzz:0", (json.dumps(_fuzz_program()),)),
        ),
        (
            "repro.service.envelope",
            SpecflowCellSpec("specflow:0", "spectre_v1"),
        ),
    ],
    ids=["sim", "fuzz", "specflow"],
)
def test_supervisor_workers_first_job_imports_nothing(module, spec):
    imports = (
        "from repro.reliability.supervisor import Supervisor\n"
        f"import {module}"
    )
    loaded = _first_jobs(imports, SUPERVISOR, [("job", spec)])
    assert loaded == {"job": []}
