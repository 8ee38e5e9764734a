"""Bit-identical stats across interpreters with different hash seeds.

The reprolint ``unordered-iteration`` rule exists because set iteration
order follows PYTHONHASHSEED; this test is the dynamic proof that the
simulator has no such dependence left.  Small cells run in two *fresh
interpreter processes* with different, explicit PYTHONHASHSEED values;
every counter and the cycle count must match exactly — not
approximately.  The cells are a Figure-4 cell (one SPEC app under
IS-Spectre/TSO), the same app under IS-Future/RC (exposures, the cached
visibility point) and a short 8-core IS-Future PARSEC cell (coherence
between eight requesters).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[2] / "src")

_CELL_SCRIPT = """
import json, sys
from repro.configs import ConsistencyModel, ProcessorConfig, Scheme
from repro.runner import run_parsec, run_spec

result = {call}
fingerprint = {{
    "cycles": result.cycles,
    "instructions": result.instructions,
    "traffic": result.traffic_breakdown,
    "counters": dict(sorted(result.counters.as_dict().items())),
}}
json.dump(fingerprint, sys.stdout, sort_keys=True)
"""

#: Cell name -> the runner call the script makes.
_CELLS = {
    "spec-mcf-IS-Sp-TSO": (
        'run_spec("mcf", ProcessorConfig(scheme=Scheme.IS_SPECTRE, '
        "consistency=ConsistencyModel.TSO), instructions=1500, seed=7)"
    ),
    "spec-mcf-IS-Fu-RC": (
        'run_spec("mcf", ProcessorConfig(scheme=Scheme.IS_FUTURE, '
        "consistency=ConsistencyModel.RC), instructions=1500, seed=7)"
    ),
    "parsec-canneal-8c-IS-Fu-TSO": (
        'run_parsec("canneal", ProcessorConfig(scheme=Scheme.IS_FUTURE, '
        "consistency=ConsistencyModel.TSO), instructions=150, seed=7, "
        "pretrain_ops=2000)"
    ),
}


def _run_cell(hashseed, cell="spec-mcf-IS-Sp-TSO"):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = _SRC
    proc = subprocess.run(
        [sys.executable, "-c", _CELL_SCRIPT.format(call=_CELLS[cell])],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.slow
def test_stats_identical_across_hash_seeds():
    a = _run_cell(1)
    b = _run_cell(424242)
    assert a["cycles"] == b["cycles"]
    assert a["counters"] == b["counters"]
    assert a["traffic"] == b["traffic"]
    assert a == b


@pytest.mark.slow
@pytest.mark.parametrize(
    "cell", ["spec-mcf-IS-Fu-RC", "parsec-canneal-8c-IS-Fu-TSO"]
)
def test_is_future_cells_identical_across_hash_seeds(cell):
    assert _run_cell(1, cell) == _run_cell(424242, cell)
