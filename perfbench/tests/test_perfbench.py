"""Self-tests of the benchmark: determinism, exact counts, accounting.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q

The end-to-end cases start ``perfbench/run.py`` in subprocesses (one
pass each, ``--seconds 0``) and take a few minutes in total.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import metrics as spec_tables  # noqa: E402
from perfbench import servicework, simwork  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

SIM_WORKLOADS = ("spec-base", "spec-invisispec", "parsec-8core")


def _bench(workload, trace=0, seed=0, hash_seed="0", cwd=ROOT, extra=()):
    """Run one pass of the benchmark; returns (exit code, stdout lines)."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         *extra],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.splitlines()


def _result(workload, **options):
    code, lines = _bench(workload, **options)
    assert code == 0, lines[-20:]
    return json.loads(lines[-1]), lines


_TRACED = {}


def _traced(workload, hash_seed):
    key = (workload, hash_seed)
    if key not in _TRACED:
        _TRACED[key] = _result(workload, trace=1, hash_seed=hash_seed)[0]
    return _TRACED[key]


# ------------------------------------------------------------ determinism


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
@pytest.mark.parametrize("workload", SIM_WORKLOADS)
def test_golden_snapshot_holds_under_hash_seeds(workload, hash_seed):
    result, lines = _result(workload, hash_seed=hash_seed)
    assert "golden committed" in lines[0]
    assert result["correct"] and result["failed"] == 0, lines


@pytest.mark.parametrize("workload", SIM_WORKLOADS)
def test_exact_counts_repeat_between_traced_runs(workload):
    first = _traced(workload, "0")["metrics"]
    second = _traced(workload, "4242")["metrics"]
    for name in spec_tables.EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
        assert first[name]["value"] > 0, name


def test_golden_mismatch_is_named_and_fails():
    golden = simwork.load_golden(0)
    cell = "spec-base/mcf/Base/TSO"
    changed = json.loads(json.dumps(golden[cell]))
    changed["counters"]["core.squashed_ops"] += 1
    changed["cycles"] += 1
    assert simwork.snapshot_diff(golden[cell], changed) == [
        "cycles", "counters.core.squashed_ops",
    ]
    assert simwork.snapshot_diff(golden[cell], golden[cell]) == []


def test_warmup_runs_on_top_of_the_measured_window():
    golden = simwork.load_golden(0)
    assert golden["spec-base/mcf/Base/TSO"]["instructions"] == (
        simwork.SPEC_INSTRUCTIONS * 3 // 2
    )
    assert golden["parsec-8core/canneal/IS-Fu/TSO"]["instructions"] == (
        8 * simwork.PARSEC_INSTRUCTIONS * 3 // 2
    )


def test_paper_reference_only_from_the_seeds_own_golden():
    assert simwork.load_golden(99) is None
    result, lines = _result("spec-base", seed=99)
    assert "golden absent" in lines[0]
    assert result["correct"], lines
    assert not any(line.startswith("paper reference") for line in lines)
    _, lines = _result("spec-base", seed=1)
    assert any(line.startswith("paper reference") for line in lines)


def test_runner_windows_run_the_runners_default_lengths():
    from repro.runner import DEFAULT_SPEC_INSTRUCTIONS

    result, lines = _result("spec-base", extra=["--runner-windows"])
    assert f"of {DEFAULT_SPEC_INSTRUCTIONS} SPEC" in lines[0]
    assert "golden not used at runner windows" in lines[0]
    assert result["correct"] and result["attempted"] == 4, lines


# ------------------------------------------------------------ accounting


@pytest.mark.parametrize("workload", SIM_WORKLOADS)
def test_layer_self_times_sum_to_traced_wall(workload):
    values = {
        name: metric["value"]
        for name, metric in _traced(workload, "0")["metrics"].items()
    }
    layers = sum(
        value for name, value in values.items()
        if name.startswith("layer.")
    )
    assert values["unattributed_s"] >= 0.0
    assert layers + values["unattributed_s"] == pytest.approx(
        values["trace.wall_s"], rel=1e-9
    )
    assert values["unattributed_s"] < 0.05 * values["trace.wall_s"]
    assert values["trace.overhead"] > 1.0


def test_invisispec_layer_is_bypassed_on_spec_base():
    base = _traced("spec-base", "0")["metrics"]
    invisispec = _traced("spec-invisispec", "0")["metrics"]
    for name in ("invisispec.visibility.self_s", "invisispec.sb.self_s",
                 "invisispec.llc_sb.self_s", "layer.invisispec.self_s"):
        assert base[name]["value"] == 0.0, name
        assert invisispec[name]["value"] > 0.0, name


def test_tracer_self_time_partitions_nested_spans():
    tracer = Tracer()

    def leaf():
        return sum(range(2000))

    traced_leaf = tracer.spanned("b.leaf:leaf", leaf)

    def middle():
        return traced_leaf() + traced_leaf()

    traced_middle = tracer.spanned("a.middle:middle", middle)
    with tracer.span("root.top:run") as root:
        traced_middle()
    total = sum(tracer.self_s.values())
    assert total == pytest.approx(tracer.total_s["root.top:run"], rel=1e-9)
    assert tracer.calls == {
        "b.leaf:leaf": 2, "a.middle:middle": 1, "root.top:run": 1,
    }
    by_id = {sid: (start, end) for sid, _, start, end, _, _ in tracer.spans}
    for sid, name, start, end, parent, _ in tracer.spans:
        if parent:
            assert by_id[parent][0] <= start <= end <= by_id[parent][1]
    assert root.parent is None


def test_chrome_trace_export_is_well_formed():
    _traced("spec-base", "0")
    path = os.path.join(ROOT, ".perfbench", "trace-spec-base-seed0.json")
    with open(path) as handle:
        trace = json.load(handle)
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert spans and all(e["dur"] >= 0 for e in spans)
    layers = {e["cat"] for e in spans}
    assert {"runner", "system", "sim", "cpu", "workloads"} <= layers


# --------------------------------------------------------------- service


def test_service_answers_hot_equal_cold():
    result, lines = _result("service-mixed", seed=3)
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] == len(servicework.request_mix(3))


def test_service_checker_counts_wrong_answers():
    good = servicework.Sample(1.0, False, "k", '{"a":1}', True)
    hot = servicework.Sample(0.1, True, "k", '{"a":1}', True)
    wrong = servicework.Sample(0.1, True, "k", '{"a":2}', True)
    shed = servicework.Sample(0.1, False, "j", None, False)
    passes = [servicework.ServicePass(1, 0, 1, [good, hot, wrong, shed],
                                      0.5, 0, 0)]
    assert servicework.check_answers(passes) == (2, ["k"])


def test_service_traced_run_reports_service_layers():
    values = _result("service-mixed", trace=1, seed=3)[0]["metrics"]
    for name in ("service.frontend.self_s", "service.server.self_s",
                 "service.store.get.self_s", "service.store.put.self_s",
                 "service.pool.lease_s", "layer.reliability.self_s"):
        assert values[name]["value"] > 0.0, name
    assert values["sim.kernel.self_s"]["value"] == 0.0


# ----------------------------------------------------------------- contract


def test_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    code, lines = _bench("spec-base", cwd=str(tmp_path))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
