"""Golden pin of every attack PoC and of the specflow evidence harness.

Two things are pinned bit for bit in ``poc_golden.json``:

* each PoC's full reload-latency vector and recovered value under every
  :class:`~repro.configs.Scheme` (Spectre v1 at one trial);
* the cache-line fingerprints :func:`~repro.specflow.evidence.gather_evidence`
  observes for every attack and hardened program at both of its secrets,
  with the outcome it reports.

The fingerprints are read off the harness's own load-issue probe: each
probe attached to a core is wrapped, and the wrapper records, after the
probe ran, the line of every issue that is on the wrong path or that an
:class:`~repro.invisispec.policy.ISFuturePolicy` does not judge safe --
the harness's futuristic judge.  A refactor of the PoCs or of the harness
must leave the file as it is; a change meant to alter them rewrites it
with ``PYTHONPATH=src python -m tests.security.test_poc_golden``.
"""

from __future__ import annotations

import json
import os
import re
from functools import partial

import pytest

from repro.configs import ProcessorConfig, Scheme
from repro.cpu.core import Core
from repro.invisispec.policy import ISFuturePolicy
from repro.security import POCS as REGISTRY
from repro.specflow.evidence import gather_evidence
from repro.specflow.programs import attack_programs, hardened_programs

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "poc_golden.json")

#: Each PoC's run at its default secret; Spectre v1 at one trial.
POCS = {poc.name: poc.run for poc in REGISTRY}
POCS["spectre_v1"] = partial(POCS["spectre_v1"], trials=1)

EVIDENCE_PROGRAMS = tuple(
    prog.name for prog in attack_programs() + hardened_programs()
)


def poc_snapshot(name, scheme):
    latencies, recovered = POCS[name](ProcessorConfig(scheme=scheme))
    return {"latencies": list(latencies), "recovered": recovered}


def evidence_snapshot(name, monkeypatch):
    """gather_evidence's outcome for one program, plus the fingerprint of
    each of its runs (one per secret, in run order)."""
    runs = []
    judge = ISFuturePolicy()
    attach = Core.attach_load_issue_probe

    def recording_attach(core, probe, reads):
        if core.core_id == 0:
            runs.append({})
        fingerprints = runs[-1]

        def recording_probe(core, entry, unsafe_speculative):
            probe(core, entry, unsafe_speculative)
            if entry.is_wrong_path or not judge.load_is_safe(core, entry):
                fingerprints.setdefault(f"0x{entry.op.pc:x}", set()).add(
                    entry.lq_entry.line_addr
                )

        attach(core, recording_probe, reads)

    monkeypatch.setattr(Core, "attach_load_issue_probe", recording_attach)
    (outcome,) = gather_evidence(programs=(name,))
    return {
        "outcome": outcome.to_dict(),
        "fingerprints": [
            {pc: sorted(lines) for pc, lines in sorted(run.items())}
            for run in runs
        ],
    }


def _load_golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


GOLDEN = _load_golden() if os.path.exists(GOLDEN_PATH) else None


def test_golden_covers_every_poc_and_program():
    assert sorted(GOLDEN["pocs"]) == sorted(poc.name for poc in REGISTRY)
    assert sorted(GOLDEN["evidence"]) == sorted(EVIDENCE_PROGRAMS)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
@pytest.mark.parametrize("name", sorted(POCS))
def test_poc_matches_golden(name, scheme):
    assert poc_snapshot(name, scheme) == GOLDEN["pocs"][name][scheme.value]


@pytest.mark.parametrize("name", EVIDENCE_PROGRAMS)
def test_evidence_matches_golden(name, monkeypatch):
    snapshot = evidence_snapshot(name, monkeypatch)
    assert len(snapshot["fingerprints"]) == 2
    assert snapshot == GOLDEN["evidence"][name]


def main():
    pocs = {
        name: {
            scheme.value: poc_snapshot(name, scheme) for scheme in Scheme
        }
        for name in sorted(POCS)
    }
    evidence = {}
    for name in EVIDENCE_PROGRAMS:
        with pytest.MonkeyPatch.context() as monkeypatch:
            evidence[name] = evidence_snapshot(name, monkeypatch)
    text = json.dumps({"pocs": pocs, "evidence": evidence}, indent=1,
                      sort_keys=True)
    # One line per list of numbers keeps the file short and diffable.
    text = re.sub(r"\[\s+([-\d,\s]+?)\s+\]",
                  lambda match: "[" + " ".join(match.group(1).split()) + "]",
                  text)
    with open(GOLDEN_PATH, "w") as handle:
        handle.write(text + "\n")
    print(f"wrote {len(pocs)} PoCs and {len(evidence)} programs to "
          f"{GOLDEN_PATH}")


if __name__ == "__main__":
    main()
