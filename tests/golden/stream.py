"""The trace-stream gate: digests of every profile's generated streams.

For each SPEC and PARSEC profile, at two seeds and core ids 0 and 3, the
digest covers the first ``STREAM_OPS`` correct-path ops (every field the
pipeline reads) and the 48-op wrong path of every ``WRONG_PATH_EVERY``-th
branch, drawn right after that branch is emitted, as the core would.  Per
profile it also covers the predictor after a ``PRETRAIN_OPS``-op
pre-training walk on seed 0, core 0: all three counter tables, the local
histories and the global history.  The digest runs the uncached walk
(``_walk_predictor``), so a memo warmed earlier in the process cannot
stand in for it.

A speed-up or refactor of the generator or the predictor must leave every
digest as it is; ``tests/workloads/test_stream_golden.py`` checks that
against ``stream_digests.json``, which ``regen_stream.py`` rewrites.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.cpu.branch.tournament import TournamentPredictor
from repro.cpu.isa import OpKind
from repro.runner import _walk_predictor
from repro.workloads import PARSEC_PROFILES, SPEC_PROFILES, SyntheticTrace

DIGEST_PATH = os.path.join(os.path.dirname(__file__), "stream_digests.json")

STREAM_OPS = 3_000
WRONG_PATH_EVERY = 50
WRONG_PATH_DEPTH = 48
PRETRAIN_OPS = 15_000
SEEDS = (0, 5)
CORES = (0, 3)

PROFILES = {**SPEC_PROFILES, **PARSEC_PROFILES}


def _fields(op):
    return (
        op.kind.value, op.pc, op.addr, op.size, op.deps, op.taken,
        op.latency, op.store_value,
    )


def _sha256(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


def stream_digest(profile, seed, core_id):
    """``{"ops": sha256, "wrong_path": sha256}`` of one core's streams."""
    trace = SyntheticTrace(profile, seed=seed, core_id=core_id)
    ops, wrong = [], []
    branches = 0
    for _ in range(STREAM_OPS):
        op = trace.next_op()
        ops.append(_fields(op))
        if op.kind is OpKind.BRANCH:
            if branches % WRONG_PATH_EVERY == 0:
                for index in range(WRONG_PATH_DEPTH):
                    wrong.append(_fields(trace.wrong_path_op(op, index)))
            branches += 1
    return {"ops": _sha256(ops), "wrong_path": _sha256(wrong)}


def pretrain_digest(profile):
    """sha256 of the predictor's state after pre-training on seed 0, core 0."""
    predictor = TournamentPredictor()
    _walk_predictor(predictor, profile, 0, 0, PRETRAIN_OPS)
    return predictor_digest(predictor)


def predictor_digest(predictor):
    """sha256 of a predictor's tables and global history."""
    return _sha256((
        predictor._local_history, predictor._local_counters,
        predictor._global_counters, predictor._choice_counters,
        predictor.global_history,
    ))


def stream_key(name, seed, core_id):
    return f"{PROFILES[name].suite}/{name}/s{seed}/c{core_id}"


def stream_keys():
    return [
        (name, seed, core_id)
        for name in PROFILES for seed in SEEDS for core_id in CORES
    ]


def compute_digests():
    digests = {
        stream_key(name, seed, core_id): stream_digest(
            PROFILES[name], seed, core_id
        )
        for name, seed, core_id in stream_keys()
    }
    for name, profile in PROFILES.items():
        digests[f"pretrain/{name}"] = pretrain_digest(profile)
    return digests


def load_digests():
    with open(DIGEST_PATH) as handle:
        return json.load(handle)


def write_digests(digests):
    """One line per entry, so a change shows up as a reviewable diff."""
    lines = ",\n".join(
        f"{json.dumps(name)}: {json.dumps(digests[name], sort_keys=True)}"
        for name in sorted(digests)
    )
    with open(DIGEST_PATH, "w") as handle:
        handle.write("{\n" + lines + "\n}\n")
