"""Stream gate: every profile's generated ops and trained predictor are pinned.

The correct-path and wrong-path streams of each SPEC and PARSEC profile
(two seeds, cores 0 and 3) and the predictor state after a full-length
pre-training walk must match ``tests/golden/stream_digests.json``, both
from the uncached walk and from the runner's per-process memo.  A
change meant to alter the streams regenerates the file with
``PYTHONPATH=src python -m tests.golden.regen_stream``.
"""

from types import SimpleNamespace

import pytest

from repro.cpu.branch import TournamentPredictor
from repro.runner import _pretrain_predictor

from ..golden.stream import (
    PRETRAIN_OPS,
    PROFILES,
    load_digests,
    predictor_digest,
    pretrain_digest,
    stream_digest,
    stream_key,
    stream_keys,
)

DIGESTS = load_digests()


def test_digests_cover_exactly_the_profiles():
    expected = {stream_key(*key) for key in stream_keys()}
    expected |= {f"pretrain/{name}" for name in PROFILES}
    assert set(DIGESTS) == expected


@pytest.mark.parametrize(
    "name,seed,core_id", stream_keys(), ids=lambda value: str(value)
)
def test_stream_matches_digest(name, seed, core_id):
    got = stream_digest(PROFILES[name], seed, core_id)
    assert got == DIGESTS[stream_key(name, seed, core_id)]


@pytest.mark.parametrize("name", list(PROFILES))
def test_pretrained_predictor_matches_digest(name):
    assert pretrain_digest(PROFILES[name]) == DIGESTS[f"pretrain/{name}"]


@pytest.mark.parametrize("name", list(PROFILES))
def test_memoised_pretraining_matches_digest(name):
    for _ in range(2):  # the second call is a memo hit
        core = SimpleNamespace(predictor=TournamentPredictor())
        _pretrain_predictor(core, PROFILES[name], 0, 0, PRETRAIN_OPS)
    assert predictor_digest(core.predictor) == DIGESTS[f"pretrain/{name}"]
