"""The generator's bounded draws equal ``random.Random.randrange``.

``SyntheticTrace`` writes each ``rng.randrange(n)`` out as the rejection
loop CPython runs for it: ``getrandbits(n.bit_length())`` until the value
is below ``n``.  These tests pin that equivalence for small bounds and for
every bound the generator draws below: same values, and the same generator
state after.  They also pin that reseeding one generator, as each
wrong-path op does, starts it where a fresh ``Random(seed)`` starts.
"""

import random

import pytest

from repro.workloads import PARSEC_PROFILES, SPEC_PROFILES
from repro.workloads import generator
from repro.workloads.generator import SyntheticTrace

SEEDS = (0, 1, 0x9E3779B1, 2**40 + 7)
DRAWS = 64


def rejection_draw(getrandbits, bound, bits):
    """The loop as the generator writes it inline."""
    value = getrandbits(bits)
    while value >= bound:
        value = getrandbits(bits)
    return value


def _assert_same_draws(bound, seed):
    inline, reference = random.Random(seed), random.Random(seed)
    bits = bound.bit_length()
    for _ in range(DRAWS):
        got = rejection_draw(inline.getrandbits, bound, bits)
        assert got == reference.randrange(bound), (bound, seed)
        # Interleave an unbounded draw, as the generator does.
        assert inline.random() == reference.random()
    assert inline.getstate() == reference.getstate()


def _generator_bounds():
    bounds = {
        generator._PC_SLOTS,
        generator._WP_PC_SLOTS,
        generator._WORDS_PER_LINE,
        generator._STORE_VALUES,
        generator._LINES_PER_PAGE,
    }
    # The recent-page pick draws below the window's current length.
    bounds.update(range(1, SyntheticTrace._RECENT_PAGE_WINDOW + 1))
    for profile in (*SPEC_PROFILES.values(), *PARSEC_PROFILES.values()):
        bounds.update((
            profile.footprint_lines,
            min(profile.hot_lines, profile.footprint_lines),
            profile.shared_lines,
            profile.branch_pcs,
        ))
    return sorted(bounds)


@pytest.mark.parametrize("seed", SEEDS)
def test_small_bounds_match_randrange(seed):
    for bound in range(1, 301):
        _assert_same_draws(bound, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_generator_bounds_match_randrange(seed):
    for bound in _generator_bounds():
        _assert_same_draws(bound, seed)



def test_reseeding_matches_a_fresh_generator():
    reused = random.Random(0)
    # A wrong-path seed: seed 6, core 3, the 5000th branch, op 47.
    wrong_path_seed = 7 * 2_654_435_761 + 3 * 97 + 5000 * 1_000_003 + 47
    for seed in (*SEEDS, wrong_path_seed):
        reused.random()
        reused.seed(seed)
        assert reused.getstate() == random.Random(seed).getstate()
