"""Figure 5: access latency measured by the Spectre v1 attacker.

Median per-line reload latency over the attack trials, for the insecure
baseline and for InvisiSpec-Spectre, with the secret V = 84.  Under Base
only line 84 is fast; under IS-Sp every line misses — the transient loads
never touched the cache hierarchy.
"""

from __future__ import annotations

from ..configs import ProcessorConfig, Scheme
from ..security.spectre_v1 import NUM_VALUES, run_spectre_v1
from .common import ExperimentResult


def run(secret=84, trials=3, sample_every=8, **_ignored):
    """Regenerate Figure 5; rows sample every ``sample_every`` indices (the
    full 256-point series is in ``extras``)."""
    base_lat, base_guess = run_spectre_v1(
        ProcessorConfig(scheme=Scheme.BASE), secret=secret, trials=trials
    )
    issp_lat, issp_guess = run_spectre_v1(
        ProcessorConfig(scheme=Scheme.IS_SPECTRE), secret=secret,
        trials=trials,
    )

    headers = ["array index", "Base latency (cycles)", "IS-Sp latency (cycles)"]
    indices = sorted(set(range(0, NUM_VALUES, sample_every)) | {secret})
    rows = [[i, base_lat[i], issp_lat[i]] for i in indices]

    notes = (
        f"Secret value is {secret}.  Base recovers {base_guess!r}; "
        f"IS-Sp recovers {issp_guess!r}.  In the paper only the secret's "
        "line hits (<40 cycles) under Base while every access goes to "
        "memory (>150 cycles) under IS-Sp."
    )
    return ExperimentResult(
        "figure5",
        "Figure 5: Spectre v1 PoC access latencies",
        headers,
        rows,
        notes=notes,
        extras={
            "base": base_lat,
            "is_sp": issp_lat,
            "base_guess": base_guess,
            "is_sp_guess": issp_guess,
            "secret": secret,
        },
    )
