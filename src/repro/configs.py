"""Processor security configurations (Table V of the paper).

=======  ===================  ====================================================
Name     Paper name           Meaning
=======  ===================  ====================================================
BASE     UnsafeBaseline       Conventional, insecure baseline processor.
FE_SP    Fence-Spectre        A fence after every indirect/conditional branch.
IS_SP    InvisiSpec-Spectre   USLs modify only the speculative buffer and are
                              made visible once all preceding branches resolve.
FE_FU    Fence-Future         A fence before every load instruction.
IS_FU    InvisiSpec-Future    USLs modify only the speculative buffer and are
                              made visible once non-speculative or speculative
                              non-squashable.
=======  ===================  ====================================================

A :class:`ProcessorConfig` couples a defense scheme with a memory consistency
model and the InvisiSpec feature toggles used by the ablation benchmarks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import ConfigError


class Scheme(enum.Enum):
    """Defense scheme implemented by the core and memory system."""

    BASE = "Base"
    FENCE_SPECTRE = "Fe-Sp"
    IS_SPECTRE = "IS-Sp"
    FENCE_FUTURE = "Fe-Fu"
    IS_FUTURE = "IS-Fu"
    #: Analysis-guided selective protection (repro.specflow): only loads
    #: whose static PC the speculative-taint analysis flags as a possible
    #: transmitter take the InvisiSpec USL path; every other load uses the
    #: baseline fast path.  Futuristic-strength on the protected PCs.
    SELECTIVE = "IS-Sel"

    @property
    def is_invisispec(self):
        return self in (Scheme.IS_SPECTRE, Scheme.IS_FUTURE, Scheme.SELECTIVE)


class ConsistencyModel(enum.Enum):
    """Memory consistency model of the baseline machine (Section II-B)."""

    TSO = "TSO"
    RC = "RC"


#: The five simulated processor configurations, in the paper's bar order.
ALL_SCHEMES = (
    Scheme.BASE,
    Scheme.FENCE_SPECTRE,
    Scheme.IS_SPECTRE,
    Scheme.FENCE_FUTURE,
    Scheme.IS_FUTURE,
)


@dataclass(frozen=True)
class ProcessorConfig:
    """A security scheme plus consistency model and feature toggles.

    The three boolean toggles correspond to the paper's optimizations and are
    only meaningful for the InvisiSpec schemes; the ablation benchmarks
    disable them one at a time:

    * ``llc_sb_enabled`` — per-core LLC speculative buffer (Section V-F).
    * ``val_to_exp_optimization`` — transform a validation into an exposure
      when no earlier load is outstanding (Section V-C1).
    * ``early_squash`` — squash validation-needing USLs when their line is
      invalidated (Section V-C2).

    ``protected_pcs`` is only meaningful for :attr:`Scheme.SELECTIVE`: the
    static load PCs the specflow analysis classified TRANSMIT/UNKNOWN.
    Loads at these PCs take the USL path; all others use the fast path.
    """

    scheme: Scheme = Scheme.BASE
    consistency: ConsistencyModel = ConsistencyModel.TSO
    llc_sb_enabled: bool = True
    val_to_exp_optimization: bool = True
    early_squash: bool = True
    protected_pcs: frozenset = frozenset()

    def __post_init__(self):
        if not isinstance(self.scheme, Scheme):
            raise ConfigError(f"scheme must be a Scheme, got {self.scheme!r}")
        if not isinstance(self.consistency, ConsistencyModel):
            raise ConfigError(
                f"consistency must be a ConsistencyModel, got {self.consistency!r}"
            )
        if not isinstance(self.protected_pcs, frozenset):
            # Accept any iterable of ints but store the hashable form the
            # frozen dataclass (and the reliability layer's pickling) needs.
            object.__setattr__(
                self, "protected_pcs", frozenset(self.protected_pcs)
            )

    @property
    def name(self):
        return f"{self.scheme.value}/{self.consistency.value}"

    @property
    def is_invisispec(self):
        return self.scheme.is_invisispec


def config_matrix(consistency=ConsistencyModel.TSO):
    """The five Table V configurations under one consistency model."""
    return [ProcessorConfig(scheme=s, consistency=consistency) for s in ALL_SCHEMES]
