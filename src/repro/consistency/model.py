"""Consistency-policy interface.

The consistency model decides three things in this simulator
(Sections II-B and V-C of the paper):

1. Whether the post-retirement write buffer drains FIFO (TSO) or relaxed
   (RC).
2. Whether the *baseline* core squashes a performed-but-not-retired load
   when the load's line is invalidated (or evicted).
3. Whether a USL must be made visible with a *validation* or is allowed the
   cheaper *exposure* — evaluated at the time the USL issues its read.
"""

from __future__ import annotations

from ..configs import ConsistencyModel
from ..errors import ConfigError


class ConsistencyPolicy:
    """Abstract consistency policy; one instance per core."""

    name = "abstract"
    fifo_write_buffer = True
    #: The core trackers this model queries (:mod:`repro.cpu.tracking`).
    reads = frozenset()

    def squash_on_invalidation(self, core, lq_entry):
        """Baseline behaviour: squash this performed, unretired load?"""
        raise NotImplementedError

    def usl_needs_validation(self, core, lq_entry, optimization_enabled):
        """Must this USL validate (True) or may it expose (False)?

        Evaluated when the USL initiates its speculative read
        (Section V-C); ``optimization_enabled`` gates the Section V-C1
        validation-to-exposure transformation.
        """
        raise NotImplementedError


def make_consistency_policy(model):
    from .rc import RCPolicy
    from .tso import TSOPolicy

    if model is ConsistencyModel.TSO:
        return TSOPolicy()
    if model is ConsistencyModel.RC:
        return RCPolicy()
    raise ConfigError(f"unknown consistency model {model!r}")
