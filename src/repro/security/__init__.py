"""Attacks and attack primitives from the paper's threat model (Sections
III-IV): cache-timing receivers (FLUSH+RELOAD, PRIME+PROBE), the Spectre
variant-1 proof of concept of Figures 1 and 5, Speculative Store Bypass,
a Meltdown-style exception attack and its Table I family for the
Futuristic model, and the cross-core LLC setting.

:data:`POCS` lists every PoC once, in name order; the specflow corpus,
the selective experiment, the examples and the tests all read it."""

from . import cross_core, exception_attacks, meltdown_style, spectre_v1, ssb
from .channel import AttackContext, PoC
from .cross_core import run_cross_core_attack
from .exception_attacks import VARIANTS, run_exception_attack
from .flush_reload import FlushReloadReceiver
from .meltdown_style import run_meltdown_style_attack
from .prime_probe import PrimeProbeReceiver
from .spectre_v1 import run_spectre_v1
from .ssb import run_ssb_attack

#: Every attack PoC (:class:`~.channel.PoC`), in name order.
POCS = tuple(sorted(
    (cross_core.POC, meltdown_style.POC, spectre_v1.POC, ssb.POC,
     *exception_attacks.POCS),
    key=lambda poc: poc.name,
))

__all__ = [
    "POCS",
    "AttackContext",
    "FlushReloadReceiver",
    "PoC",
    "PrimeProbeReceiver",
    "run_spectre_v1",
    "run_ssb_attack",
    "run_meltdown_style_attack",
    "run_cross_core_attack",
    "run_exception_attack",
    "VARIANTS",
]
