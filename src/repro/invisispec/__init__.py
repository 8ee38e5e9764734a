"""InvisiSpec: invisible speculative loads in the data cache hierarchy.

* :mod:`sb` — the per-core L1-level Speculative Buffer (Section VI-A).
* :mod:`llc_sb` — the per-core LLC Speculative Buffer with epoch IDs
  (Sections V-F and VI-C), which the system hands to the hierarchy.
* :mod:`policy` — the scheme policies of Table V: which loads are Unsafe
  Speculative Loads, when they reach their visibility point (IS-Spectre
  vs IS-Future), and whether the core gets a load engine; plus the
  fence-insertion baselines.
* :mod:`valexp` — the load engine beside the core: owns the SB, issues
  USLs, and issues validations/exposures in program order with the
  overlap rules of Section V-D, performs the value-based comparison, and
  implements the early-squash optimizations of Section V-C2.
"""

from .lifecycle import VSTATE_TRANSITIONS, advance_vstate
from .llc_sb import LLCSpeculativeBuffer
from .policy import make_scheme_policy
from .sb import SBEntry, SpeculativeBuffer
from .valexp import VisibilityEngine

__all__ = [
    "LLCSpeculativeBuffer",
    "make_scheme_policy",
    "SBEntry",
    "SpeculativeBuffer",
    "VisibilityEngine",
    "VSTATE_TRANSITIONS",
    "advance_vstate",
]
