"""Workload profiles.

A :class:`WorkloadProfile` captures the features of an application that
drive InvisiSpec's costs and benefits: instruction mix, branch behaviour
(squash rate), memory footprint and locality (L1/L2 MPKI), page spread
(TLB pressure), dependence structure (speculation window length), and — for
multithreaded workloads — sharing and synchronization (coherence traffic
and consistency squashes).

Profiles are calibrated to the per-application data the paper itself
publishes: Table VI's squash rates and validation/exposure splits, and the
Section IX observations (sjeng's branch behaviour, libquantum/GemsFDTD's
~30 L1 misses per kilo-instruction, omnetpp's TLB misses, blackscholes/
swaptions' eviction-squash behaviour in the baseline).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import WorkloadError


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical description of one application's dynamic behaviour."""

    name: str
    suite: str  # "spec_int" | "spec_fp" | "parsec"
    load_frac: float = 0.25
    store_frac: float = 0.10
    branch_frac: float = 0.15
    #: Asymptotic per-branch misprediction probability once the tournament
    #: predictor has learned each branch's bias.
    branch_mispredict_target: float = 0.05
    branch_pcs: int = 256
    #: Distinct cache lines in the random-access region.
    footprint_lines: int = 4096
    #: Fraction of non-streaming accesses that hit a small hot set.
    hot_fraction: float = 0.7
    hot_lines: int = 256
    #: Fraction of memory accesses that stream sequentially (unit stride).
    stride_fraction: float = 0.0
    #: Probability a cold access lands in a recently-touched page; low
    #: values (omnetpp) thrash the 64-entry D-TLB.
    tlb_locality: float = 0.97
    #: Probability an ALU op depends on the most recent load.
    alu_dep_fraction: float = 0.4
    #: Probability a load's *address* depends on the most recent load
    #: (pointer chasing: mcf, omnetpp, canneal).
    load_dep_fraction: float = 0.0
    #: Probability a branch depends on the most recent load (long windows).
    branch_dep_fraction: float = 0.2
    #: Fraction of non-memory ops that are FP.
    fp_fraction: float = 0.0
    icache_miss_rate: float = 0.002
    #: PARSEC only: fraction of accesses that touch the shared region.
    shared_fraction: float = 0.0
    shared_lines: int = 2048
    #: PARSEC only: ops between acquire/release critical sections (0 = none).
    sync_interval: int = 0

    def __post_init__(self):
        total = self.load_frac + self.store_frac + self.branch_frac
        if not 0 < total < 1:
            raise WorkloadError(
                f"{self.name}: load+store+branch fractions must be in (0, 1), "
                f"got {total}"
            )
        for field_name in (
            "branch_mispredict_target",
            "hot_fraction",
            "stride_fraction",
            "tlb_locality",
            "alu_dep_fraction",
            "load_dep_fraction",
            "branch_dep_fraction",
            "fp_fraction",
            "icache_miss_rate",
            "shared_fraction",
        ):
            value = getattr(self, field_name)
            if not 0 <= value <= 1:
                raise WorkloadError(f"{self.name}: {field_name}={value} not in [0,1]")
        for field_name in ("footprint_lines", "hot_lines", "branch_pcs"):
            if getattr(self, field_name) <= 0:
                raise WorkloadError(f"{self.name}: {field_name} must be positive")

    @property
    def alu_frac(self):
        return 1.0 - self.load_frac - self.store_frac - self.branch_frac
