"""Architecture parameters of the simulated machine.

The defaults reproduce Table IV of the InvisiSpec paper (MICRO 2018):

========================  =====================================================
Parameter                 Value
========================  =====================================================
Architecture              1 core (SPEC) or 8 cores (PARSEC) at 2.0 GHz
Core                      8-issue, out-of-order, no SMT, 32 LQ entries, 32 SQ
                          entries, 192 ROB entries, tournament branch
                          predictor, 4096 BTB entries, 16 RAS entries
Private L1-I cache        32 KB, 64 B line, 4-way, 1 cycle round trip
Private L1-D cache        64 KB, 64 B line, 8-way, 1 cycle RT, 3 rd/wr ports
Shared L2 (LLC)           per core: 2 MB bank, 64 B line, 16-way, 8 cycles RT
                          local, 16 cycles RT remote (max)
Network                   4x2 mesh, 128-bit links, 1 cycle per hop
Coherence                 directory-based MESI
DRAM                      50 ns round trip after L2 (100 cycles at 2 GHz)
========================  =====================================================

Every structure in the simulator takes its geometry from these dataclasses,
so experiments can sweep any of them.  The L1-I row is the paper's
parameter; like the paper, which evaluates the data hierarchy, the
simulator models instruction fetch as NoC traffic at each workload's
L1-I miss rate (:mod:`repro.cpu.icache`), not as a cache array.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .errors import ConfigError


def _positive(name, value):
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")


def _power_of_two(name, value):
    if value <= 0 or value & (value - 1):
        raise ConfigError(f"{name} must be a power of two, got {value!r}")


@dataclass(frozen=True)
class CacheParams:
    """Geometry and timing of one cache array."""

    size_bytes: int
    line_bytes: int = 64
    ways: int = 8
    round_trip_latency: int = 1
    ports: int = 3

    def __post_init__(self):
        _positive("size_bytes", self.size_bytes)
        _power_of_two("line_bytes", self.line_bytes)
        _positive("ways", self.ways)
        _positive("round_trip_latency", self.round_trip_latency)
        _positive("ports", self.ports)
        if self.size_bytes % (self.line_bytes * self.ways):
            raise ConfigError(
                "cache size must be divisible by line_bytes * ways: "
                f"{self.size_bytes} / ({self.line_bytes} * {self.ways})"
            )

    @property
    def num_lines(self):
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self):
        return self.num_lines // self.ways


@dataclass(frozen=True)
class CoreParams:
    """Out-of-order core resources (Table IV, row "Core")."""

    issue_width: int = 8
    rob_entries: int = 192
    load_queue_entries: int = 32
    store_queue_entries: int = 32
    btb_entries: int = 4096
    ras_entries: int = 16
    branch_resolve_latency: int = 2
    fp_alu_latency: int = 3
    mshr_entries: int = 16
    write_buffer_entries: int = 16
    interrupt_interval: int = 0  # cycles between timer interrupts; 0 = off
    #: Hardware stride-prefetch degree; 0 disables the prefetcher (the
    #: paper's configuration).  Under InvisiSpec the prefetcher may only be
    #: trained and triggered by *visible* accesses (Section VI-B).
    prefetch_degree: int = 0

    def __post_init__(self):
        for name in (
            "issue_width",
            "rob_entries",
            "load_queue_entries",
            "store_queue_entries",
            "btb_entries",
            "ras_entries",
            "branch_resolve_latency",
            "fp_alu_latency",
            "mshr_entries",
            "write_buffer_entries",
        ):
            _positive(name, getattr(self, name))
        if self.interrupt_interval < 0:
            raise ConfigError("interrupt_interval must be >= 0")
        if self.prefetch_degree < 0:
            raise ConfigError("prefetch_degree must be >= 0")


@dataclass(frozen=True)
class TLBParams:
    """Data TLB geometry and page-walk cost."""

    entries: int = 64
    page_bytes: int = 4096
    walk_latency: int = 60

    def __post_init__(self):
        _positive("entries", self.entries)
        _power_of_two("page_bytes", self.page_bytes)
        _positive("walk_latency", self.walk_latency)


@dataclass(frozen=True)
class NetworkParams:
    """Mesh network-on-chip parameters (Table IV, row "Network")."""

    mesh_cols: int = 4
    mesh_rows: int = 2
    link_bits: int = 128
    hop_latency: int = 1
    control_message_bytes: int = 8
    data_message_bytes: int = 72  # 64 B line + 8 B header

    def __post_init__(self):
        _positive("mesh_cols", self.mesh_cols)
        _positive("mesh_rows", self.mesh_rows)
        _positive("link_bits", self.link_bits)
        _positive("hop_latency", self.hop_latency)
        _positive("control_message_bytes", self.control_message_bytes)
        _positive("data_message_bytes", self.data_message_bytes)

    @property
    def num_nodes(self):
        return self.mesh_cols * self.mesh_rows


@dataclass(frozen=True)
class SystemParams:
    """Full simulated machine: cores, cache hierarchy, NoC, DRAM.

    ``l2_banks`` defaults to the number of cores (one bank per core, per the
    paper).  When running single-core SPEC workloads the paper enables only
    one bank of the shared cache; :func:`for_spec` does the same.
    """

    num_cores: int = 8
    frequency_ghz: float = 2.0
    core: CoreParams = field(default_factory=CoreParams)
    l1d: CacheParams = field(
        default_factory=lambda: CacheParams(
            size_bytes=64 * 1024, ways=8, round_trip_latency=1, ports=3
        )
    )
    l2_bank: CacheParams = field(
        default_factory=lambda: CacheParams(
            size_bytes=2 * 1024 * 1024, ways=16, round_trip_latency=8, ports=1
        )
    )
    l2_banks: int = 0  # 0 means "one bank per core"
    tlb: TLBParams = field(default_factory=TLBParams)
    network: NetworkParams = field(default_factory=NetworkParams)
    dram_latency: int = 100  # 50 ns at 2 GHz
    l2_remote_max_latency: int = 16

    def __post_init__(self):
        _positive("num_cores", self.num_cores)
        _positive("dram_latency", self.dram_latency)
        if self.frequency_ghz <= 0:
            raise ConfigError("frequency_ghz must be positive")
        if self.l2_banks < 0:
            raise ConfigError("l2_banks must be >= 0")
        if self.num_cores > self.network.num_nodes:
            raise ConfigError(
                f"{self.num_cores} cores do not fit a "
                f"{self.network.mesh_cols}x{self.network.mesh_rows} mesh"
            )
        if self.l1d.line_bytes != self.l2_bank.line_bytes:
            raise ConfigError("L1 and L2 must use the same line size")

    @property
    def num_l2_banks(self):
        return self.l2_banks or self.num_cores

    @property
    def line_bytes(self):
        return self.l1d.line_bytes

    def replace(self, **kwargs) -> "SystemParams":
        """Return a copy of these parameters with fields overridden."""
        return dataclasses.replace(self, **kwargs)

    @classmethod
    def for_spec(cls, **overrides) -> "SystemParams":
        """Single-core configuration used for SPEC runs (one L2 bank)."""
        defaults = dict(num_cores=1, l2_banks=1)
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def for_parsec(cls, **overrides) -> "SystemParams":
        """Eight-core configuration used for PARSEC runs."""
        defaults = dict(num_cores=8)
        defaults.update(overrides)
        return cls(**defaults)
