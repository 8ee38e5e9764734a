"""System assembly: cores + cache hierarchy + NoC + DRAM from parameters.

:class:`System` wires a :class:`~repro.sim.SimKernel`, the shared
:class:`~repro.mem.MemoryImage`, the :class:`~repro.coherence.CacheHierarchy`
and one :class:`~repro.cpu.Core` per trace source, then runs to completion.
This is the main entry point of the library's public API::

    from repro import System, SystemParams, ProcessorConfig, Scheme

    system = System(
        params=SystemParams.for_spec(),
        config=ProcessorConfig(scheme=Scheme.IS_FUTURE),
        traces=[my_trace_source],
    )
    result = system.run()
    print(result.cycles, result.ipc)
"""

from __future__ import annotations

from .configs import ProcessorConfig
from .coherence.hierarchy import CacheHierarchy
from .cpu.core import Core
from .errors import ConfigError, SimulationError
from .invisispec.llc_sb import LLCSpeculativeBuffer
from .mem.address import AddressSpace
from .mem.memimage import MemoryImage
from .params import SystemParams
from .sanitizer import make_sanitizer
from .sim.kernel import SimKernel
from .stats.counters import Counters


class RunResult:
    """Outcome of one simulation run.

    When a warmup phase was configured, ``cycles``, ``counters`` (exposed
    via :meth:`count`), and the traffic numbers all refer to the measured
    region only — the paper likewise skips a warmup prefix before its
    1-billion-instruction measurement window.
    """

    def __init__(self, cycles, counters, cores, hierarchy, warmup_snapshot=None):
        self.total_cycles = cycles
        self.counters = counters
        self.cores = cores
        self.hierarchy = hierarchy
        self._snapshot = warmup_snapshot or {}

    @property
    def cycles(self):
        return self.total_cycles - self._snapshot.get("cycle", 0)

    def count(self, name):
        """A counter value for the measured (post-warmup) region."""
        return self.counters.get(name) - self._snapshot.get("counters", {}).get(
            name, 0
        )

    @property
    def instructions(self):
        return sum(core.retired_instructions - core.warmup_instructions
                   for core in self.cores)

    @property
    def ipc(self):
        return self.instructions / max(self.cycles, 1)  # reprolint: disable=float-cycles -- IPC is a reported metric; nothing cycle-affecting consumes this float

    @property
    def traffic_bytes(self):
        snap = self._snapshot.get("traffic", {})
        return self.hierarchy.noc.total_bytes - sum(snap.values())

    @property
    def traffic_breakdown(self):
        snap = self._snapshot.get("traffic", {})
        return {
            category: count - snap.get(category, 0)
            for category, count in self.hierarchy.noc.traffic_breakdown().items()
        }

    def __repr__(self):
        return (
            f"RunResult(cycles={self.cycles}, instructions={self.instructions}, "
            f"ipc={self.ipc:.3f}, traffic={self.traffic_bytes}B)"
        )


class System:
    """A simulated multiprocessor running one trace source per core."""

    def __init__(
        self,
        params,
        config,
        traces,
        max_instructions=None,
        warmup_instructions=0,
        icache_miss_rate=0.0,
        memory_init=None,
        tracelog=None,
        faults=None,
        watchdog=None,
        heartbeat=None,
        sanitizer=None,
    ):
        if not isinstance(params, SystemParams):
            raise ConfigError(f"params must be SystemParams, got {params!r}")
        if not isinstance(config, ProcessorConfig):
            raise ConfigError(f"config must be ProcessorConfig, got {config!r}")
        if len(traces) != params.num_cores:
            raise ConfigError(
                f"{len(traces)} trace sources for {params.num_cores} cores"
            )
        self.params = params
        self.config = config
        self.kernel = SimKernel()
        # Reliability hooks: a FaultInjector perturbing the hierarchy/kernel
        # and a wall-clock watchdog callback (see repro.reliability).
        self.faults = faults
        if faults is not None:
            faults.bind(self.kernel)
            self.kernel.faults = faults
        if watchdog is not None:
            self.kernel.watchdog = watchdog
        if heartbeat is not None:
            self.kernel.heartbeat = heartbeat
        self.counters = Counters()
        self.space = AddressSpace(
            line_bytes=params.line_bytes, page_bytes=params.tlb.page_bytes
        )
        self.image = MemoryImage(self.space)
        if memory_init:
            for addr, value in memory_init.items():
                self.image.write_bytes(addr, [value] if isinstance(value, int) else value)
        self.hierarchy = CacheHierarchy(
            params, self.kernel, self.image, self.counters, faults=faults
        )
        self.warmup_instructions = warmup_instructions
        self._warmup_pending = params.num_cores if warmup_instructions else 0
        self._warmup_snapshot = None
        total_budget = (
            max_instructions + warmup_instructions
            if max_instructions is not None
            else None
        )
        self.cores = []
        for core_id, trace in enumerate(traces):
            core = Core(
                core_id,
                params,
                config,
                self.kernel,
                self.hierarchy,
                trace,
                self.counters,
                max_instructions=total_budget,
                icache_miss_rate=icache_miss_rate,
                warmup_instructions=warmup_instructions,
                on_warmup_done=self._core_warmed_up,
                tracelog=tracelog,
            )
            self.cores.append(core)
            self.kernel.register(core)
        if config.is_invisispec and config.llc_sb_enabled:
            self.hierarchy.set_llc_sbs([
                LLCSpeculativeBuffer(
                    params.core.load_queue_entries,
                    access_latency=params.l2_bank.round_trip_latency,
                )
                for _ in self.cores
            ])
        # Optional runtime invariant sanitizer (repro.sanitizer): accepts a
        # Sanitizer instance or a mode string ("strict" / "record").
        self.sanitizer = make_sanitizer(sanitizer)
        if self.sanitizer is not None:
            self.sanitizer.install(self)
        self._released = False

    def _core_warmed_up(self, _core_id):
        """Snapshot counters once every core finished its warmup prefix."""
        self._warmup_pending -= 1
        if self._warmup_pending == 0:
            # Sleeping cores owe the ticks the kernel skipped.
            self.kernel.settle()
            self._warmup_snapshot = {
                "cycle": self.kernel.cycle,
                "counters": dict(self.counters.as_dict()),
                "traffic": dict(self.hierarchy.noc.traffic_breakdown()),
            }

    def run(self, max_cycles=None):
        """Run every core to completion; returns a :class:`RunResult`.

        Raises :class:`~repro.errors.SimTimeoutError` when ``max_cycles``
        (or an installed wall-clock watchdog) trips, and
        :class:`~repro.errors.DeadlockError` on a genuine lack of forward
        progress.  A System runs once: whether the run returns or raises,
        it then releases its back-edges (:meth:`release`), and a second
        call raises :class:`~repro.errors.SimulationError`.
        """
        if self._released:
            raise SimulationError(
                "System.run() called twice; build a new System per run"
            )
        try:
            cycles = self.kernel.run(max_cycles=max_cycles)
            self._harvest_stats()
            result = RunResult(
                cycles, self.counters, self.cores, self.hierarchy,
                warmup_snapshot=self._warmup_snapshot,
            )
            if self.sanitizer is not None:
                self.sanitizer.finalize(result)
            return result
        finally:
            self.release()

    def release(self):
        """Cut every reference cycle the run built, so the machine is freed
        by reference counting as soon as its last user drops it.

        What stays: the result's counters, the cores' retired state and
        the hierarchy's cache contents, all reachable from the cores.  The
        cut edges point back up the graph (kernel -> cores, hierarchy ->
        cores, engine -> core, callbacks into the core or this System,
        sanitizer and fault-injector links, pending event closures).
        :class:`~repro.security.channel.AttackContext`, which drives the
        kernel itself, calls this once its attack is over.
        """
        self._released = True
        if self.sanitizer is not None:
            self.sanitizer.release()
        self.kernel.release()
        self.hierarchy.release()
        for core in self.cores:
            core.release()

    def _harvest_stats(self):
        counters = self.counters
        noc = self.hierarchy.noc
        counters.set("noc.total_bytes", noc.total_bytes)
        counters.set("noc.byte_hops", noc.byte_hops)
        counters.set("noc.messages", noc.messages)
        for category, count in noc.traffic_breakdown().items():
            counters.set(f"noc.bytes.{category}", count)
        counters.set("dram.accesses", self.hierarchy.dram.stat_accesses)
        llc_sbs = self.hierarchy.llc_sbs
        for core in self.cores:
            counters.bump("core.total_retired", core.retired_instructions)
            counters.bump(
                "core.branch_predictor_mispredicts", core.predictor.stat_mispredicts
            )
            counters.bump("core.branch_predictor_lookups", core.predictor.stat_lookups)
            counters.bump("tlb.hits", core.tlb.stat_hits)
            counters.bump("tlb.misses", core.tlb.stat_misses)
            if core.visibility is not None:
                # 0 inserts when the LLC-SB is turned off.
                counters.bump(
                    "invisispec.llc_sb_inserts",
                    llc_sbs[core.core_id].stat_inserts if llc_sbs else 0,
                )
                counters.bump("invisispec.sb_fills", core.visibility.sb.stat_fills)
