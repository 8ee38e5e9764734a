"""Attack orchestration: persistent cores, phased execution, and the
attacker's primitives (clflush, timed probe loads).

An :class:`AttackContext` owns a :class:`~repro.system.System` whose cores
run :class:`~repro.cpu.trace.InteractiveTrace` sources, so an experiment
can alternate between running victim/attacker code on the pipeline
(predictor state persists across phases — mistraining works) and issuing
the attacker's measurement primitives directly against the live cache
hierarchy.

A context is used once, as ``with AttackContext(...) as context:``.
Leaving the block releases the machine (:meth:`System.release
<repro.system.System.release>`), so a finished attack is freed by
reference counting, as a finished run is; the context runs nothing
after that.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from ..coherence.hierarchy import MemRequest, RequestKind
from ..configs import ProcessorConfig
from ..cpu.trace import InteractiveTrace
from ..errors import SimulationError
from ..params import SystemParams
from ..system import System

_probe_seq = itertools.count(1 << 40)


class PoC(namedtuple("PoC", "name secret run program")):
    """One attack proof of concept, as the registry
    (:data:`repro.security.POCS`) lists it.

    ``run(config, secret=secret, sanitize=None)`` is the
    end-to-end attack, receiver included, and returns ``(latencies,
    recovered)``; ``secret`` is its default secret.  ``program()`` is the
    victim as a :class:`~repro.specflow.programs.SpecProgram`, which also
    carries the PoC's pre-leak phase and core count.
    """

    __slots__ = ()


class AttackContext:
    """A live simulated machine for phased attack experiments."""

    def __init__(self, config, params=None, num_cores=1, sanitize=None):
        if params is None:
            params = (
                SystemParams.for_spec()
                if num_cores == 1
                else SystemParams(num_cores=num_cores)
            )
        if not isinstance(config, ProcessorConfig):
            raise SimulationError("config must be a ProcessorConfig")
        self.params = params
        self.config = config
        self.traces = [InteractiveTrace() for _ in range(params.num_cores)]
        self.system = System(
            params=params, config=config, traces=self.traces,
            sanitizer=sanitize,
        )
        self.sanitizer = self.system.sanitizer
        self.kernel = self.system.kernel
        self.hierarchy = self.system.hierarchy
        self.image = self.system.image
        self.space = self.system.space
        self._released = False

    # --------------------------------------------------------------- lifetime

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.release()

    def release(self):
        """Cut the machine's back-edges; safe to call twice."""
        if not self._released:
            self._released = True
            self.system.release()

    def _check_live(self):
        if self._released:
            raise SimulationError("AttackContext used after release()")

    # ------------------------------------------------------------ memory setup

    def write_memory(self, addr, data):
        """Initialize victim memory (arrays, secrets)."""
        if isinstance(data, int):
            data = [data]
        self.image.write_bytes(addr, data)

    # ------------------------------------------------------------- run a phase

    def run_ops(self, core_id, ops, wrong_paths=None, max_cycles=2_000_000):
        """Execute ``ops`` to completion on ``core_id``'s pipeline, raising
        :class:`~repro.errors.SimTimeoutError` if the phase runs longer
        than ``max_cycles`` cycles."""
        self._check_live()
        self.traces[core_id].feed(ops, wrong_paths)
        self.system.cores[core_id].reopen()
        self.kernel.run(max_cycles=self.kernel.cycle + max_cycles)

    # -------------------------------------------------- attacker's primitives

    def flush(self, addr, size=1):
        """clflush every line covering ``[addr, addr+size)``."""
        self._check_live()
        for line in self.space.lines_touched(addr, size):
            self.hierarchy.flush_line(line)

    def probe_latency(self, core_id, addr):
        """Timed reload: cycles for a demand load of ``addr`` to complete.

        This is the receiver's measurement primitive; like a real attacker's
        timed load it is a perfectly ordinary cached access.
        """
        self._check_live()
        outcome = {}

        def on_complete(result):
            outcome["cycle"] = self.kernel.cycle
            outcome["level"] = result.level

        request = MemRequest(
            core_id=core_id,
            addr=addr,
            size=8,
            kind=RequestKind.LOAD,
            seq=next(_probe_seq),
            on_complete=on_complete,
        )
        start = self.kernel.cycle
        self.hierarchy.submit(request)
        self.kernel.run(max_cycles=start + 100_000)
        if "cycle" not in outcome:
            raise SimulationError("probe load never completed")
        return outcome["cycle"] - start
