"""Deterministic fault injection for the memory hierarchy and kernel.

The simulator's failure detectors (:class:`~repro.errors.DeadlockError`,
:class:`~repro.errors.ProtocolError`, the new
:class:`~repro.errors.SimTimeoutError`) normally only fire on real bugs,
which makes the reliability engine's retry/resume/degradation paths hard to
exercise.  This module provides *injectable* faults driven by a seeded
schedule, so a test (or a `--fault` CLI flag) can deterministically produce
exactly the failure mode it wants to study:

=====================  =====================================================
Site                   Effect when triggered
=====================  =====================================================
``noc.delay``          A NoC message takes ``extra`` additional cycles.
``noc.drop``           A NoC message is lost: modeled as an effectively
                       unbounded delay, so the dependent transaction stalls
                       past any cycle budget (``SimTimeoutError``).
``dram.stall``         A DRAM response is withheld for ``extra`` cycles.
``mshr.stuck``         A fill/completion is lost and its MSHR entry stays
                       pinned; the requesting core hangs (``DeadlockError``).
``inv.ack_drop``       The invalidation acks of a store never return; the
                       store never performs (``DeadlockError``).
``inv.drop``           One sharer's invalidation is lost but its ack is
                       spuriously counted: the sharer keeps a stale copy
                       while the store proceeds — a *silent* coherence
                       break (SWMR / directory disagreement) that only the
                       runtime sanitizer (:mod:`repro.sanitizer`) reports;
                       without it the run completes with wrong behavior.
``kernel.event_drop``  A scheduled kernel event is silently lost.
``worker.kill``        A parallel-sweep worker SIGKILLs itself from its
                       heartbeat hook — the cross-process analogue of a
                       segfault/OOM-kill mid-cell.  Only consulted inside
                       pool workers (``--jobs`` > 1); each heartbeat
                       period counts as one operation for ``nth``.
=====================  =====================================================

Triggers are counted per site: ``FaultSpec(site, nth=5)`` fires on the 5th
operation that consults the site (1-based), ``count`` widens that to a run
of consecutive operations, ``window=(lo, hi)`` additionally restricts
firing to a cycle range, and ``prob`` makes the spec probabilistic using
the schedule's seeded RNG — still reproducible run to run.

Schedule language (used by ``python -m repro.experiments ... --fault``)::

    site[:key=value[,key=value...]]

    --fault dram.stall:nth=2,extra=5000
    --fault mshr.stuck:nth=3
    --fault noc.delay:prob=0.01,extra=200,window=0-50000
"""

from __future__ import annotations

import random

from ..errors import ConfigError
from ..network.noc import DROPPED_MESSAGE_DELAY

#: All valid fault site names.
FAULT_SITES = (
    "noc.delay",
    "noc.drop",
    "dram.stall",
    "mshr.stuck",
    "inv.ack_drop",
    "inv.drop",
    "kernel.event_drop",
    "worker.kill",
)

#: Default extra-delay cycles per site when a spec does not set ``extra``.
DEFAULT_EXTRA = {
    "noc.delay": 200,
    "dram.stall": 5_000,
}


class FaultSpec:
    """One injectable fault: a site plus its trigger and parameters."""

    __slots__ = ("site", "nth", "count", "extra", "prob", "window")

    def __init__(self, site, nth=None, count=1, extra=None, prob=None, window=None):
        if site not in FAULT_SITES:
            raise ConfigError(
                f"unknown fault site {site!r}; expected one of {FAULT_SITES}"
            )
        if nth is None and prob is None:
            raise ConfigError(f"fault {site}: needs nth=<k> or prob=<p>")
        if nth is not None and nth < 1:
            raise ConfigError(f"fault {site}: nth is 1-based, got {nth}")
        self.site = site
        self.nth = nth
        self.count = count
        self.extra = extra if extra is not None else DEFAULT_EXTRA.get(site, 0)
        self.prob = prob
        self.window = window

    @classmethod
    def parse(cls, text):
        """Build a spec from the CLI schedule language (see module doc)."""
        site, _, params = text.strip().partition(":")
        kwargs = {}
        if params:
            for item in params.split(","):
                key, _, value = item.partition("=")
                key = key.strip()
                if key == "prob":
                    kwargs[key] = float(value)
                elif key == "window":
                    lo, _, hi = value.partition("-")
                    kwargs[key] = (int(lo), int(hi))
                elif key in ("nth", "count", "extra"):
                    kwargs[key] = int(value)
                else:
                    raise ConfigError(f"fault {site}: unknown parameter {key!r}")
        return cls(site, **kwargs)

    def __repr__(self):
        trig = f"nth={self.nth}" if self.nth is not None else f"prob={self.prob}"
        return f"FaultSpec({self.site}, {trig}, count={self.count}, extra={self.extra})"


class FaultSchedule:
    """An immutable set of :class:`FaultSpec` plus the RNG seed.

    The schedule is shared configuration; per-run trigger state lives in
    the :class:`FaultInjector`, so one schedule can drive many attempts.
    """

    def __init__(self, specs=(), seed=0):
        self.specs = tuple(specs)
        self.seed = seed

    @classmethod
    def parse(cls, texts, seed=0):
        """Parse a list of CLI ``--fault`` strings into a schedule."""
        return cls([FaultSpec.parse(text) for text in texts], seed=seed)

    def injector(self):
        """A fresh, zero-state injector for one run attempt."""
        return FaultInjector(self)

    def __bool__(self):
        return bool(self.specs)

    def __repr__(self):
        return f"FaultSchedule({list(self.specs)!r}, seed={self.seed})"


class FaultAction:
    """What a triggered fault does; handed back to the instrumented site."""

    __slots__ = ("site", "extra", "op_index", "cycle")

    def __init__(self, site, extra, op_index, cycle):
        self.site = site
        self.extra = extra
        self.op_index = op_index
        self.cycle = cycle


class FaultInjector:
    """Per-run trigger state: counts site operations, fires matching specs.

    Instrumented components call ``fire(site)`` once per operation at that
    site and apply the returned :class:`FaultAction` (or nothing, for
    ``None``).  The injector records every fired fault in ``log`` so tests
    and the run journal can assert exactly what was injected.
    """

    def __init__(self, schedule):
        self.schedule = schedule
        self._rng = random.Random(schedule.seed)
        self._op_counts = {site: 0 for site in FAULT_SITES}
        self._by_site = {}
        for spec in schedule.specs:
            self._by_site.setdefault(spec.site, []).append(spec)
        self._fired_counts = {id(spec): 0 for spec in schedule.specs}
        self.kernel = None
        self.log = []

    def bind(self, kernel):
        """Attach the kernel so cycle-windowed triggers can read the clock."""
        self.kernel = kernel

    def _now(self, cycle):
        if cycle is not None:
            return cycle
        return self.kernel.cycle if self.kernel is not None else 0

    def fire(self, site, cycle=None):
        """One operation at ``site``; returns a FaultAction if a spec fires."""
        specs = self._by_site.get(site)
        self._op_counts[site] += 1
        if not specs:
            return None
        op_index = self._op_counts[site]
        now = self._now(cycle)
        for spec in specs:
            fired = self._fired_counts[id(spec)]
            if fired >= spec.count:
                continue
            if spec.window is not None and not (
                spec.window[0] <= now <= spec.window[1]
            ):
                continue
            if spec.nth is not None:
                if not (spec.nth <= op_index < spec.nth + spec.count):
                    continue
            elif self._rng.random() >= spec.prob:
                continue
            self._fired_counts[id(spec)] = fired + 1
            action = FaultAction(site, spec.extra, op_index, now)
            self.log.append(
                {
                    "site": site,
                    "op_index": op_index,
                    "cycle": now,
                    "extra": spec.extra,
                }
            )
            return action
        return None

    @property
    def fired(self):
        """Total faults injected so far."""
        return len(self.log)

    def summary(self):
        """{site: times fired}, for journals and assertions."""
        counts = {}
        for entry in self.log:
            counts[entry["site"]] = counts.get(entry["site"], 0) + 1
        return counts
