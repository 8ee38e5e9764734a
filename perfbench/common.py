"""Shared helpers: checkout paths, pass scheduling and order statistics."""

from __future__ import annotations

import os
import resource
import statistics
import time

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Scratch space the benchmark writes to (service stores, trace exports).
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: Percentiles tried, highest first, when naming a latency tail.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, pct):
    """Nearest-rank percentile of ``values`` (0 < pct <= 100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail(values):
    """``(pct, value, beyond)``: the highest percentile with >= 10 samples
    beyond it, as choosing-metrics asks; ``None`` with fewer than 11."""
    for pct in TAIL_PERCENTILES:
        beyond = len(values) - -(-len(values) * pct // 100)
        if beyond >= 10:
            return pct, percentile(values, pct), int(beyond)
    return None


def rss_mb(who):
    """Peak resident set size of ``who`` (a ``resource.RUSAGE_*``), in MiB
    (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def peak_rss_mb():
    """The larger peak RSS of this process and of any child it has reaped.

    The children are the service's forked pool workers, where its cold
    jobs compute; each pass closes its pool, so they are reaped by the
    time this is read.
    """
    return max(rss_mb(resource.RUSAGE_SELF),
               rss_mb(resource.RUSAGE_CHILDREN))


def run_passes(run_pass, seconds):
    """Call ``run_pass(index)`` repeatedly for about ``seconds`` seconds.

    A new pass starts only when the previous pass's wall time still fits
    in the budget, so a run ends near ``seconds`` instead of overshooting
    by one pass; at least one pass runs.
    """
    passes = []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        passes.append(run_pass(len(passes)))
        now = time.perf_counter()
        if now - started + (now - pass_started) > seconds:
            return passes
