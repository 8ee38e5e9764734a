#!/usr/bin/env python
"""Memory consistency in action on two cores.

Core 0 speculatively loads a shared variable twice (out of order with
respect to an intervening long-latency miss); core 1 stores to it in
between.  Under TSO the baseline squashes the performed-but-unretired load
when the invalidation arrives; under InvisiSpec the load sits invisibly in
the speculative buffer and is caught by its *validation* (or squashed
early), preserving TSO without ever exposing the speculative access.

Run:  python examples/consistency_squash.py
"""

from repro import ProcessorConfig, Scheme, SystemParams
from repro.cpu.isa import MicroOp, OpKind
from repro.security.channel import AttackContext

SHARED = 0x7100_0000  # the contended variable
PRIVATE = 0x1200_0000  # core 0 private data (long-latency miss)


def reader_ops(n_rounds):
    """Core 0: a pointer-chase of private DRAM misses; each round also reads
    the shared variable.  The shared load performs early (it is young and
    fast) but cannot retire until the older private miss does — a long
    window in which a remote store can invalidate its line."""
    ops = []
    for i in range(n_rounds):
        deps = (3,) if i else ()  # chase: this round waits for the previous
        ops.append(
            MicroOp(OpKind.LOAD, pc=0x100, addr=PRIVATE + 64 * i, size=8,
                    deps=deps)
        )
        ops.append(MicroOp(OpKind.LOAD, pc=0x104, addr=SHARED, size=8, dst="x"))
        ops.append(MicroOp(OpKind.ALU, pc=0x108, deps=(1,), latency=4))
    return ops


def writer_ops(n_rounds):
    """Core 1: a store to the shared line roughly every 150 cycles."""
    ops = []
    for i in range(n_rounds):
        deps = (2,) if i else ()
        ops.append(MicroOp(OpKind.ALU, pc=0x200, latency=150, deps=deps))
        ops.append(
            MicroOp(OpKind.STORE, pc=0x204, addr=SHARED, size=8, store_value=i)
        )
    return ops


def run(scheme):
    params = SystemParams(num_cores=2)
    config = ProcessorConfig(scheme=scheme)
    with AttackContext(config, params=params) as context:
        context.traces[0].feed(reader_ops(60))
        context.traces[1].feed(writer_ops(60))
        for core in context.system.cores:
            core.reopen()
        context.kernel.run(max_cycles=2_000_000)
    counters = context.system.counters
    return {
        "consistency squashes": counters["core.squashes.consistency"],
        "validation failures": counters["core.squashes.validation_fail"],
        "early-squash on inv": counters["invisispec.early_squash_invalidation"],
        "validations": counters["invisispec.validations"],
        "invalidations received": counters["core.invalidations_received"],
    }


def main():
    for scheme in (Scheme.BASE, Scheme.IS_SPECTRE, Scheme.IS_FUTURE):
        stats = run(scheme)
        print(f"--- {scheme.value} ---")
        for name, value in stats.items():
            print(f"  {name:24} {value}")
    print("\nBase enforces TSO by squashing on incoming invalidations;")
    print("InvisiSpec enforces it with validations and early squashes,")
    print("without ever making the speculative load visible.")


if __name__ == "__main__":
    main()
