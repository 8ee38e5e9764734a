"""The program corpus the analyzer runs over.

Three families:

* **attack programs** — each PoC in :mod:`repro.security` exports a
  ``specflow_program()`` describing its victim code (ops + wrong-path
  arms + secret layout).  These are the analyzer's ground truth: every
  one must classify its transmitter load TRANSMIT with a witness chain
  that names the access and the transmit.
* **hardened programs** — victims that *touch* the secret transiently
  but provably cannot leak it, one per v2 precision layer (value
  collapse, squash-window reachability, path splitting).  Every load
  must come out SAFE with a discharge proof; the v1 pure-taint domain
  flags each of them, which is exactly the precision the selective-
  protection experiment measures.
* **workload programs** — finite prefixes of the synthetic SPEC traces
  (correct path plus materialized wrong-path arms).  They touch no
  declared secrets, so every load must come out SAFE; that emptiness is
  what lets ``Scheme.SELECTIVE`` run workloads at baseline speed.
"""

from __future__ import annotations

from ..cpu import isa
from ..cpu.isa import Expr, MicroOp, OpKind
from ..security import (
    cross_core,
    exception_attacks,
    meltdown_style,
    spectre_v1,
    ssb,
)
from ..workloads import spec_trace

__all__ = [
    "SpecProgram",
    "all_programs",
    "attack_programs",
    "hardened_programs",
    "workload_programs",
]


class SpecProgram:
    """A MicroOp program plus the security metadata the analysis needs.

    ``builder`` is a zero-argument callable returning ``(ops,
    wrong_paths)`` in the shape :meth:`AttackContext.run_ops` takes; it
    is re-invoked per analysis after a uid reset, so reports are
    reproducible no matter how many programs were built before.
    ``secret_ranges`` are half-open ``(lo, hi)`` byte ranges holding
    secret or privileged data.  ``expected_transmit`` maps attack model
    to the load PCs the program is *known* to leak through — the
    cross-validation oracle for tests and ``--check``.  ``setup`` is the
    optional dynamic-environment dict (fuzz-harness shape:
    ``secret_addr``/``secret_size``/``writes``/``warm``/``flush``) that
    squash-window discharge proofs consult; without one, those proofs
    are simply unavailable.
    """

    __slots__ = (
        "name",
        "description",
        "secret_ranges",
        "expected_transmit",
        "setup",
        "_builder",
    )

    def __init__(self, name, builder, secret_ranges=(), description="",
                 expected_transmit=None, setup=None):
        self.name = name
        self._builder = builder
        self.secret_ranges = tuple(secret_ranges)
        self.description = description
        self.expected_transmit = dict(expected_transmit or {})
        self.setup = setup

    def build(self):
        """Materialize ``(ops, wrong_paths)`` with a fresh uid space."""
        isa.reset_uids()
        return self._builder()

    def secret_range_overlapping(self, addr, size):
        """The ``lo`` of the first secret range the access overlaps, or
        None.  Ranges are few (0-2 per program), so linear scan."""
        for lo, hi in self.secret_ranges:
            if addr < hi and addr + size > lo:
                return lo
        return None

    def __repr__(self):
        return f"SpecProgram({self.name!r})"


# ----------------------------------------------------------- attack corpus


def attack_programs():
    """One :class:`SpecProgram` per security PoC (exception variants
    expand to one each), in deterministic name order."""
    programs = [
        spectre_v1.specflow_program(),
        meltdown_style.specflow_program(),
        ssb.specflow_program(),
        cross_core.specflow_program(),
    ]
    programs.extend(exception_attacks.specflow_programs())
    return sorted(programs, key=lambda p: p.name)


# --------------------------------------------------------- hardened corpus
#
# One curated victim per v2 precision layer, at PCs 0xA000+ so their
# verdicts never collide with an attack PoC's.  Each carries the dynamic
# ``setup`` recipe the evidence harness replays, and an all-empty
# ``expected_transmit`` oracle: the analysis must prove every load SAFE.

_H_GUARD = 0xA000_0  # guard/limit byte (distinct page per program below)
_H_SECRET = 0xA400_0  # planted secret byte
_H_ARRAY = 0xB0_0000  # transmission array (cold pages)
_H_LINE = 64


def _hardened_setup(warm_guard):
    warm = [_H_SECRET] + ([_H_GUARD] if warm_guard else [])
    flush = [] if warm_guard else [_H_GUARD]
    return {
        "secret_addr": _H_SECRET,
        "secret_size": 1,
        "writes": [],
        "warm": warm,
        "flush": flush,
    }


def _hardened_victim(pc_base, addr_fn):
    """Flushed-guard Spectre shape with ``addr_fn`` as the transmit
    address computation; the analysis must discharge the transmit."""

    def build():
        guard = MicroOp(OpKind.LOAD, pc=pc_base, addr=_H_GUARD, size=1,
                        dst="limit", label="guard")
        branch = MicroOp(OpKind.BRANCH, pc=pc_base + 0x10, taken=True,
                         deps=(1,), latency=2)
        access = MicroOp(OpKind.LOAD, pc=pc_base + 0x100, addr=_H_SECRET,
                         size=1, dst="v", label="access")
        transmit = MicroOp(OpKind.LOAD, pc=pc_base + 0x110, addr_fn=addr_fn,
                           size=1, deps=(1,), label="transmit")
        return [guard, branch], {branch.uid: [access, transmit]}

    return build


def hardened_programs():
    """The cannot-leak corpus: each program's transmit is tainted and
    transient, and each is SAFE for a different structural reason."""
    empty = {"spectre": (), "futuristic": ()}
    masked = Expr(
        ("add", ("const", _H_ARRAY),
         ("mul", ("const", _H_LINE),
          ("and", ("reg", "v", 0), ("const", 0)))),
    )
    same_line = Expr(
        ("select",
         ("gt", ("and", ("reg", "v", 0), ("const", 1)), ("const", 0)),
         ("const", _H_ARRAY + 8),
         ("const", _H_ARRAY)),
    )
    full = Expr(
        ("add", ("const", _H_ARRAY),
         ("mul", ("const", _H_LINE),
          ("and", ("reg", "v", 0), ("const", 0xFF)))),
    )
    return [
        SpecProgram(
            name="hardened_masked",
            builder=_hardened_victim(0xA000, masked),
            secret_ranges=((_H_SECRET, _H_SECRET + 1),),
            description=(
                "transmit masks the secret to zero: every reachable "
                "address sits on one line (value-collapse SAFE)"
            ),
            expected_transmit=empty,
            setup=_hardened_setup(warm_guard=False),
        ),
        SpecProgram(
            name="hardened_branchy",
            builder=_hardened_victim(0xA200, same_line),
            secret_ranges=((_H_SECRET, _H_SECRET + 1),),
            description=(
                "transmit selects between two offsets of the same cache "
                "line on a secret bit (path-split join collapses)"
            ),
            expected_transmit=empty,
            setup=_hardened_setup(warm_guard=False),
        ),
        SpecProgram(
            name="hardened_warm_window",
            builder=_hardened_victim(0xA400, full),
            secret_ranges=((_H_SECRET, _H_SECRET + 1),),
            description=(
                "full-byte transmit behind a warm guard: the branch "
                "provably squashes the arm before the TLB-cold transmit "
                "can issue (squash-window SAFE)"
            ),
            expected_transmit=empty,
            setup=_hardened_setup(warm_guard=True),
        ),
    ]


# --------------------------------------------------------- workload corpus

#: prefix length per workload program; long enough to exercise every op
#: template the generator owns (loads, stores, branches, critical
#: sections) while keeping the abstract walk instant.
_WORKLOAD_OPS = 400
#: wrong-path arm depth per branch; matches the resolve windows the
#: pipeline actually reaches.
_WORKLOAD_ARM_DEPTH = 8

#: the Figure 4 applications the workload corpus samples — one
#: control-heavy, one pointer-chasing, one streaming profile.
WORKLOAD_NAMES = ("sjeng", "mcf", "libquantum")


def _workload_builder(name, seed):
    def build():
        trace = spec_trace(name, seed=seed)
        ops = [trace.next_op() for _ in range(_WORKLOAD_OPS)]
        wrong_paths = {}
        for op in ops:
            if op.kind is not OpKind.BRANCH:
                continue
            arm = []
            for index in range(_WORKLOAD_ARM_DEPTH):
                wp = trace.wrong_path_op(op, index)
                if wp is None:
                    break
                arm.append(wp)
            if arm:
                wrong_paths[op.uid] = arm
        return ops, wrong_paths

    return build


def workload_programs(seed=0):
    """Finite-prefix SpecPrograms for the sampled SPEC applications."""
    return [
        SpecProgram(
            name=f"workload_{name}",
            builder=_workload_builder(name, seed),
            secret_ranges=(),
            description=(
                f"{_WORKLOAD_OPS}-op prefix of the '{name}' synthetic "
                f"trace with {_WORKLOAD_ARM_DEPTH}-deep wrong-path arms"
            ),
            expected_transmit={"spectre": (), "futuristic": ()},
        )
        for name in WORKLOAD_NAMES
    ]


def all_programs(seed=0):
    """The full corpus: attacks first (name order), then the hardened
    cannot-leak victims, then workloads."""
    return attack_programs() + hardened_programs() + workload_programs(
        seed=seed
    )
