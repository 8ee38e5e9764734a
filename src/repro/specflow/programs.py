"""The program corpus the analyzer runs over, and the runner that
fingerprints a program on the live pipeline.

Three families:

* **attack programs** — each PoC in the :data:`repro.security.POCS`
  registry exports its victim code as a :class:`SpecProgram` (ops +
  wrong-path arms + secret layout + the PoC's pre-leak phase).  These
  are the analyzer's ground truth: every one must classify its
  transmitter load TRANSMIT with a witness chain that names the access
  and the transmit.
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

:func:`fingerprint_runs` is the one dynamic oracle behind both the
curated evidence harness (:mod:`repro.specflow.evidence`) and the fuzz
harness (:mod:`repro.fuzz.harness`).
"""

from __future__ import annotations

from ..configs import ProcessorConfig, Scheme
from ..cpu import isa
from ..cpu.isa import Expr, MicroOp, OpKind
from ..invisispec.policy import ISFuturePolicy, ISSpectrePolicy
from ..security import POCS
from ..security.channel import AttackContext
from ..workloads import spec_trace

__all__ = [
    "PHASE_CYCLES",
    "SECRETS",
    "SpecProgram",
    "all_programs",
    "attack_programs",
    "fingerprint_runs",
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
    squash-window discharge proofs consult and that
    :func:`fingerprint_runs` replays; without one, those proofs are
    simply unavailable.  A PoC's program instead carries its pre-leak
    phase, ``prepare(context, secret)``, which returns the leak phase's
    ``(ops, wrong_paths)``, and the number of ``cores`` it runs on.
    """

    __slots__ = (
        "name",
        "description",
        "secret_ranges",
        "expected_transmit",
        "setup",
        "prepare",
        "cores",
        "_builder",
    )

    def __init__(self, name, builder, secret_ranges=(), description="",
                 expected_transmit=None, setup=None, prepare=None, cores=1):
        self.name = name
        self._builder = builder
        self.secret_ranges = tuple(secret_ranges)
        self.description = description
        self.expected_transmit = dict(expected_transmit or {})
        self.setup = setup
        self.prepare = prepare
        self.cores = cores

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


# ------------------------------------------------------ fingerprint runner

#: two secrets that land on different transmission-array lines for every
#: PoC alphabet (they differ mod 256 and mod 64) and under every mask the
#: fuzz generator emits.
SECRETS = (41, 174)
#: default simulated-cycle budget of each replayed setup phase and of
#: the leak phase
PHASE_CYCLES = 2_000_000
#: PC of the setup replay's warm-up loads (never analyzed)
_PC_WARM = 0x5000


def _replay_setup(context, prog, secret, phase_cycles):
    """The pre-leak phase of a program carrying a ``setup`` recipe: plant
    the secret, write, warm, flush.  The program ops are built *first*,
    before any phase of the fresh context runs (a fresh uid space), so
    the warm-up ops drawn afterwards can never collide with a wrong-path
    arm key.  Returns the built program."""
    ops, wrong_paths = prog.build()
    setup = prog.setup
    context.write_memory(
        setup["secret_addr"], [secret & 0xFF] * setup["secret_size"]
    )
    for addr, data in setup["writes"]:
        context.write_memory(addr, list(data))
    warm_ops = [
        MicroOp(OpKind.LOAD, pc=_PC_WARM + 0x10 * i, addr=addr, size=1)
        for i, addr in enumerate(setup["warm"])
    ]
    if warm_ops:
        context.run_ops(0, warm_ops, max_cycles=phase_cycles)
    for addr in setup["flush"]:
        context.flush(addr)
    return ops, wrong_paths


def _fingerprint(prog, secret, watchdog, heartbeat, phase_cycles):
    """One run of :func:`fingerprint_runs`."""
    future_judge = ISFuturePolicy()
    spectre_judge = ISSpectrePolicy()
    futuristic, spectre = {}, {}

    def probe(core, entry, unsafe_speculative):
        line = entry.lq_entry.line_addr
        pc = entry.op.pc
        if entry.is_wrong_path or not future_judge.load_is_safe(core, entry):
            futuristic.setdefault(pc, set()).add(line)
        if not spectre_judge.load_is_safe(core, entry):
            spectre.setdefault(pc, set()).add(line)

    isa.reset_uids()
    config = ProcessorConfig(scheme=Scheme.BASE)
    with AttackContext(config, num_cores=prog.cores) as context:
        if watchdog is not None:
            context.kernel.watchdog = watchdog
        if heartbeat is not None:
            context.kernel.heartbeat = heartbeat
        if prog.prepare is not None:
            ops, wrong_paths = prog.prepare(context, secret)
        else:
            ops, wrong_paths = _replay_setup(
                context, prog, secret, phase_cycles
            )
        for core in context.system.cores:
            core.attach_load_issue_probe(
                probe, future_judge.reads | spectre_judge.reads
            )
        context.run_ops(0, ops, wrong_paths, max_cycles=phase_cycles)
    # The kernel's clock stays readable after the release.
    return {"spectre": spectre, "futuristic": futuristic}, context.kernel.cycle


def fingerprint_runs(prog, secrets=SECRETS, watchdog=None, heartbeat=None,
                     phase_cycles=PHASE_CYCLES):
    """Run ``prog`` once per secret on the insecure Base machine and
    fingerprint its leak phase.

    The pre-leak phase is the PoC's own ``prepare`` or, for a program
    with a ``setup`` recipe, its replay.  Each replayed warm-up phase and
    the leak phase get ``phase_cycles`` simulated cycles; the watchdog
    and heartbeat go on the kernel.  Then a load-issue probe
    (:meth:`~repro.cpu.core.Core.attach_load_issue_probe`) records, per
    attack model, the cache line of every load issue that model deems
    unsafe-speculative: ``futuristic`` when the load is on the wrong path
    or an :class:`~repro.invisispec.policy.ISFuturePolicy` does not judge
    it safe; ``spectre`` when an
    :class:`~repro.invisispec.policy.ISSpectrePolicy` does not, with no
    wrong-path disjunct (a load under a pure exception shadow is
    invisible to a branch-only attacker).  Base itself protects nothing
    and reads no tracker, which is the point: the probe sees what an
    attacker could.

    Returns ``(runs, cycles)``: one ``{model: {pc: set(line_addr)}}`` per
    secret, and the simulated cycles of all runs together.
    """
    results = [
        _fingerprint(prog, secret, watchdog, heartbeat, phase_cycles)
        for secret in secrets
    ]
    return (
        [fingerprints for fingerprints, _cycles in results],
        sum(cycles for _fingerprints, cycles in results),
    )


# ----------------------------------------------------------- attack corpus


def attack_programs():
    """One :class:`SpecProgram` per registered security PoC, in name
    order."""
    return [poc.program() for poc in POCS]


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
