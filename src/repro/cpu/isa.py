"""Micro-op vocabulary of the simulated core.

The simulator is trace-driven: workload generators and attack programs
produce streams of :class:`MicroOp`.  Synthetic workload ops carry
precomputed addresses; attack programs instead provide ``addr_fn`` /
``compute_fn`` callables evaluated against a register environment, which is
what lets transient (wrong-path) instructions carry real data flow — e.g.
Spectre's ``B[64 * A[a]]`` where the second load's address depends on the
first load's (secret) value.
"""

from __future__ import annotations

import enum
import itertools


class OpKind(enum.Enum):
    ALU = "alu"
    FP = "fp"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    FENCE = "fence"
    ACQUIRE = "acquire"
    RELEASE = "release"
    PREFETCH = "prefetch"  # software prefetch (Section VI-B)
    EXCEPTION = "exception"  # op that raises when it reaches the ROB head
    NOP = "nop"

    def __init__(self, value):
        # Plain member attributes: the pipeline asks these per op per stage.
        self.is_memory = value in ("load", "store", "prefetch")
        self.is_fence_like = value in ("fence", "acquire", "release")
        #: Occupies an LQ entry (loads and software prefetches).
        self.is_load_like = value in ("load", "prefetch")


_uid = itertools.count()


def reset_uids(start=0):
    """Restart MicroOp uid allocation (for reproducible program builds).

    Wrong-path arms are keyed by branch-op uid, so uids must be unique
    within any one trace/context.  Callers therefore reset only at the
    *start* of an independent program build (a specflow analysis, an
    evidence replay, a golden-report dump) — never between the phases of
    a live :class:`~repro.security.channel.AttackContext`, whose
    interactive trace still holds earlier uids.
    """
    global _uid
    _uid = itertools.count(start)


class MicroOp:
    """One dynamic instruction.

    Attributes
    ----------
    kind : OpKind
    pc : int — static instruction address (predictor/BTB index).
    addr : int or None — memory address for memory ops (precomputed traces).
    addr_fn : callable(env) -> int, or None — late address computation for
        program traces; evaluated when the op's operands are ready.
    size : int — access size in bytes.
    dst : hashable or None — register written by a load/ALU (program traces).
    compute_fn : callable(env) -> value, or None — ALU result computation.
    store_value : int — value written by a store.
    store_value_fn : callable(env) -> int, or None.
    latency : int — execution latency for ALU/FP/branch ops.
    deps : tuple of ints — distances (in dynamic ops) to earlier ops this
        one reads from; used for wake-up scheduling.  A dep to a retired op
        is trivially ready.
    taken : bool — architectural branch outcome.
    raises_exception : bool — op traps at the ROB head.
    label : str or None — debugging/attack annotation.
    taint : str or None — static taint-source label for repro.specflow:
        the value this op produces is secret/attacker-controlled data.
        Purely an analysis annotation; the pipeline never reads it.
    """

    __slots__ = (
        "uid",
        "kind",
        "pc",
        "addr",
        "addr_fn",
        "size",
        "dst",
        "compute_fn",
        "store_value",
        "store_value_fn",
        "latency",
        "deps",
        "taken",
        "raises_exception",
        "label",
        "taint",
    )

    def __init__(
        self,
        kind,
        pc=0,
        addr=None,
        addr_fn=None,
        size=8,
        dst=None,
        compute_fn=None,
        store_value=0,
        store_value_fn=None,
        latency=1,
        deps=(),
        taken=False,
        raises_exception=False,
        label=None,
        taint=None,
    ):
        self.uid = next(_uid)
        self.kind = kind
        self.pc = pc
        self.addr = addr
        self.addr_fn = addr_fn
        self.size = size
        self.dst = dst
        self.compute_fn = compute_fn
        self.store_value = store_value
        self.store_value_fn = store_value_fn
        self.latency = latency
        self.deps = deps
        self.taken = taken
        self.raises_exception = raises_exception
        self.label = label
        self.taint = taint

    def __repr__(self):
        extra = f" @0x{self.addr:x}" if self.addr is not None else ""
        tag = f" [{self.label}]" if self.label else ""
        return f"MicroOp({self.kind.value}, pc=0x{self.pc:x}{extra}{tag})"


# ------------------------------------------------------- expression IR
#
# Attack programs historically computed addresses with ad-hoc lambdas,
# which cannot cross a process boundary.  Randomized fuzz programs
# (repro.fuzz) must be dispatched to supervisor workers, so their
# address/compute functions are built from this tiny declarative IR
# instead: an Expr is plain data (nested tuples), pickles and
# JSON-round-trips, and *evaluates itself* against any register
# environment — the concrete pipeline env and specflow's abstract
# TaintEnv alike, since it only uses overloadable operators.

#: node tag -> binary operator.  Arithmetic evaluation never branches on
#: values, so AbstractValue taint flows through unchanged; the comparison
#: tags (and the ``select`` node built on them) *do* branch — under
#: specflow's TaintEnv they yield AbstractBools that trigger path
#: splitting rather than a concrete outcome.
_EXPR_BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << b,
    "shr": lambda a, b: a >> b,
    "mod": lambda a, b: a % b,
}

#: comparison tag -> operator; results are used as select conditions.
_EXPR_CMPOPS = {
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
}


class ExprError(ValueError):
    """An expression tree is malformed or not serializable."""


class Expr:
    """A picklable address/compute function over a register environment.

    Nodes are tuples:

    * ``("const", k)`` — the integer ``k``;
    * ``("reg", name, default)`` — ``env.get(name, default)``;
    * ``("neg", a)`` / ``("inv", a)`` — unary minus / bitwise not;
    * ``(op, a, b)`` for ``op`` in ``add sub mul and or xor shl shr mod``;
    * ``(cmp, a, b)`` for ``cmp`` in ``lt le gt ge eq ne`` — a 0/1 flag;
    * ``("select", c, a, b)`` — ``a`` if ``c`` is truthy else ``b``
      (branchy address math, e.g. clamp-to-bound gadgets).

    Calling the Expr evaluates the tree; passing specflow's ``TaintEnv``
    makes the same tree its own abstract transfer function.
    """

    __slots__ = ("node",)

    def __init__(self, node):
        self.node = self._freeze(node)

    @classmethod
    def _freeze(cls, node):
        if not isinstance(node, (tuple, list)) or not node:
            raise ExprError(f"malformed expression node: {node!r}")
        tag = node[0]
        if tag == "const":
            if len(node) != 2 or not isinstance(node[1], int):
                raise ExprError(f"malformed const node: {node!r}")
            return ("const", node[1])
        if tag == "reg":
            if (
                len(node) != 3
                or not isinstance(node[1], str)
                or not isinstance(node[2], int)
            ):
                raise ExprError(f"malformed reg node: {node!r}")
            return ("reg", node[1], node[2])
        if tag in ("neg", "inv"):
            if len(node) != 2:
                raise ExprError(f"malformed unary node: {node!r}")
            return (tag, cls._freeze(node[1]))
        if tag in _EXPR_BINOPS or tag in _EXPR_CMPOPS:
            if len(node) != 3:
                raise ExprError(f"malformed {tag} node: {node!r}")
            return (tag, cls._freeze(node[1]), cls._freeze(node[2]))
        if tag == "select":
            if len(node) != 4:
                raise ExprError(f"malformed select node: {node!r}")
            return (
                "select",
                cls._freeze(node[1]),
                cls._freeze(node[2]),
                cls._freeze(node[3]),
            )
        raise ExprError(f"unknown expression tag {tag!r}")

    def __call__(self, env):
        return self._eval(self.node, env)

    @classmethod
    def _eval(cls, node, env):
        tag = node[0]
        if tag == "const":
            return node[1]
        if tag == "reg":
            return env.get(node[1], node[2])
        if tag == "neg":
            return -cls._eval(node[1], env)
        if tag == "inv":
            return ~cls._eval(node[1], env)
        if tag == "select":
            # Truth-testing the condition is what forks abstract paths;
            # arms evaluate lazily so only the taken one runs.
            if cls._eval(node[1], env):
                return cls._eval(node[2], env)
            return cls._eval(node[3], env)
        if tag in _EXPR_CMPOPS:
            flag = _EXPR_CMPOPS[tag](
                cls._eval(node[1], env), cls._eval(node[2], env)
            )
            return 1 if flag else 0
        return _EXPR_BINOPS[tag](
            cls._eval(node[1], env), cls._eval(node[2], env)
        )

    # The tree is plain data, so JSON round-trips via nested lists.

    def to_json(self):
        return self._jsonify(self.node)

    @classmethod
    def _jsonify(cls, node):
        return [
            cls._jsonify(part) if isinstance(part, tuple) else part
            for part in node
        ]

    @classmethod
    def from_json(cls, data):
        return cls(cls._detuple(data))

    @classmethod
    def _detuple(cls, data):
        if isinstance(data, list):
            return tuple(cls._detuple(part) for part in data)
        return data

    def __eq__(self, other):
        return isinstance(other, Expr) and self.node == other.node

    def __hash__(self):
        return hash(self.node)

    def __repr__(self):
        return f"Expr({self.node!r})"


# --------------------------------------------- program serialization
#
# Cross-process program dispatch (the repro.fuzz campaign ships programs
# to supervisor workers) and the content-addressed triage corpus both
# need MicroOp programs as plain data.  Serialization is total for ops
# whose callables are Expr (or absent); an op carrying an opaque lambda
# is rejected loudly rather than silently dropped.

#: MicroOp fields serialized verbatim (defaults omitted for compactness).
_OP_FIELD_DEFAULTS = (
    ("addr", None),
    ("size", 8),
    ("dst", None),
    ("store_value", 0),
    ("latency", 1),
    ("taken", False),
    ("raises_exception", False),
    ("label", None),
    ("taint", None),
)
_OP_EXPR_FIELDS = ("addr_fn", "compute_fn", "store_value_fn")


def op_to_dict(op):
    """One MicroOp as a JSON-able dict (uid included, Expr fns inlined)."""
    data = {"uid": op.uid, "kind": op.kind.value, "pc": op.pc}
    for field, default in _OP_FIELD_DEFAULTS:
        value = getattr(op, field)
        if value != default:
            data[field] = value
    if op.deps:
        data["deps"] = list(op.deps)
    for field in _OP_EXPR_FIELDS:
        fn = getattr(op, field)
        if fn is None:
            continue
        if not isinstance(fn, Expr):
            raise ExprError(
                f"cannot serialize {field} of {op!r}: {type(fn).__name__} "
                f"is not an Expr (opaque callables cannot cross processes)"
            )
        data[field] = fn.to_json()
    return data


def op_from_dict(data):
    """Rebuild a MicroOp; its uid is restored verbatim from ``data``."""
    kwargs = {"pc": data["pc"]}
    for field, default in _OP_FIELD_DEFAULTS:
        kwargs[field] = data.get(field, default)
    kwargs["deps"] = tuple(data.get("deps", ()))
    for field in _OP_EXPR_FIELDS:
        if field in data:
            kwargs[field] = Expr.from_json(data[field])
    op = MicroOp(OpKind(data["kind"]), **kwargs)
    op.uid = data["uid"]
    return op


def serialize_program(ops, wrong_paths=None):
    """``(ops, wrong_paths)`` as one JSON-able dict.

    Wrong-path arms are keyed by the owner op's uid (stringified for
    JSON); uids are stored per op so a deserialized program replays
    bit-identically — arm keys keep resolving after the round trip.
    """
    return {
        "ops": [op_to_dict(op) for op in ops],
        "wrong_paths": {
            str(uid): [op_to_dict(op) for op in arm]
            for uid, arm in sorted((wrong_paths or {}).items())
        },
    }


def deserialize_program(data, fresh_uids=False):
    """Rebuild ``(ops, wrong_paths)`` from :func:`serialize_program` data.

    With ``fresh_uids=False`` every op keeps its stored uid and the
    global counter is advanced past the largest one, so later ops cannot
    collide — a worker-side rebuild is bit-identical to the original.
    With ``fresh_uids=True`` all ops draw new uids from the counter (arm
    keys are remapped): used to replay the same phase several times into
    one live trace, e.g. predictor-training rounds.
    """
    global _uid
    ops = [op_from_dict(entry) for entry in data["ops"]]
    wrong_paths = {
        int(uid): [op_from_dict(entry) for entry in arm]
        for uid, arm in data.get("wrong_paths", {}).items()
    }
    if fresh_uids:
        remap = {}
        for op in ops:
            old = op.uid
            op.uid = next(_uid)
            remap[old] = op.uid
        fresh_wrong = {}
        for uid, arm in wrong_paths.items():
            for op in arm:
                op.uid = next(_uid)
            fresh_wrong[remap.get(uid, uid)] = arm
        return ops, fresh_wrong
    top = max(
        [op.uid for op in ops]
        + [op.uid for arm in wrong_paths.values() for op in arm],
        default=-1,
    )
    current = next(_uid)
    if current <= top:
        _uid = itertools.count(top + 1)
    else:
        _uid = itertools.count(current)
    return ops, wrong_paths


def alu(pc=0, latency=1, deps=(), dst=None, compute_fn=None, label=None):
    return MicroOp(
        OpKind.ALU, pc=pc, latency=latency, deps=deps, dst=dst,
        compute_fn=compute_fn, label=label,
    )


def load(pc=0, addr=None, addr_fn=None, size=8, deps=(), dst=None, label=None,
         taint=None):
    return MicroOp(
        OpKind.LOAD, pc=pc, addr=addr, addr_fn=addr_fn, size=size, deps=deps,
        dst=dst, label=label, taint=taint,
    )


def store(pc=0, addr=None, addr_fn=None, size=8, value=0, value_fn=None,
          deps=(), label=None):
    return MicroOp(
        OpKind.STORE, pc=pc, addr=addr, addr_fn=addr_fn, size=size,
        store_value=value, store_value_fn=value_fn, deps=deps, label=label,
    )


def branch(pc=0, taken=False, deps=(), latency=2, label=None):
    return MicroOp(
        OpKind.BRANCH, pc=pc, taken=taken, deps=deps, latency=latency,
        label=label,
    )


def fence(pc=0, label=None):
    return MicroOp(OpKind.FENCE, pc=pc, label=label)
