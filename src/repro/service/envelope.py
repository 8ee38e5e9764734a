"""Request/response envelopes and content-addressed cache keys.

A service request is pure data: a *kind* (``sim`` / ``specflow`` /
``fuzz``) plus a kind-specific payload.  :meth:`JobRequest.normalize`
canonicalizes the payload — defaults applied, fields whitelisted, order
fixed — so two requests that mean the same computation always produce
the same **cache key**: the SHA-256 of the canonical JSON of
``{schema, kind, payload}``.  The key therefore changes whenever any
input that could change the answer changes (program content, config,
scheme, attack model, seed, fault schedule) and whenever
:data:`CACHE_SCHEMA_VERSION` is bumped — the invalidation lever for
semantic changes to the simulator or analyzers themselves (see
``docs/SERVICE.md`` for the rules).

``build_spec`` lowers a request onto the reliability layer: every kind
becomes a pickle-safe cell spec honoring the supervisor/pool contract
(``.cell_id`` + ``.run(seed, max_cycles, watchdog, faults,
heartbeat=None)``), so one worker pool serves all three workloads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ..configs import ConsistencyModel, ProcessorConfig, Scheme
from ..errors import ConfigError, WorkloadError
from ..fuzz.cells import FuzzCellSpec
from ..fuzz.generator import FuzzProgram
from ..reliability.faults import FaultSchedule
from ..reliability.worker import CellSpec
from ..specflow import programs as corpus
from ..specflow.analyzer import analyze_program

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "JobRequest",
    "SpecflowCellSpec",
    "SpecflowResult",
    "cache_key",
    "canonical_json",
]

#: Bump whenever the *meaning* of a cached result changes: simulator
#: timing model, analyzer semantics, metrics schema.  Old shards become
#: unreachable (different keys) rather than silently stale.
CACHE_SCHEMA_VERSION = 1

KINDS = ("sim", "specflow", "fuzz")
LANES = ("interactive", "batch")

_SCHEMES = {scheme.value: scheme for scheme in Scheme}
_CONSISTENCY = {model.value: model for model in ConsistencyModel}

#: Accepted spellings -> canonical enum value.  Normalizing here keeps
#: the cache key identical across "IS-Sp" / "is_spectre" / "IS_SPECTRE".
_SCHEME_ALIASES = {}
for _scheme in Scheme:
    _SCHEME_ALIASES[_scheme.value.lower()] = _scheme.value
    _SCHEME_ALIASES[_scheme.name.lower()] = _scheme.value
_CONSISTENCY_ALIASES = {}
for _model in ConsistencyModel:
    _CONSISTENCY_ALIASES[_model.value.lower()] = _model.value
    _CONSISTENCY_ALIASES[_model.name.lower()] = _model.value


def canonical_json(payload):
    """Minimal stable encoding: the content that gets addressed."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cache_key(kind, payload):
    """Content address of one normalized request."""
    body = canonical_json(
        {"schema": CACHE_SCHEMA_VERSION, "kind": kind, "payload": payload}
    )
    return hashlib.sha256(body.encode()).hexdigest()


def _require(payload, field, types, kind):
    value = payload.get(field)
    if not isinstance(value, types):
        raise ConfigError(
            f"{kind} request field {field!r} must be "
            f"{'/'.join(t.__name__ for t in types)}, got {value!r}"
        )
    return value


def _normalize_sim(payload):
    suite = payload.get("suite", "spec")
    if suite not in ("spec", "parsec"):
        raise ConfigError(f"sim request suite must be spec|parsec, got {suite!r}")
    app = _require(payload, "app", (str,), "sim")
    scheme = str(payload.get("scheme", Scheme.BASE.value)).lower()
    if scheme not in _SCHEME_ALIASES:
        raise ConfigError(
            f"unknown scheme {payload.get('scheme')!r}; "
            f"expected one of {sorted(_SCHEMES)}"
        )
    scheme = _SCHEME_ALIASES[scheme]
    consistency = str(
        payload.get("consistency", ConsistencyModel.TSO.value)
    ).lower()
    if consistency not in _CONSISTENCY_ALIASES:
        raise ConfigError(
            f"unknown consistency model {payload.get('consistency')!r}"
        )
    consistency = _CONSISTENCY_ALIASES[consistency]
    out = {
        "suite": suite,
        "app": app,
        "scheme": scheme,
        "consistency": consistency,
        "seed": int(payload.get("seed", 0)),
        "instructions": (
            int(payload["instructions"])
            if payload.get("instructions") is not None
            else None
        ),
        "sanitize": payload.get("sanitize"),
        "fault": payload.get("fault"),
        "max_cycles": (
            int(payload["max_cycles"])
            if payload.get("max_cycles") is not None
            else None
        ),
    }
    if out["sanitize"] not in (None, "strict", "record"):
        raise ConfigError(f"sanitize must be strict|record, got {out['sanitize']!r}")
    return out


def _normalize_specflow(payload):
    program = payload.get("program")
    if isinstance(program, dict):
        program = canonical_json(program)
    elif not isinstance(program, str):
        raise ConfigError(
            "specflow request needs 'program': a corpus program name or a "
            "serialized fuzz-program object"
        )
    model = payload.get("model", "futuristic")
    if isinstance(model, str):
        model = model.lower()
    if model not in ("spectre", "futuristic"):
        raise ConfigError(f"unknown attack model {model!r}")
    return {
        "program": program,
        "model": model,
        "window": int(payload.get("window", 64)),
        "corpus_seed": int(payload.get("corpus_seed", 0)),
    }


def _normalize_fuzz(payload):
    programs = payload.get("programs")
    if not isinstance(programs, (list, tuple)) or not programs:
        raise ConfigError("fuzz request needs a non-empty 'programs' list")
    texts = []
    for program in programs:
        if isinstance(program, dict):
            texts.append(canonical_json(program))
        elif isinstance(program, str):
            texts.append(program)
        else:
            raise ConfigError("fuzz programs must be dicts or canonical JSON")
    weaken = payload.get("weaken")
    return {
        "programs": texts,
        "window": int(payload.get("window", 64)),
        "weaken": weaken if weaken else None,
    }


_NORMALIZERS = {
    "sim": _normalize_sim,
    "specflow": _normalize_specflow,
    "fuzz": _normalize_fuzz,
}


class SpecflowResult:
    """Specflow cell result; owns its journal/metrics schema."""

    __slots__ = ("cycles", "report")

    def __init__(self, report):
        self.cycles = 0  # abstract interpretation spends no simulated time
        self.report = report

    def to_metrics(self):
        return {"kind": "specflow", "cycles": 0, "report": self.report}


@dataclass(frozen=True)
class SpecflowCellSpec:
    """Pickle-safe specflow analysis job for the worker pool.

    ``program`` is either a corpus program name (resolved against
    :func:`repro.specflow.programs.all_programs` with ``corpus_seed``)
    or the canonical JSON of a serialized
    :class:`~repro.fuzz.generator.FuzzProgram`.
    """

    cell_id: str
    program: str
    model: str = "futuristic"
    window: int = 64
    corpus_seed: int = 0

    def run(self, seed, max_cycles, watchdog, faults, heartbeat=None):
        # seed/max_cycles/faults accepted for pool-contract compatibility
        # but unused: analysis is a pure function of the program.
        if heartbeat is not None:
            heartbeat(0)
        prog = self._resolve_program()
        report = analyze_program(
            prog, model=self.model, window=self.window
        )
        if watchdog is not None:
            watchdog(0)
        return SpecflowResult(report.to_dict())

    def _resolve_program(self):
        if self.program.lstrip().startswith("{"):
            return FuzzProgram.from_dict(json.loads(self.program)).spec_program()
        for prog in corpus.all_programs(seed=self.corpus_seed):
            if prog.name == self.program:
                return prog
        raise WorkloadError(
            f"unknown specflow corpus program {self.program!r}"
        )


class JobRequest:
    """One normalized service request, ready to key, queue, and run."""

    __slots__ = (
        "kind", "payload", "client_id", "lane", "deadline_s", "nocache",
        "_key",
    )

    def __init__(self, kind, payload, client_id="anon", lane="interactive",
                 deadline_s=None, nocache=False):
        if kind not in KINDS:
            raise ConfigError(
                f"unknown request kind {kind!r}; expected one of {KINDS}"
            )
        if lane not in LANES:
            raise ConfigError(
                f"unknown lane {lane!r}; expected one of {LANES}"
            )
        if deadline_s is not None:
            deadline_s = float(deadline_s)
            if deadline_s <= 0:
                raise ConfigError("deadline_s must be positive")
        self.kind = kind
        self.payload = _NORMALIZERS[kind](dict(payload))
        self.client_id = str(client_id) or "anon"
        self.lane = lane
        self.deadline_s = deadline_s
        self.nocache = bool(nocache)
        self._key = None

    @classmethod
    def from_wire(cls, message):
        """Build from a decoded protocol message (defensive copies)."""
        if not isinstance(message, dict):
            raise ConfigError("request body must be a JSON object")
        return cls(
            kind=message.get("kind"),
            payload=message.get("payload") or {},
            client_id=message.get("client", "anon"),
            lane=message.get("lane", "interactive"),
            deadline_s=message.get("deadline_s"),
            nocache=message.get("nocache", False),
        )

    @property
    def cache_key(self):
        if self._key is None:
            self._key = cache_key(self.kind, self.payload)
        return self._key

    @property
    def base_seed(self):
        return self.payload.get("seed", 0) if self.kind == "sim" else 0

    @property
    def max_cycles(self):
        return self.payload.get("max_cycles")

    def build_spec(self):
        """Lower to ``(spec, fault_schedule)`` for the lease pool."""
        short = self.cache_key[:12]
        if self.kind == "sim":
            p = self.payload
            spec = CellSpec(
                suite=p["suite"],
                app=p["app"],
                config=ProcessorConfig(
                    scheme=_SCHEMES[p["scheme"]],
                    consistency=_CONSISTENCY[p["consistency"]],
                ),
                seed=p["seed"],
                instructions=p["instructions"],
                sanitize=p["sanitize"],
            )
            schedule = (
                FaultSchedule.parse([p["fault"]], seed=p["seed"])
                if p["fault"]
                else None
            )
            return spec, schedule
        if self.kind == "specflow":
            p = self.payload
            return (
                SpecflowCellSpec(
                    cell_id=f"specflow:{short}",
                    program=p["program"],
                    model=p["model"],
                    window=p["window"],
                    corpus_seed=p["corpus_seed"],
                ),
                None,
            )
        p = self.payload
        return (
            FuzzCellSpec(
                cell_id=f"fuzz:{short}",
                programs=tuple(p["programs"]),
                window=p["window"],
                weaken=p["weaken"],
            ),
            None,
        )

    def to_journal(self):
        """JSON-able record for the drain journal (resume rebuilds us)."""
        return {
            "kind": self.kind,
            "payload": self.payload,
            "client": self.client_id,
            "lane": self.lane,
            "deadline_s": self.deadline_s,
        }

    @classmethod
    def from_journal(cls, record):
        return cls(
            kind=record["kind"],
            payload=record["payload"],
            client_id=record.get("client", "resume"),
            lane=record.get("lane", "batch"),
            # Deadlines are not resumed: the client that wanted one is
            # gone; the result is computed for the cache.
            deadline_s=None,
        )

    def __repr__(self):
        return (
            f"JobRequest({self.kind}, key={self.cache_key[:12]}, "
            f"client={self.client_id!r}, lane={self.lane})"
        )
