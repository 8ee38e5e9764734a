"""The fuzz campaign's reliability-layer cell kind.

A :class:`FuzzCellSpec` is one crash-isolated unit of campaign work: a
*batch* of generated programs differentially checked back to back in one
worker attempt.  Batching amortizes the per-cell journal rewrite (the
journal rewrites the whole file per record) without giving up isolation
granularity that matters — a program that kills the interpreter takes
down only its batch, and the supervisor's quarantine then poisons just
that cell.

The spec is duck-typed to the supervisor's contract (``.cell_id`` +
``.run(seed, max_cycles, watchdog, faults, heartbeat=None)``) and is a
frozen dataclass of plain strings, so it pickles across the task pipe
unchanged.  Programs travel as canonical-JSON strings; workers rebuild
them bit-identically (stored uids) via
:meth:`~repro.fuzz.generator.FuzzProgram.build`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..errors import ReproError
from .generator import FuzzProgram
from .harness import differential_check

__all__ = ["FuzzBatchResult", "FuzzCellSpec"]


class FuzzBatchResult:
    """What one executed fuzz cell produced.

    Quacks enough like a RunResult for the engine's bookkeeping
    (``.cycles``) and owns its journal schema via :meth:`to_metrics` —
    :func:`repro.reliability.engine.capture_metrics` dispatches on it.
    """

    __slots__ = ("cycles", "verdicts")

    def __init__(self, cycles, verdicts):
        self.cycles = cycles
        #: one dict per program, in batch order (see
        #: :meth:`DifferentialResult.to_dict`; error entries carry
        #: ``classification: "error"`` plus the error class/message)
        self.verdicts = verdicts

    def to_metrics(self):
        return {
            "kind": "fuzz",
            "cycles": self.cycles,
            "programs": self.verdicts,
        }

    def __repr__(self):
        return (
            f"FuzzBatchResult({len(self.verdicts)} programs, "
            f"cycles={self.cycles})"
        )


@dataclass(frozen=True)
class FuzzCellSpec:
    """Pickle-safe description of one campaign batch."""

    cell_id: str
    programs: tuple  # canonical-JSON strings, one per FuzzProgram
    window: int = 64
    weaken: str = None
    seed: int = 0

    def run(self, seed, max_cycles, watchdog, faults, heartbeat=None):
        """Differentially check every program in the batch.

        ``seed`` and ``faults`` are accepted for signature compatibility
        with the engine/worker call sites but deliberately unused: the
        programs are fully pre-built (the campaign's bit-identity
        guarantee), and fault injection would perturb the very evidence
        the differential is judging.  A program whose simulation raises
        a :class:`~repro.errors.ReproError` becomes an ``error`` verdict
        instead of failing the batch.
        """
        phase_cycles = max_cycles if max_cycles is not None else 2_000_000
        verdicts = []
        total_cycles = 0
        for text in self.programs:
            prog = FuzzProgram.from_dict(json.loads(text))
            try:
                result = differential_check(
                    prog,
                    window=self.window,
                    weaken=self.weaken,
                    watchdog=watchdog,
                    heartbeat=heartbeat,
                    phase_cycles=phase_cycles,
                )
            except ReproError as error:
                verdicts.append({
                    "name": prog.name,
                    "template": prog.template,
                    "mutations": list(prog.mutations),
                    "classification": "error",
                    "error_class": type(error).__name__,
                    "error_message": str(error),
                })
            else:
                total_cycles += result.cycles
                verdicts.append(result.to_dict())
        return FuzzBatchResult(total_cycles, verdicts)
