"""Persistent run journal: one JSON file per experiment (or cell matrix).

The journal is the reliability engine's source of truth for resume: after
every failed attempt and every finished cell the engine records it and the
journal is atomically rewritten, so a crashed or aborted harness loses at
most the attempt that was in flight.  A subsequent
``python -m repro.experiments <name> --resume`` skips cells whose journal
record is ``ok`` — their figure-relevant metrics are reconstructed straight
from the journal — and re-attempts only the failed ones.

File format (``results/journal/<name>.json``; the experiments CLI gives
the views of one cell matrix one journal, ``spec-matrix`` or
``parsec-matrix``)::

    {
      "version": 1,
      "experiment": "spec-matrix",
      "cells": {
        "<cell id>": {
          "status": "ok" | "failed" | "poisoned",
          "error_class": "DeadlockError",     # failed cells only
          "error_message": "...",
          "cycles": 12345,                    # last attempt's cycle count
          "attempts": [                        # full retry history
            {"seed": 0, "status": "failed", "error_class": "...",
             "wall_ms": 812, "max_cycles": 1000000, "faults": {...}},
            {"seed": 9973, "status": "ok", "wall_ms": 790, ...}
          ],
          "metrics": {...}                    # ok cells only; see engine
        }
      }
    }
"""

from __future__ import annotations

import json
import os

from .atomic_io import atomic_write_text, read_json_with_backup

JOURNAL_VERSION = 1


def _check_cells(data):
    if not isinstance(data, dict) or not isinstance(
        data.get("cells", {}), dict
    ):
        raise ValueError("no cells mapping")


class RunJournal:
    """Crash-safe per-experiment record of cell outcomes.

    Durability against ``kill -9`` mid-write: the journal is rewritten to a
    temp file which is fsync'd *before* the atomic rename, the previous
    good journal is kept as ``<path>.bak``, and a truncated or corrupt
    main file on load falls back to the backup (or an empty journal) with
    a warning instead of crashing ``--resume``.
    """

    def __init__(self, path, experiment=""):
        self.path = os.fspath(path)
        self.experiment = experiment
        self._cells = {}
        #: Set when the main file was unreadable: "bak" if the backup was
        #: used, "empty" if both copies were lost.
        data, self.recovered_from = read_json_with_backup(
            self.path, "run journal", _check_cells
        )
        if data is not None:
            self.experiment = data.get("experiment", self.experiment)
            self._cells = dict(data.get("cells", {}))

    def save(self):
        """Atomically rewrite the journal (write temp + fsync + rename).

        The mechanics (fsync temp + ``.bak`` rotation + directory fsync)
        live in :mod:`repro.reliability.atomic_io`, shared with the fuzz
        triage corpus and the service result store.
        """
        payload = {
            "version": JOURNAL_VERSION,
            "experiment": self.experiment,
            "cells": self._cells,
        }
        atomic_write_text(
            self.path,
            json.dumps(payload, indent=2, sort_keys=True),
            backup=True,
        )

    # ------------------------------------------------------------- records

    def get(self, cell_id):
        return self._cells.get(cell_id)

    def record(self, cell_id, record):
        """Store a cell outcome, extending any prior attempt history."""
        previous = self._cells.get(cell_id)
        if previous is not None:
            record = dict(record)
            record["attempts"] = previous.get("attempts", []) + record.get(
                "attempts", []
            )
        self._cells[cell_id] = record
        self.save()

    def is_completed(self, cell_id):
        record = self._cells.get(cell_id)
        return record is not None and record.get("status") == "ok"

    def completed_ids(self):
        return [cid for cid in self._cells if self.is_completed(cid)]

    def __len__(self):
        return len(self._cells)

    def __contains__(self, cell_id):
        return cell_id in self._cells
