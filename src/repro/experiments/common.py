"""Shared experiment plumbing: cell runs, normalization, result records.

Fault tolerance: every experiment cell runs through
:func:`run_cells`, as an isolated unit of work of a
:class:`~repro.reliability.RunEngine` (the caller's, with its
watchdog/retry/journal semantics, or an in-process one), and a cell that
exhausts its attempts yields a :class:`~repro.reliability.CellFailure`
instead of raising.  The normalization helpers then propagate ``None`` for
anything touching a failed cell, and the figure/table modules render those
as the :data:`GAP` marker rather than aborting the experiment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from ..configs import Scheme
from ..reliability import RetryPolicy, RunEngine, is_ok
from ..stats.report import format_grouped_bars, format_table
from ..workloads import parsec_names, spec_names

#: Rendered in place of a value that depends on a failed cell.
GAP = "×"


def gap_round(value, digits=3):
    """``round(value, digits)``, or the gap marker when the cell failed."""
    return GAP if value is None else round(value, digits)


def mean_available(values):
    """Arithmetic mean over the non-gap values (None entries dropped)."""
    present = [v for v in values if v is not None]
    return arithmetic_mean(present)


@dataclass
class ExperimentResult:
    """Rows plus a rendered text report for one experiment."""

    experiment_id: str
    title: str
    headers: list
    rows: list
    notes: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def text(self):
        body = format_table(self.headers, self.rows, title=self.title)
        if self.notes:
            body += "\n\n" + self.notes
        return body

    def row_for(self, label):
        for row in self.rows:
            if row and row[0] == label:
                return row
        return None

    def bars(self, columns=None, width=40):
        """ASCII bar rendering of the numeric columns (the paper's figures
        are grouped bar charts; this is the terminal equivalent).

        ``columns`` selects header names to plot; defaults to every column
        whose cells are all numeric.
        """
        if not self.rows:
            return ""
        if columns is None:
            columns = [
                header
                for i, header in enumerate(self.headers[1:], start=1)
                if all(
                    isinstance(row[i], (int, float))
                    for row in self.rows
                    if len(row) > i and row[i] != ""
                )
            ]
        indices = {h: self.headers.index(h) for h in columns}
        labels = [row[0] for row in self.rows]
        series = {
            name: [
                row[idx] if len(row) > idx and row[idx] != "" else None
                for row in self.rows
            ]
            for name, idx in indices.items()
        }
        return format_grouped_bars(labels, series, title=self.title,
                                   width=width)

    def to_dict(self):
        """JSON-serializable record (extras are dropped)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": self.notes,
        }

    def save_json(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)

    @classmethod
    def load_json(cls, path):
        with open(path) as handle:
            data = json.load(handle)
        return cls(
            data["experiment_id"],
            data["title"],
            data["headers"],
            data["rows"],
            notes=data.get("notes", ""),
        )


def run_cells(specs, engine=None):
    """Run cell specs through ``engine``; results in spec order.

    A failed cell yields its :class:`~repro.reliability.CellFailure`.
    Without an engine the cells run in-process with no journal and no
    retry, so no seed is ever bumped.
    """
    if engine is None:
        engine = RunEngine(policy=RetryPolicy(max_attempts=1))
    return [
        outcome.result if outcome.ok else outcome.failure()
        for outcome in engine.run_specs(specs)
    ]


def default_apps(suite, apps=None, quick=False):
    """Resolve an app list; ``quick`` picks a small representative subset."""
    if apps:
        return list(apps)
    if suite == "spec":
        if quick:
            return ["mcf", "sjeng", "libquantum", "omnetpp", "hmmer", "GemsFDTD"]
        return spec_names()
    if quick:
        return ["blackscholes", "fluidanimate", "swaptions"]
    return parsec_names()


def normalized(results_by_scheme, metric):
    """Each scheme's metric normalized to Base.

    Failed cells (and every scheme, when Base itself failed) normalize to
    ``None`` — the rendered gap — instead of raising.
    """
    base = results_by_scheme.get(Scheme.BASE)
    base_value = metric(base) if is_ok(base) else None
    return {
        scheme: (
            metric(result) / max(base_value, 1e-12)
            if base_value is not None and is_ok(result)
            else None
        )
        for scheme, result in results_by_scheme.items()
    }


def geometric_mean(values):
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def arithmetic_mean(values):
    return sum(values) / len(values) if values else 0.0


def mean_std(values):
    """(mean, sample standard deviation)."""
    if not values:
        return 0.0, 0.0
    mean = arithmetic_mean(values)
    if len(values) < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(variance)
