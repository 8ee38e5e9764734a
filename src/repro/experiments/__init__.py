"""Experiment harness: regenerates every figure and table of the paper's
evaluation (Section IX).

==========  ==========================================================
Experiment  Contents
==========  ==========================================================
figure4     Normalized execution time, SPEC x 5 configs, TSO + RC avg
figure5     Spectre PoC access latencies, Base vs IS-Sp
figure6     Normalized network traffic, SPEC, with breakdown
figure7     Normalized execution time, PARSEC (8 cores)
figure8     Normalized network traffic, PARSEC
table6      Characterization of InvisiSpec's operation under TSO
table7      Per-core hardware overhead (CACTI-style model)
tables45    The input configurations (Tables IV and V), for completeness
ablations   Design-choice ablations (LLC-SB, V->E optimization, ...)
selective   specflow-guided selective protection (IS-Sel) vs full schemes
==========  ==========================================================

Figures 4 and 6 are two views of one SPEC cell matrix, and Figures 7 and
8 of one PARSEC matrix (:mod:`repro.experiments.figures`).

Run from the command line::

    python -m repro.experiments figure4 --instructions 6000
    python -m repro.experiments all
"""

from .common import ExperimentResult
from . import ablations, figure5, figures, report, selective, sweep
from . import table6, table7, tables45, variance

ALL_EXPERIMENTS = {
    "figure4": figures.figure4,
    "figure5": figure5.run,
    "figure6": figures.figure6,
    "figure7": figures.figure7,
    "figure8": figures.figure8,
    "table6": table6.run,
    "table7": table7.run,
    "tables45": tables45.run,
    "ablations": ablations.run,
    "selective": selective.run,
    "sweep": sweep.run,
    "report": report.run,
    "variance": variance.run,
}

__all__ = ["ALL_EXPERIMENTS", "ExperimentResult"]
