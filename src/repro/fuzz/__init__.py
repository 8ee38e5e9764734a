"""Differential fuzzing of the specflow analyzer against the live pipeline.

``repro.fuzz`` turns specflow's soundness claim into a continuously
tested property.  A seeded generator composes randomized transient-leak
gadgets (bounds-check variants, fence placement, store-to-load
forwarding, exception shields, pointer arithmetic) out of the same
MicroOp vocabulary the attack PoCs use, but with every address/compute
function expressed in the picklable :class:`~repro.cpu.isa.Expr` IR so
whole programs cross process boundaries.  Each program is then judged
twice per shadow model:

* **statically** by :class:`~repro.specflow.SpecFlowAnalyzer`;
* **dynamically** by the two-secret cache-footprint harness — run the
  program twice on the insecure BASE machine with different planted
  secrets and record, per load PC, the lines it touches while
  hypothetically unsafe (per-model judge over the live core trackers).

The differential checker classifies every load: AGREE, SAFE-but-leaks
(a soundness bug — campaign-fatal) or TRANSMIT-but-clean (a precision
gap — tracked).  Disagreeing programs are delta-minimized to a minimal
reproducer and journaled into a content-addressed triage corpus.

The package imports nothing, so a process that needs one piece (the
analysis service loads only :mod:`~repro.fuzz.cells`) holds only that
piece's modules; import from the submodules, e.g.
``from repro.fuzz.campaign import run_campaign``.

Entry points::

    python -m repro.fuzz --programs 1000 --jobs 4 --seed 0
    python -m repro.fuzz --programs 64 --weaken branch_shadows_only
    python -m repro.fuzz replay results/fuzz/corpus/<hash>.json
"""
