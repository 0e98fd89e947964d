"""The paper's core contribution: GoldMine + counterexample-guided refinement.

* :mod:`repro.core.config` — knobs shared by the engine and the loop.
* :mod:`repro.core.goldmine` — the GoldMine engine of the original DATE'10
  tool: the per-design state (synthesis, formal verifier, mining targets)
  the refinement loop shares; its iteration 0 is one GoldMine pass.
* :mod:`repro.core.refinement` — this paper's counterexample-guided
  iterative refinement producing validation stimulus and a final decision
  tree per output (coverage closure).
* :mod:`repro.core.results` — per-iteration records and run summaries,
  JSON-serializable (``to_json``/``from_json``) so closure runs can be
  checkpointed, aggregated and replayed by :mod:`repro.runner`.

Typical use::

    from repro.core import CoverageClosure, GoldMineConfig

    config = GoldMineConfig(window=2, engine="tiered")
    closure = CoverageClosure(module, outputs=["gnt0"], config=config)
    result = closure.run(seed_vectors)      # Stimulus, vector list, or None
    result.converged                        # every leaf assertion proven?
    result.all_true_assertions              # the mined invariants
    result.test_suite                       # seed + every counterexample

Seed and counterexample replay always runs on the compiled scalar
simulator (:class:`repro.sim.simulator.Simulator`).  The A-Miner is always
the bit-parallel columnar decision tree (:mod:`repro.mining.columnar`).
"""

from repro.core.config import GoldMineConfig
from repro.core.goldmine import GoldMine
from repro.core.refinement import CoverageClosure, OutputContext
from repro.core.results import ClosureResult, IterationRecord, TestSequence

__all__ = [
    "ClosureResult",
    "CoverageClosure",
    "GoldMine",
    "GoldMineConfig",
    "IterationRecord",
    "OutputContext",
    "TestSequence",
]
