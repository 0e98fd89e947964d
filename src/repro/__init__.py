"""repro — reproduction of "Towards Coverage Closure: Using GoldMine
Assertions for Generating Design Validation Stimulus" (Liu et al., DATE 2011).

Public API quick tour
---------------------

>>> from repro import parse_module, CoverageClosure, GoldMineConfig
>>> from repro.designs import arbiter2
>>> module = arbiter2()
>>> closure = CoverageClosure(module, outputs=["gnt0"],
...                           config=GoldMineConfig(window=2))
>>> result = closure.run()
>>> result.converged
True
>>> result.input_space_coverage("gnt0")
1.0

The main entry points are:

* :func:`repro.hdl.parse_module` — parse a Verilog-subset design.
* :class:`repro.sim.Simulator` — cycle-accurate simulation: each
  design runs as one generated Python function, with the coverage
  collectors compiled in as probes.
* :class:`repro.core.GoldMine` — the per-design mining state (synthesis,
  formal verifier, target datasets); the A-Miner itself is the
  columnar/bit-parallel decision tree of :mod:`repro.mining`.
* :class:`repro.core.CoverageClosure` — the paper's counterexample-guided
  refinement loop producing assertions + validation stimulus
  (serializable via :meth:`repro.core.ClosureResult.to_json`).
* :class:`repro.coverage.CoverageRunner` / :func:`repro.coverage
  .measure_coverage` — statement/branch/condition/expression/toggle/FSM
  and output-centric input-space coverage.
* :mod:`repro.faults` — stuck-at mutation and assertion regression.
* :mod:`repro.designs` — the bundled benchmark designs.
* :mod:`repro.experiments` — one driver per paper figure/table.
* :mod:`repro.formal` — the formal back ends, the process-parallel
  verification pool (``GoldMineConfig(formal_workers=N)``) and the
  cross-run proof cache (``formal_proof_cache``).
* :mod:`repro.runner` — parallel experiment orchestration (job specs,
  worker pool, checkpoint/resume), exposed on the command line as
  ``python -m repro`` — see ``docs/EXPERIMENTS.md``.
* :mod:`repro.workers` — the one supervised worker substrate both
  process pools (formal checks, runner jobs) run on; :mod:`repro.chaos`
  is its deterministic fault injector and :mod:`repro.supervise` its
  primitives.
"""

from repro.assertions import Assertion, Literal, Verdict
from repro.core import (
    ClosureResult,
    CoverageClosure,
    GoldMine,
    GoldMineConfig,
    IterationRecord,
)
from repro.coverage import CoverageReport, CoverageRunner, measure_coverage
from repro.formal import FormalVerifier, FormalWorkerPool, ProofCache
from repro.hdl import Module, parse_module, parse_modules
from repro.sim import (
    BatchedSimulator,
    DirectedStimulus,
    RandomStimulus,
    ReplayStimulus,
    Simulator,
    SimulatorBase,
    Trace,
)

#: Single source of truth for the release version: ``setup.py`` parses
#: this assignment, so bump it here and nowhere else.
__version__ = "1.30.0"

__all__ = [
    "Assertion",
    "BatchedSimulator",
    "ClosureResult",
    "CoverageClosure",
    "CoverageReport",
    "CoverageRunner",
    "DirectedStimulus",
    "FormalVerifier",
    "FormalWorkerPool",
    "GoldMine",
    "GoldMineConfig",
    "IterationRecord",
    "Literal",
    "Module",
    "ProofCache",
    "RandomStimulus",
    "ReplayStimulus",
    "Simulator",
    "SimulatorBase",
    "Trace",
    "Verdict",
    "__version__",
    "measure_coverage",
    "parse_module",
    "parse_modules",
]
