"""Experiment drivers reproducing every table and figure of the paper.

Each module reproduces one artifact of Section 7 (plus the Section 6
worked example and two ablations).  The drivers are importable, testable
library code with no side effects; the layers above consume them:

* ``python -m repro run <name>`` — the canonical entry point: every
  driver is registered as a declarative job spec in
  :mod:`repro.runner.specs` and runs sharded/parallel/checkpointed
  (see ``docs/EXPERIMENTS.md`` for the command per artifact).
* ``benchmarks/`` — full-scale regeneration with shape validation.
* ``tests/experiments/`` — scaled-down smoke/shape tests.

Every driver follows one contract:

* ``run(**kwargs)`` takes one ``config: GoldMineConfig | None`` carrying
  the engine settings (simulation engine and lanes, formal engine,
  induction depth, formal workers, query timeout, proof cache) plus its
  own subject kwargs; a runner job's params are exactly those kwargs.
* The closure runs through :func:`~repro.experiments.common.closure_for_design`,
  which sets the design's window and the driver's per-subject fields
  (iteration budget, ...) on a :func:`dataclasses.replace` copy of the
  config; coverage of a suite is measured through
  :func:`~repro.experiments.common.coverage_of_suite` (or, per
  iteration, :func:`~repro.experiments.common.coverage_snapshots`).
  Those are the only places the experiments build a ``CoverageClosure``
  or a ``CoverageRunner``.
* The returned result renders its own runner payload,
  ``as_experiment_result()`` (series, rows and notes), and its simulated
  test cycles, ``test_cycles()``.

``config.sim_engine``/``sim_lanes`` route the bit-parallel batched
simulator through data generation, counterexample replay and coverage
measurement; results are engine-independent.  Mining always runs on the
bit-parallel columnar A-Miner.

| Paper artifact | Driver |
|----------------|--------|
| Fig. 12 (arbiter coverage by iteration)      | :mod:`repro.experiments.fig12_arbiter` |
| Fig. 13 (design-space coverage by iteration) | :mod:`repro.experiments.fig13_design_space` |
| Fig. 14 (expression coverage by iteration)   | :mod:`repro.experiments.fig14_expression` |
| Table 1 (zero-pattern limit study)           | :mod:`repro.experiments.table1_zero_seed` |
| Fig. 15 (high-coverage block)                | :mod:`repro.experiments.fig15_high_coverage` |
| Table 2 (fault detection)                    | :mod:`repro.experiments.table2_faults` |
| Table 3 (Rigel coverage comparison)          | :mod:`repro.experiments.table3_rigel` |
| Fig. 16 (ITC'99 coverage comparison)         | :mod:`repro.experiments.fig16_itc99` |
| Sec. 6 walkthrough                           | :mod:`repro.experiments.arbiter_walkthrough` |
| Ablation: incremental vs rebuilt trees       | :mod:`repro.experiments.ablation_incremental` |
| Ablation: formal engine comparison           | :mod:`repro.experiments.ablation_engines` |
| ad-hoc (design × seed) closure sweep         | :mod:`repro.experiments.sweep` |
"""

from repro.experiments.common import (
    CoverageRow,
    ExperimentResult,
    closure_for_design,
    coverage_of_suite,
    coverage_snapshots,
    format_table,
)

__all__ = [
    "CoverageRow",
    "ExperimentResult",
    "closure_for_design",
    "coverage_of_suite",
    "coverage_snapshots",
    "format_table",
]
