"""Ablation E10: incremental decision trees vs rebuilding from scratch.

Section 3 argues that the counterexample's structure "enables a natural
way to add it as a new data instance to incrementally build a decision
tree instead of rebuilding a decision tree from scratch every iteration".
This ablation runs the refinement loop both ways on the same design/seed
and compares convergence, formal-check counts, assertion sets and wall
time.

Expected shape: both variants converge to 100 % input-space coverage (the
algorithm's guarantees do not depend on incrementality), while the
incremental variant performs no worse in iterations/checks and preserves
the variable ordering above refined leaves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.config import GoldMineConfig
from repro.experiments.common import ExperimentResult, closure_for_design
from repro.sim.stimulus import RandomStimulus


@dataclass
class VariantOutcome:
    variant: str
    converged: bool
    iterations: int
    formal_checks: int
    true_assertions: int
    input_space_coverage: float
    seconds: float


@dataclass
class AblationResult:
    design: str
    output: str
    incremental: VariantOutcome = None
    rebuilt: VariantOutcome = None
    shared_assertions: int = 0

    def as_experiment_result(self) -> ExperimentResult:
        result = ExperimentResult(
            name="ablation-incremental",
            description="Incremental vs rebuilt decision trees (ablation E10)",
        )
        # seconds is wall-clock and deliberately left out of the payload: the
        # job record carries timing, the payload must stay deterministic.
        for outcome in (self.incremental, self.rebuilt):
            result.add_series(outcome.variant, [
                float(outcome.converged), float(outcome.iterations),
                float(outcome.formal_checks), float(outcome.true_assertions),
                100.0 * outcome.input_space_coverage,
            ])
        result.notes.append("series values: [converged, iterations, formal_checks, "
                            "true_assertions, input_space_%]")
        result.notes.append(f"shared_assertions={self.shared_assertions}")
        return result

    def test_cycles(self) -> int:
        return 0


def _run_variant(design_name: str, output: str, rebuild: bool, seed_cycles: int,
                 random_seed: int, max_iterations: int,
                 config: GoldMineConfig | None = None) -> tuple[VariantOutcome, set]:
    start = time.perf_counter()
    closure, result = closure_for_design(
        design_name, config, RandomStimulus(seed_cycles, seed=random_seed),
        outputs=[output], rebuild_trees=rebuild, max_iterations=max_iterations)
    seconds = time.perf_counter() - start
    label = closure.contexts[0].label
    outcome = VariantOutcome(
        variant="rebuild" if rebuild else "incremental",
        converged=result.converged,
        iterations=result.iteration_count,
        formal_checks=result.formal_checks,
        true_assertions=len(result.assertions_for(label)),
        input_space_coverage=result.input_space_coverage(label),
        seconds=seconds,
    )
    return outcome, set(result.assertions_for(label))


def run(design_name: str = "arbiter4", output: str = "gnt0",
        seed_cycles: int = 12, random_seed: int = 5,
        max_iterations: int = 24,
        config: GoldMineConfig | None = None) -> AblationResult:
    """Run both variants and collect the comparison."""
    incremental, incremental_set = _run_variant(
        design_name, output, rebuild=False, seed_cycles=seed_cycles,
        random_seed=random_seed, max_iterations=max_iterations, config=config)
    rebuilt, rebuilt_set = _run_variant(
        design_name, output, rebuild=True, seed_cycles=seed_cycles,
        random_seed=random_seed, max_iterations=max_iterations, config=config)
    return AblationResult(design=design_name, output=output,
                          incremental=incremental, rebuilt=rebuilt,
                          shared_assertions=len(incremental_set & rebuilt_set))
