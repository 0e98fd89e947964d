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
from repro.core.refinement import CoverageClosure
from repro.designs import info as design_info
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

    @property
    def same_assertion_count(self) -> bool:
        return self.incremental.true_assertions == self.rebuilt.true_assertions


def _run_variant(design_name: str, output: str, rebuild: bool, seed_cycles: int,
                 random_seed: int, max_iterations: int,
                 sim_engine: str = "scalar", sim_lanes: int = 64,
                 formal_engine: str = "explicit",
                 induction_k: int = 8,
                 formal_workers: int = 1,
                 formal_query_timeout: float | None = None,
                 proof_cache: bool | str = False) -> tuple[VariantOutcome, set]:
    meta = design_info(design_name)
    module = meta.build()
    config = GoldMineConfig(window=meta.window, max_iterations=max_iterations,
                            sim_engine=sim_engine, sim_lanes=sim_lanes,
                            engine=formal_engine, induction_k=induction_k,
                            formal_workers=formal_workers,
                            formal_proof_cache=proof_cache,
                            formal_query_timeout=formal_query_timeout)
    closure = CoverageClosure(module, outputs=[output], config=config,
                              rebuild_trees=rebuild)
    start = time.perf_counter()
    result = closure.run(RandomStimulus(seed_cycles, seed=random_seed))
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
        sim_engine: str = "scalar", sim_lanes: int = 64,
        formal_engine: str = "explicit",
        induction_k: int = 8,
        formal_workers: int = 1,
        formal_query_timeout: float | None = None,
        proof_cache: bool | str = False) -> AblationResult:
    """Run both variants and collect the comparison."""
    incremental, incremental_set = _run_variant(
        design_name, output, rebuild=False, seed_cycles=seed_cycles,
        random_seed=random_seed, max_iterations=max_iterations,
        sim_engine=sim_engine, sim_lanes=sim_lanes, formal_engine=formal_engine,
        induction_k=induction_k,
        formal_workers=formal_workers,
        formal_query_timeout=formal_query_timeout,
        proof_cache=proof_cache)
    rebuilt, rebuilt_set = _run_variant(
        design_name, output, rebuild=True, seed_cycles=seed_cycles,
        random_seed=random_seed, max_iterations=max_iterations,
        sim_engine=sim_engine, sim_lanes=sim_lanes, formal_engine=formal_engine,
        induction_k=induction_k,
        formal_workers=formal_workers,
        formal_query_timeout=formal_query_timeout,
        proof_cache=proof_cache)
    result = AblationResult(design=design_name, output=output,
                            incremental=incremental, rebuilt=rebuilt)
    result.shared_assertions = len(incremental_set & rebuilt_set)
    return result
