"""Figure 15: improving a block that already has very high coverage.

Paper reference: a block with 100 % line and branch coverage after 50
random cycles, and 93.02 % condition coverage, reaches 95.35 % condition
coverage once the GoldMine counterexample tests are added.

Shape requirements for the reproduction: after the 50-cycle random seed,
line and branch coverage are already at (or very near) 100 %; adding the
GoldMine-refined patterns never decreases any metric and strictly
increases condition coverage whenever the seed left condition bins
uncovered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.coverage.runner import CoverageRunner
from repro.designs import info as design_info
from repro.experiments.common import ExperimentResult
from repro.sim.stimulus import RandomStimulus

PAPER_BEFORE = {"line": 100.0, "branch": 100.0, "cond": 93.02}
PAPER_AFTER = {"line": 100.0, "branch": 100.0, "cond": 95.35}


@dataclass
class Fig15Result:
    design: str
    random_cycles: int
    before: dict[str, float] = field(default_factory=dict)
    after: dict[str, float] = field(default_factory=dict)
    added_test_cycles: int = 0
    converged: bool = False

    def improvement(self, metric: str) -> float:
        return self.after.get(metric, 0.0) - self.before.get(metric, 0.0)

    def as_experiment_result(self) -> ExperimentResult:
        result = ExperimentResult(
            name="fig15",
            description="Increasing coverage on an already-high-coverage block (Fig. 15)",
        )
        result.add_series("before", [self.before.get(m, 0.0) for m in ("line", "branch", "cond")])
        result.add_series("after", [self.after.get(m, 0.0) for m in ("line", "branch", "cond")])
        return result


#: Input bias used for the seed test: a realistic block-level directed
#: environment exercises the common paths heavily and the rare paths almost
#: never, which is exactly the situation the paper describes (very high but
#: incomplete coverage that is hard to improve by hand).
DEFAULT_BIAS = {"mem_valid": 0.02, "alu_valid": 0.9, "stall_in": 0.8}


def _seed_vectors(module, random_cycles: int, random_seed: int, bias) -> list[dict[str, int]]:
    """A reset pulse followed by biased random cycles (reset de-asserted)."""
    vectors: list[dict[str, int]] = []
    if module.reset is not None:
        vectors.append({module.reset: 1})
    stimulus = RandomStimulus(random_cycles, seed=random_seed, bias=bias)
    for vector in stimulus.cycles(module):
        values = dict(vector)
        if module.reset is not None:
            values[module.reset] = 0
        vectors.append(values)
    return vectors


def run(design_name: str = "wbstage", random_cycles: int = 30,
        random_seed: int = 2, max_iterations: int = 16,
        bias: dict[str, float] | None = None,
        sim_engine: str = "scalar", sim_lanes: int = 64,
        formal_engine: str = "explicit",
        induction_k: int = 8,
        formal_workers: int = 1,
        formal_query_timeout: float | None = None,
        proof_cache: bool | str = False) -> Fig15Result:
    """Run the high-coverage-block study."""
    meta = design_info(design_name)
    metrics = ("line", "branch", "cond", "expr", "toggle")
    bias = DEFAULT_BIAS if bias is None else bias

    # Baseline: a reset pulse plus the biased random test on its own.
    baseline_module = meta.build()
    seed_vectors = _seed_vectors(baseline_module, random_cycles, random_seed, bias)
    baseline_runner = CoverageRunner(baseline_module, fsm_signals=meta.fsm_signals or None,
                                     engine=sim_engine, lanes=sim_lanes)
    baseline_runner.run_vectors(seed_vectors)
    before = {metric: baseline_runner.report().get(metric, 0.0) or 0.0 for metric in metrics}

    # GoldMine refinement seeded with the same cycles.
    module = meta.build()
    config = GoldMineConfig(window=meta.window, max_iterations=max_iterations,
                            random_seed=random_seed,
                            sim_engine=sim_engine, sim_lanes=sim_lanes,
                            engine=formal_engine, induction_k=induction_k,
                            formal_workers=formal_workers,
                            formal_proof_cache=proof_cache,
                            formal_query_timeout=formal_query_timeout)
    closure = CoverageClosure(module, outputs=list(meta.mining_outputs) or None, config=config)
    closure_result = closure.run(seed_vectors)

    combined_module = meta.build()
    combined_runner = CoverageRunner(combined_module, fsm_signals=meta.fsm_signals or None,
                                     engine=sim_engine, lanes=sim_lanes)
    combined_runner.run_suite(closure_result.test_suite)
    after = {metric: combined_runner.report().get(metric, 0.0) or 0.0 for metric in metrics}

    added = closure_result.total_test_cycles() - len(seed_vectors)
    return Fig15Result(
        design=design_name,
        random_cycles=random_cycles,
        before=before,
        after=after,
        added_test_cycles=max(added, 0),
        converged=closure_result.converged,
    )
