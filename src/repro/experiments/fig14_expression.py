"""Figure 14: expression coverage increase by counterexample iteration.

Paper reference values (expression coverage %):

=========  =========  ========  ========
Iteration  cex_small  arbiter2  arbiter4
=========  =========  ========  ========
0          66.67      70        39
1          83.33      80        82
2          83.33      90        87
3          83.33      90        88
=========  =========  ========  ========

The shape requirements checked by the harness: expression coverage never
decreases with iterations, and the final value is at least the seed value
for every design.  (Absolute numbers depend on the tool's expression-bin
definition; ours is documented in
:class:`repro.coverage.collectors.ExpressionCoverage`.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.config import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.designs import info as design_info
from repro.experiments.common import ExperimentResult
from repro.experiments.iteration_coverage import metric_by_iteration
from repro.sim.stimulus import RandomStimulus

PAPER_EXPRESSION = {
    "cex_small": [66.67, 83.33, 83.33, 83.33],
    "arbiter2": [70.0, 80.0, 90.0, 90.0],
    "arbiter4": [39.0, 82.0, 87.0, 88.0],
}

DEFAULT_SUBJECTS: tuple[str, ...] = ("cex_small", "arbiter2", "arbiter4")


@dataclass
class ExpressionSeries:
    design: str
    expression_percent: list[float] = field(default_factory=list)
    converged: bool = False
    test_suite_cycles: int = 0


@dataclass
class Fig14Result:
    series: list[ExpressionSeries] = field(default_factory=list)

    def series_for(self, design: str) -> ExpressionSeries:
        for entry in self.series:
            if entry.design == design:
                return entry
        raise KeyError(design)

    def as_experiment_result(self) -> ExperimentResult:
        result = ExperimentResult(
            name="fig14",
            description="Expression coverage by iteration (paper Fig. 14)",
        )
        for entry in self.series:
            result.add_series(entry.design, entry.expression_percent)
        for design, values in PAPER_EXPRESSION.items():
            result.add_series(f"paper_{design}", values)
        return result


def run(subjects: Sequence[str] = DEFAULT_SUBJECTS, seed_cycles: int = 3,
        random_seed: int = 3, max_iterations: int = 20,
        sim_engine: str = "scalar", sim_lanes: int = 64,
        formal_engine: str = "explicit",
        induction_k: int = 8,
        formal_workers: int = 1,
        formal_query_timeout: float | None = None,
        proof_cache: bool | str = False) -> Fig14Result:
    """Run the Figure 14 study."""
    result = Fig14Result()
    for design_name in subjects:
        meta = design_info(design_name)
        module = meta.build()
        outputs = list(meta.mining_outputs) or None
        config = GoldMineConfig(window=meta.window, max_iterations=max_iterations,
                                sim_engine=sim_engine, sim_lanes=sim_lanes,
                                engine=formal_engine, induction_k=induction_k,
                                formal_workers=formal_workers,
                                formal_proof_cache=proof_cache,
                                formal_query_timeout=formal_query_timeout)
        closure = CoverageClosure(module, outputs=outputs, config=config)
        if meta.directed_test is not None:
            seed: object = meta.seed_vectors()
        else:
            seed = RandomStimulus(seed_cycles, seed=random_seed)
        closure_result = closure.run(seed)
        series = ExpressionSeries(
            design=design_name,
            expression_percent=metric_by_iteration(
                closure_result, meta.build(), "expr",
                fsm_signals=meta.fsm_signals or None,
                engine=sim_engine, lanes=sim_lanes,
            ),
            converged=closure_result.converged,
            test_suite_cycles=closure_result.total_test_cycles(),
        )
        result.series.append(series)
    return result
