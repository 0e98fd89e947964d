"""Table 3: directed/random tests vs GoldMine tests on the Rigel modules.

The paper compares a 1.5-million-cycle directed test against the
GoldMine-generated suite (roughly 10-15 k cycles) on the wbstage, fetch and
decode modules, reporting line / condition / toggle / branch coverage.  The
directed suite leaves large condition and toggle gaps (and, on decode, line
and branch gaps) that the GoldMine suite closes or beats on every metric
with orders of magnitude fewer cycles.

Our substrate replaces the 1.5M-cycle commercial run with a long
pseudo-random baseline (the paper's directed suites are not available);
the cycle budget is scaled to the reduced design sizes.  Shape
requirements: the GoldMine suite uses far fewer cycles and matches or
exceeds the baseline on every reported metric for every module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.core.config import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.coverage.runner import CoverageRunner
from repro.designs import info as design_info
from repro.experiments.common import CoverageRow, ExperimentResult
from repro.sim.stimulus import RandomStimulus

DEFAULT_MODULES: tuple[str, ...] = ("wbstage", "fetch", "decode")
METRICS: tuple[str, ...] = ("line", "cond", "toggle", "branch")

PAPER_ROWS = {
    # module: (directed cycles, {metric: %}, goldmine cycles, {metric: %})
    "wbstage": (1_500_000, {"line": 100.0, "cond": 63.33, "toggle": 33.96, "branch": 100.0},
                9_182, {"line": 100.0, "cond": 95.53, "toggle": 96.75, "branch": 100.0}),
    "fetch": (1_500_000, {"line": 95.92, "cond": 87.5, "toggle": 55.22, "branch": 95.0},
              13_466, {"line": 100.0, "cond": 92.0, "toggle": 94.46, "branch": 100.0}),
    "decode": (1_500_000, {"line": 47.82, "cond": 55.04, "toggle": 81.89, "branch": 57.82},
               14_649, {"line": 99.87, "cond": 76.96, "toggle": 91.42, "branch": 88.17}),
}


@dataclass
class Table3Result:
    rows: list[CoverageRow] = field(default_factory=list)

    def row_for(self, design: str, method: str) -> CoverageRow:
        for row in self.rows:
            if row.design == design and row.method == method:
                return row
        raise KeyError((design, method))

    def as_experiment_result(self) -> ExperimentResult:
        result = ExperimentResult(
            name="table3",
            description="Directed/random vs GoldMine coverage on Rigel modules (Table 3)",
            rows=list(self.rows),
        )
        return result


def run(modules: Sequence[str] = DEFAULT_MODULES,
        baseline_cycles: int = 1_000, baseline_seed: int = 11,
        max_iterations: int = 16,
        config: GoldMineConfig | None = None) -> Table3Result:
    """Run the Rigel coverage comparison.

    The baseline is each module's directed test (repeated to the requested
    cycle budget), standing in for the paper's 1.5M-cycle directed suite.
    The GoldMine suite starts from one pass of the same directed test and
    adds every counterexample pattern from the refinement loop; both suites
    are replayed with a reset pulse at the start of every sequence.
    """
    from repro.designs.rigel import DIRECTED_TESTS

    config = config or GoldMineConfig()
    result = Table3Result()
    for design_name in modules:
        meta = design_info(design_name)
        directed = DIRECTED_TESTS[design_name]

        # Baseline: the directed suite repeated up to the cycle budget.
        baseline_module = meta.build()
        runner = CoverageRunner(baseline_module, fsm_signals=meta.fsm_signals or None,
                                prepend_reset=True, engine=config.sim_engine,
                                lanes=config.sim_lanes)
        cycles = 0
        while cycles < baseline_cycles:
            vectors = directed()
            runner.run_vectors(vectors)
            cycles += len(vectors)
        baseline_report = runner.report()
        result.rows.append(CoverageRow(
            design=design_name,
            method="directed",
            cycles=cycles,
            metrics={metric: baseline_report.get(metric, 0.0) or 0.0 for metric in METRICS},
        ))

        # GoldMine: counterexample-refined suite seeded with one directed pass.
        module = meta.build()
        closure = CoverageClosure(
            module, outputs=list(meta.mining_outputs) or None,
            config=replace(config, window=meta.window, max_iterations=max_iterations))
        closure_result = closure.run(directed())
        goldmine_module = meta.build()
        goldmine_runner = CoverageRunner(goldmine_module, fsm_signals=meta.fsm_signals or None,
                                         prepend_reset=True, engine=config.sim_engine,
                                         lanes=config.sim_lanes)
        goldmine_runner.run_suite(closure_result.test_suite)
        goldmine_report = goldmine_runner.report()
        result.rows.append(CoverageRow(
            design=design_name,
            method="goldmine",
            cycles=closure_result.total_test_cycles(),
            metrics={metric: goldmine_report.get(metric, 0.0) or 0.0 for metric in METRICS},
        ))
    return result
