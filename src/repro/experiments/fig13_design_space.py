"""Figure 13: design-space (input-space) coverage by iteration.

The paper plots the fraction of the output's input space covered by true
assertions against the counterexample iteration for cex_small, arbiter2
and arbiter4 (plus wb_stage and fetch_stage in the accompanying groups),
showing an exponential rise in early iterations, a logarithmic tail and
convergence to 100 % for the simpler blocks.

The reproduction runs the refinement loop on the same design set and
returns the per-iteration input-space series for each design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.config import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.designs import info as design_info
from repro.experiments.common import ExperimentResult
from repro.experiments.iteration_coverage import input_space_by_iteration
from repro.sim.stimulus import RandomStimulus

#: Designs, the output tracked, window, and experiment group
#: (Section 7.1 lists the four groups: combinational/sequential crossed
#: with directed/random seeds).
DEFAULT_SUBJECTS: tuple[tuple[str, str, str], ...] = (
    ("cex_small", "z", "combinational, directed test"),
    ("wbstage", "wb_valid", "combinational/registered, random stimulus"),
    ("arbiter2", "gnt0", "sequential, directed test"),
    ("arbiter4", "gnt0", "sequential, directed test"),
    ("fetch", "valid", "sequential, random stimulus"),
)


@dataclass
class DesignSpaceSeries:
    design: str
    output: str
    group: str
    coverage_percent: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    test_suite_cycles: int = 0


@dataclass
class Fig13Result:
    series: list[DesignSpaceSeries] = field(default_factory=list)

    def series_for(self, design: str) -> DesignSpaceSeries:
        for entry in self.series:
            if entry.design == design:
                return entry
        raise KeyError(design)

    def as_experiment_result(self) -> ExperimentResult:
        result = ExperimentResult(
            name="fig13",
            description="Design-space coverage by iteration (paper Fig. 13)",
        )
        for entry in self.series:
            result.add_series(f"{entry.design}.{entry.output}", entry.coverage_percent)
        return result


def run(subjects: Sequence[tuple[str, str, str]] = DEFAULT_SUBJECTS,
        seed_cycles: int = 4, random_seed: int = 1,
        max_iterations: int = 20,
        sim_engine: str = "scalar", sim_lanes: int = 64,
        formal_engine: str = "explicit",
        induction_k: int = 8,
        formal_workers: int = 1,
        formal_query_timeout: float | None = None,
        proof_cache: bool | str = False) -> Fig13Result:
    """Run the Figure 13 study on the default design set."""
    result = Fig13Result()
    for design_name, output, group in subjects:
        meta = design_info(design_name)
        module = meta.build()
        config = GoldMineConfig(window=meta.window, max_iterations=max_iterations,
                                sim_engine=sim_engine, sim_lanes=sim_lanes,
                                engine=formal_engine, induction_k=induction_k,
                                formal_workers=formal_workers,
                                formal_proof_cache=proof_cache,
                                formal_query_timeout=formal_query_timeout)
        closure = CoverageClosure(module, outputs=[output], config=config)
        if meta.directed_test is not None:
            seed: object = meta.seed_vectors()
        else:
            seed = RandomStimulus(seed_cycles, seed=random_seed)
        closure_result = closure.run(seed)
        label = closure.contexts[0].label
        series = DesignSpaceSeries(
            design=design_name,
            output=output,
            group=group,
            coverage_percent=input_space_by_iteration(closure_result, label),
            converged=closure_result.converged,
            iterations=closure_result.iteration_count,
            test_suite_cycles=closure_result.total_test_cycles(),
        )
        result.series.append(series)
    return result


def coverage_table(result: Fig13Result) -> list[list[object]]:
    """Rows of (design, iteration count, final coverage, monotone?)."""
    rows: list[list[object]] = []
    for entry in result.series:
        monotone = all(later >= earlier - 1e-9 for earlier, later
                       in zip(entry.coverage_percent, entry.coverage_percent[1:]))
        final = entry.coverage_percent[-1] if entry.coverage_percent else 0.0
        rows.append([entry.design, entry.output, entry.iterations,
                     f"{final:.2f}%", "yes" if monotone else "NO"])
    return rows
