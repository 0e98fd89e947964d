"""Ablation E11: comparing the three formal back ends.

Section 7 reports "the average time per formal verification of an
assertion to be 1.5 seconds" with a commercial checker.  This ablation
mines an assertion suite per design, checks every assertion with the
explicit-state engine, the SAT-based BMC engine and the BDD engine, and
reports verdict agreement plus average seconds per check for each engine.

Shape requirements: the explicit and BDD engines agree on every verdict;
the BMC engine never contradicts them (it may return *unknown* on
properties its inductive step cannot prove).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.assertions.assertion import Assertion, Verdict
from repro.core.config import GoldMineConfig
from repro.designs import info as design_info
from repro.experiments.common import CoverageRow, ExperimentResult, closure_for_design
from repro.formal.bdd_engine import BddModelChecker
from repro.formal.bmc import BmcModelChecker
from repro.formal.explicit import ExplicitModelChecker
from repro.sim.stimulus import RandomStimulus


@dataclass
class EngineStats:
    engine: str
    checks: int = 0
    true_verdicts: int = 0
    false_verdicts: int = 0
    unknown_verdicts: int = 0
    total_seconds: float = 0.0

    @property
    def average_seconds(self) -> float:
        return self.total_seconds / self.checks if self.checks else 0.0


@dataclass
class EngineComparison:
    design: str
    assertions_checked: int = 0
    stats: dict[str, EngineStats] = field(default_factory=dict)
    disagreements: int = 0
    bmc_contradictions: int = 0


@dataclass
class EngineAblationResult:
    comparisons: list[EngineComparison] = field(default_factory=list)

    def as_experiment_result(self) -> ExperimentResult:
        result = ExperimentResult(
            name="ablation-engines",
            description="Formal back-end comparison (ablation E11)",
        )
        for comparison in self.comparisons:
            for engine_name, stats in sorted(comparison.stats.items()):
                result.add_row(CoverageRow(
                    design=comparison.design, method=engine_name, cycles=stats.checks,
                    metrics={"true": float(stats.true_verdicts),
                             "false": float(stats.false_verdicts),
                             "unknown": float(stats.unknown_verdicts)},
                ))
            result.notes.append(
                f"{comparison.design}: disagreements={comparison.disagreements} "
                f"bmc_contradictions={comparison.bmc_contradictions}")
        return result

    def test_cycles(self) -> int:
        return 0


def _collect_assertions(design_name: str, seed_cycles: int, random_seed: int,
                        max_iterations: int, include_failed: bool = True,
                        config: GoldMineConfig | None = None) -> tuple:
    """Mine a mixed set of true and (historically) failed assertions."""
    closure, result = closure_for_design(
        design_name, config, RandomStimulus(seed_cycles, seed=random_seed),
        max_iterations=max_iterations)
    assertions: list[Assertion] = list(result.all_true_assertions)
    if include_failed:
        for context in closure.contexts:
            assertions.extend(context.failed)
    return design_info(design_name).build(), assertions


def run(designs: Sequence[str] = ("arbiter2", "arbiter4", "b01"),
        seed_cycles: int = 10, random_seed: int = 9,
        max_iterations: int = 16, bmc_bound: int = 8,
        max_assertions_per_design: int = 40,
        config: GoldMineConfig | None = None) -> EngineAblationResult:
    """Cross-check the three engines over mined assertion suites."""
    result = EngineAblationResult()
    for design_name in designs:
        module, assertions = _collect_assertions(
            design_name, seed_cycles, random_seed, max_iterations, config=config)
        assertions = assertions[:max_assertions_per_design]
        engines = {
            "explicit": ExplicitModelChecker(module),
            "bmc": BmcModelChecker(module, bound=bmc_bound),
            "bdd": BddModelChecker(module),
        }
        comparison = EngineComparison(design=design_name, assertions_checked=len(assertions))
        for name in engines:
            comparison.stats[name] = EngineStats(engine=name)

        for assertion in assertions:
            verdicts: dict[str, Verdict] = {}
            for name, engine in engines.items():
                stats = comparison.stats[name]
                start = time.perf_counter()
                check = engine.check(assertion)
                stats.total_seconds += time.perf_counter() - start
                stats.checks += 1
                verdicts[name] = check.verdict
                if check.verdict is Verdict.TRUE:
                    stats.true_verdicts += 1
                elif check.verdict is Verdict.FALSE:
                    stats.false_verdicts += 1
                else:
                    stats.unknown_verdicts += 1
            if verdicts["explicit"] is not verdicts["bdd"]:
                comparison.disagreements += 1
            if verdicts["bmc"] is not Verdict.UNKNOWN and \
                    verdicts["bmc"] is not verdicts["explicit"]:
                comparison.bmc_contradictions += 1
        result.comparisons.append(comparison)
    return result
