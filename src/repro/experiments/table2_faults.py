"""Table 2: fault detection by the mined assertion suite.

"We implement a systematic mutation-based method to test the assertions'
ability to detect bugs.  The internal design signal is selected to mutate
and all generated assertions are then formally checked on the mutated
design model.  The failed assertions are considered able to cover the
corresponding bug."

Paper reference (number of assertions detecting each fault on Rigel
modules):

====================  ==========  ==========
Signal                stuck at 0  stuck at 1
====================  ==========  ==========
stall_in              269         94
branch_pc             35          35
branch_mispredict     8           66
icache_rdvl_i         1           2
====================  ==========  ==========

Shape requirement: every injected fault is detected by at least one
assertion (the paper: "In each case, the assertion suite is able to detect
the faults").  Absolute counts scale with assertion-suite size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.config import GoldMineConfig
from repro.experiments.common import ExperimentResult, closure_for_design
from repro.faults.mutation import StuckAtFault
from repro.faults.regression import FaultCampaignResult, run_fault_campaign
from repro.sim.stimulus import RandomStimulus

#: The fault sites of the paper's Table 2 (all fetch-stage signals; the
#: multi-bit branch_pc is faulted as a whole bus stuck at 0 / all-ones).
DEFAULT_FAULT_SIGNALS = ("stall_in", "branch_pc", "branch_mispredict", "icache_rdvl_i")

PAPER_DETECTIONS = {
    "stall_in": {0: 269, 1: 94},
    "branch_pc": {0: 35, 1: 35},
    "branch_mispredict": {0: 8, 1: 66},
    "icache_rdvl_i": {0: 1, 1: 2},
}


@dataclass
class Table2Result:
    design: str
    assertion_count: int
    campaign: FaultCampaignResult = None
    rows: list[tuple[str, int, int]] = field(default_factory=list)
    test_suite_cycles: int = 0

    @property
    def all_detected(self) -> bool:
        return self.campaign is not None and \
            self.campaign.detected_faults == self.campaign.total_faults

    def as_experiment_result(self) -> ExperimentResult:
        result = ExperimentResult(
            name="table2",
            description="Faults covered by assertions (paper Table 2)",
        )
        for signal, sa0, sa1 in self.rows:
            result.add_series(signal, [float(sa0), float(sa1)])
        result.notes.append(f"assertion suite size: {self.assertion_count}")
        result.notes.append(f"all_detected={self.all_detected}")
        return result

    def test_cycles(self) -> int:
        return self.test_suite_cycles


def mine_assertion_suite(design_name: str, seed_cycles: int, random_seed: int,
                         max_iterations: int,
                         config: GoldMineConfig | None = None):
    """Mine the golden design's assertion suite with the refinement loop.

    All outputs (including multi-bit buses, mined bit by bit) are covered so
    the regression suite observes every output the fault sites feed — the
    paper's Rigel suites likewise span every module output.
    """
    closure, result = closure_for_design(
        design_name, config, RandomStimulus(seed_cycles, seed=random_seed),
        outputs=(), max_iterations=max_iterations)
    return closure.module, result


def run(design_name: str = "fetch",
        fault_signals: Sequence[str] = DEFAULT_FAULT_SIGNALS,
        seed_cycles: int = 30, random_seed: int = 7,
        max_iterations: int = 16,
        mode: str = "formal",
        config: GoldMineConfig | None = None) -> Table2Result:
    """Run the fault-injection regression on the fetch stage."""
    module, closure_result = mine_assertion_suite(
        design_name, seed_cycles, random_seed, max_iterations, config=config)
    assertions = closure_result.all_true_assertions

    faults = []
    for signal in fault_signals:
        faults.append(StuckAtFault(signal, 0))
        faults.append(StuckAtFault(signal, 1))

    campaign = run_fault_campaign(
        module, assertions, faults, mode=mode,
        # The campaign's per-mutant model checking runs under the same
        # config as the mining phase (engine, worker pool, proof cache,
        # query timeout).
        config=config,
        test_suite=closure_result.test_suite if mode == "simulation" else None,
    )

    table = campaign.by_signal()
    rows = [(signal, table.get(signal, {}).get(0, 0), table.get(signal, {}).get(1, 0))
            for signal in fault_signals]
    return Table2Result(
        design=design_name,
        assertion_count=len(assertions),
        campaign=campaign,
        rows=rows,
        test_suite_cycles=closure_result.total_test_cycles(),
    )
