"""E11 — ablation: explicit vs SAT/BMC vs BDD formal back ends.

The paper reports an average of 1.5 seconds per formal check with a
commercial model checker (Section 7); this ablation reports the per-check
cost of the three in-house engines and verifies they agree on every mined
assertion.
"""

from __future__ import annotations

from _utils import run_once

from repro.experiments import ablation_engines
from repro.experiments.common import format_table


def test_ablation_formal_engines(benchmark, print_section):
    comparisons = run_once(benchmark, ablation_engines.run).comparisons

    headers = ["design", "assertions", "engine", "true", "false", "unknown",
               "avg ms/check"]
    rows = []
    for comparison in comparisons:
        for name, stats in comparison.stats.items():
            rows.append([comparison.design, comparison.assertions_checked, name,
                         stats.true_verdicts, stats.false_verdicts,
                         stats.unknown_verdicts,
                         f"{1000 * stats.average_seconds:.2f}"])
    print_section("Ablation E11 — formal engine comparison "
                  "(paper: ~1500 ms/check on a commercial checker)",
                  format_table(headers, rows))

    for comparison in comparisons:
        assert comparison.assertions_checked > 0
        # Exact engines must agree; the bounded engine must never contradict.
        assert comparison.disagreements == 0
        assert comparison.bmc_contradictions == 0
        for stats in comparison.stats.values():
            assert stats.checks == comparison.assertions_checked
