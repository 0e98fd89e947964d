"""One incremental replay ≡ a fresh replay of every suite prefix.

``metric_by_iteration`` feeds each iteration's new sequences into one
coverage runner and snapshots the report after each iteration.  The
oracle below is the direct computation it replaced: a fresh runner per
iteration replaying the whole suite prefix that existed when the
iteration record was captured.
"""

from __future__ import annotations

import pytest

from repro.coverage.runner import CoverageRunner
from repro.designs import info as design_info
from repro.experiments.common import closure_for_design, design_seed
from repro.experiments.iteration_coverage import metric_by_iteration

METRICS = ("line", "branch", "cond", "expr", "toggle", "fsm")


def prefix_reports(design_name, result):
    """Oracle: one fresh runner per iteration, replaying the suite prefix."""
    meta = design_info(design_name)
    module = meta.build()
    reports = []
    for record in result.iterations:
        prefix, cycles = [], 0
        for sequence in result.test_suite:
            if cycles >= record.cumulative_test_cycles:
                break
            prefix.append(sequence)
            cycles += len(sequence)
        runner = CoverageRunner(module, fsm_signals=meta.fsm_signals or None)
        runner.run_suite(prefix)
        reports.append(runner.report())
    return reports


@pytest.mark.parametrize("design", ["arbiter2", "arbiter4", "b01", "b02", "b06",
                                    "b09", "counter_block", "wbstage"])
def test_incremental_replay_matches_per_prefix_replay(design):
    _, result = closure_for_design(design, None, design_seed(design, 6, 2),
                                   max_iterations=6)
    assert len(result.iterations) > 1
    expected = prefix_reports(design, result)
    for metric in METRICS:
        assert metric_by_iteration(design, result, metric) == \
            [report.get(metric, 0.0) or 0.0 for report in expected], metric
