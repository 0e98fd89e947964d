"""Per-iteration coverage bookkeeping shared by the Fig. 12/13/14 drivers."""

from __future__ import annotations

from repro.core.config import GoldMineConfig
from repro.core.results import ClosureResult, TestSequence
from repro.experiments.common import coverage_snapshots


def sequences_by_iteration(result: ClosureResult) -> list[list[TestSequence]]:
    """The test sequences each iteration added to the suite.

    The closure loop appends counterexample sequences to ``result.test_suite``
    in iteration order and records the cumulative cycle count in each
    iteration record, so the suite splits exactly at those counts; the
    seed belongs to iteration 0.
    """
    groups: list[list[TestSequence]] = []
    suite = iter(result.test_suite)
    cycles = 0
    for record in result.iterations:
        group: list[TestSequence] = []
        while cycles < record.cumulative_test_cycles:
            sequence = next(suite, None)
            if sequence is None:
                break
            group.append(sequence)
            cycles += len(sequence)
        groups.append(group)
    return groups


def metric_by_iteration(design_name: str, result: ClosureResult, metric: str,
                        config: GoldMineConfig | None = None) -> list[float]:
    """Replay the growing test suite once and report ``metric`` after each
    iteration.

    This reproduces the paper's "coverage increases monotonically with every
    iteration" plots: the suite after iteration *k* is the seed plus every
    counterexample pattern produced up to and including iteration *k*.
    Each iteration's new sequences are fed into one coverage runner, which
    gives the same report as replaying the whole prefix from scratch.
    """
    return [report.get(metric, 0.0) or 0.0 for report in coverage_snapshots(
        design_name, config, sequences_by_iteration(result))]


def input_space_by_iteration(result: ClosureResult, output: str | None = None) -> list[float]:
    """Input-space coverage (%) after each iteration."""
    return [100.0 * value for value in result.coverage_by_iteration(output)]
