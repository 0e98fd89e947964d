"""Smoke/shape tests for the experiment drivers (scaled-down parameters).

The full-size runs live in ``benchmarks/``; these tests exercise the same
drivers with reduced workloads so the experiment code is covered by the
ordinary test suite.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ablation_engines,
    ablation_incremental,
    arbiter_walkthrough,
    common,
    fig12_arbiter,
    fig13_design_space,
    fig15_high_coverage,
    fig16_itc99,
    iteration_coverage,
    table1_zero_seed,
    table3_rigel,
)
from repro.sim.stimulus import RandomStimulus


class TestCommonHelpers:
    def test_closure_for_design_uses_registered_metadata(self):
        closure, result = common.closure_for_design(
            "arbiter2", seed=common.design_seed("arbiter2", 0, 0), outputs=["gnt0"])
        assert closure.module.name == "arbiter2"
        assert closure.config.window == 2
        assert result.converged

    def test_coverage_of_random(self):
        report = common.coverage_of_suite("b01", None, [RandomStimulus(40, seed=1)])
        assert 0.0 < report.percent("line") <= 100.0

    def test_format_table_alignment(self):
        text = common.format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_suite_prefix_matches_cumulative_cycles(self):
        _, result = common.closure_for_design(
            "arbiter2", seed=common.design_seed("arbiter2", 0, 0), outputs=["gnt0"])
        groups = iteration_coverage.sequences_by_iteration(result)
        assert len(groups) == len(result.iterations)
        assert [seq for group in groups for seq in group] == result.test_suite
        cycles = 0
        for record, group in zip(result.iterations, groups):
            cycles += sum(len(seq) for seq in group)
            assert cycles == record.cumulative_test_cycles


class TestFigureDrivers:
    def test_fig12_shape(self):
        result = fig12_arbiter.run()
        assert result.converged
        assert result.input_space[0] == 0.0
        assert result.input_space[-1] == 100.0
        assert len(result.expression) == len(result.input_space)

    def test_fig13_monotone(self):
        result = fig13_design_space.run(subjects=(("arbiter2", "gnt0", "seq"),),
                                        seed_cycles=3)
        series = result.series_for("arbiter2")
        assert series.coverage_percent[-1] == 100.0
        assert all(b >= a for a, b in zip(series.coverage_percent,
                                          series.coverage_percent[1:]))

    def test_table1_zero_seed_single_subject(self):
        result = table1_zero_seed.run(subjects=(("arbiter2", "gnt0"),))
        series = result.series_for("arbiter2", "gnt0")
        assert series.coverage_percent[0] == 0.0
        assert series.coverage_percent[-1] == 100.0
        assert len(series.at_checkpoints()) == len(table1_zero_seed.PAPER_CHECKPOINTS)

    def test_fig15_never_regresses(self):
        result = fig15_high_coverage.run(random_cycles=20)
        for metric, before in result.before.items():
            assert result.after[metric] >= before - 1e-9

    def test_fig16_single_design(self):
        result = fig16_itc99.run(designs=["b01"], cycles={"b01": 40},
                                 goldmine_seed_cycles=10)
        random_row = result.row_for("b01", "random")
        goldmine_row = result.row_for("b01", "goldmine")
        for metric in fig16_itc99.METRICS:
            assert goldmine_row.metric(metric) >= random_row.metric(metric) - 1e-9

    def test_table3_single_module(self):
        result = table3_rigel.run(modules=["wbstage"], baseline_cycles=128)
        directed = result.row_for("wbstage", "directed")
        goldmine = result.row_for("wbstage", "goldmine")
        assert goldmine.cycles < directed.cycles
        for metric in table3_rigel.METRICS:
            assert goldmine.metric(metric) >= directed.metric(metric) - 1e-9


class TestNarrativeAndAblations:
    def test_walkthrough_snapshots(self):
        result = arbiter_walkthrough.run()
        assert result.converged
        assert result.snapshots[0].failed
        assert result.snapshots[-1].counterexamples == 0
        assert result.final_assertions_sva

    def test_ablation_incremental(self):
        result = ablation_incremental.run(design_name="arbiter2", output="gnt0",
                                          seed_cycles=6)
        # Both variants must reach closure with full output-centric coverage;
        # the check-count comparison on the larger arbiter4 workload lives in
        # benchmarks/bench_ablation_incremental_tree.py.
        assert result.incremental.converged and result.rebuilt.converged
        assert result.incremental.input_space_coverage == 1.0
        assert result.rebuilt.input_space_coverage == 1.0

    def test_ablation_engines_agree(self):
        result = ablation_engines.run(designs=("arbiter2",), seed_cycles=6,
                                      max_assertions_per_design=10)
        assert result.comparisons[0].disagreements == 0
        assert result.comparisons[0].bmc_contradictions == 0

    def test_experiment_result_containers(self):
        result = fig12_arbiter.run().as_experiment_result()
        assert result.name == "fig12"
        assert "input_space_%" in result.series
