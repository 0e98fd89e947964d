"""Tests for the top-level public API surface."""

from __future__ import annotations

import re

import pytest

import repro


class TestPublicApi:
    def test_version(self):
        # The value itself is single-sourced (tests/test_version.py pins
        # setup metadata and the changelog to it); here we only require
        # the export to exist and be semver-shaped, so a release bump
        # never has to edit this file.
        assert "__version__" in repro.__all__
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_engine_surface_exported(self):
        """Both simulation engines are reachable from the top level."""
        from repro import BatchedSimulator, Simulator, SimulatorBase
        from repro.designs import arbiter2

        assert isinstance(Simulator(arbiter2()), SimulatorBase)
        simulator = BatchedSimulator(arbiter2(), lanes=4)
        assert isinstance(simulator, SimulatorBase)
        assert simulator.lanes == 4

    def test_mining_engine_surface_exported(self):
        """The columnar A-Miner is importable from :mod:`repro.mining`."""
        from repro.designs import arbiter2
        from repro.mining import ColumnarDataset, ColumnarDecisionTree

        dataset = ColumnarDataset(arbiter2(), "gnt0", window=2)
        tree = ColumnarDecisionTree(dataset)
        tree.build()
        assert tree.candidate_assertions()

    def test_coverage_surface_exported(self):
        from repro import CoverageRunner, RandomStimulus, measure_coverage
        from repro.designs import arbiter2

        runner = CoverageRunner(arbiter2())
        runner.run_stimulus(RandomStimulus(8, seed=1))
        assert runner.report().percent("line") > 0.0
        report = measure_coverage(arbiter2(), RandomStimulus(8, seed=1))
        assert report.as_dict() == runner.report().as_dict()

    def test_coverage_runner_keeps_benchmark_keywords(self):
        """The closure benchmark still passes the config's engine
        constants; only the scalar engine is accepted."""
        from repro import CoverageRunner, GoldMineConfig, RandomStimulus
        from repro.designs import arbiter2

        config = GoldMineConfig()
        runner = CoverageRunner(arbiter2(), engine=config.sim_engine,
                                lanes=config.sim_lanes)
        runner.run_stimulus(RandomStimulus(8, seed=1))
        assert runner.cycles_run == 8
        assert runner.report().percent("line") > 0.0
        with pytest.raises(ValueError, match="batched"):
            CoverageRunner(arbiter2(), engine="batched")

    def test_runner_surface_importable(self):
        """repro.runner is intentionally not imported at top level (it pulls
        the experiment drivers); it must import cleanly on demand."""
        from repro.runner import RunOptions, experiment_names, get_experiment

        names = experiment_names()
        assert "fig12" in names and "sweep" in names
        jobs = get_experiment("fig13").expand(RunOptions(smoke=True))
        assert all(job.experiment == "fig13" for job in jobs)

    def test_readme_quickstart_flow(self):
        """The README/docstring quickstart must keep working verbatim."""
        from repro import CoverageClosure, GoldMineConfig
        from repro.designs import arbiter2

        module = arbiter2()
        closure = CoverageClosure(module, outputs=["gnt0"],
                                  config=GoldMineConfig(window=2))
        result = closure.run()
        assert result.converged
        assert result.input_space_coverage("gnt0") == 1.0

    def test_parse_and_simulate_roundtrip(self):
        from repro import DirectedStimulus, Simulator, parse_module

        module = parse_module(
            "module inv(a, y); input a; output y; assign y = ~a; endmodule"
        )
        trace = Simulator(module).run(DirectedStimulus([{"a": 0}, {"a": 1}]))
        assert trace.column("y") == [1, 0]

    def test_design_registry_importable_from_examples(self):
        from repro.designs import design_names, load

        assert "arbiter2" in design_names()
        assert load("arbiter2").name == "arbiter2"
