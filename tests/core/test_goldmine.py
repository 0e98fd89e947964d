"""Tests for the GoldMine engine: config, mining targets, one mining pass."""

from __future__ import annotations

import pytest

from repro.core.config import GoldMineConfig
from repro.core.goldmine import GoldMine
from repro.core.refinement import CoverageClosure
from repro.designs import info as design_info
from repro.mining.columnar import ColumnarDecisionTree
from repro.sim.simulator import Simulator
from repro.sim.stimulus import RandomStimulus


class TestConfig:
    def test_defaults_valid(self):
        config = GoldMineConfig()
        assert config.window == 1 and config.engine == "explicit"

    @pytest.mark.parametrize("kwargs", [
        {"window": 0}, {"max_iterations": 0}, {"max_depth": -1},
        {"max_states": 0}, {"max_input_combinations": 0},
        {"engine": "nope"}, {"bound": 0}, {"bound": -1},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GoldMineConfig(**kwargs)

    def test_retired_engine_rejected_listing_valid_engines(self):
        from repro.formal.checker import FormalVerifier

        with pytest.raises(ValueError) as excinfo:
            GoldMineConfig(engine="bmc-fresh")
        for name in FormalVerifier.ENGINES:
            assert name in str(excinfo.value)

    @pytest.mark.parametrize("engine", ["explicit", "tiered", "bdd"])
    def test_every_formal_engine_accepted(self, engine):
        assert GoldMineConfig(engine=engine, bound=1).engine == engine

    @pytest.mark.parametrize("retired", ["bmc", "k-induction"])
    def test_retired_sat_engine_names_rejected(self, retired):
        with pytest.raises(ValueError, match=retired):
            GoldMineConfig(engine=retired)


class TestTargets:
    def test_single_bit_outputs(self, arbiter2_module):
        engine = GoldMine(arbiter2_module)
        assert engine.target_outputs() == [("gnt0", None), ("gnt1", None)]

    def test_multibit_outputs_expand_to_bits(self, counter_module):
        engine = GoldMine(counter_module)
        targets = dict.fromkeys(name for name, _ in engine.target_outputs())
        assert "count" in targets
        count_bits = [bit for name, bit in engine.target_outputs() if name == "count"]
        assert count_bits == [0, 1, 2]

    def test_explicit_output_selection(self, arbiter2_module):
        engine = GoldMine(arbiter2_module)
        assert engine.target_outputs(["gnt1"]) == [("gnt1", None)]

    def test_target_label(self):
        assert GoldMine.target_label("z", None) == "z"
        assert GoldMine.target_label("bus", 3) == "bus[3]"


class TestMiningPass:
    @pytest.mark.parametrize("design", ["arbiter2", "b01", "fetch", "counter_block"])
    @pytest.mark.parametrize("window", [1, 2])
    def test_closure_iteration_zero_is_one_goldmine_pass(self, design, window):
        """Iteration 0 of the closure accepts exactly what one stand-alone
        pass accepts: a one-shot columnar tree per target over the same
        trace, its candidates checked as one ``check_all`` batch."""
        module = design_info(design).build()
        config = GoldMineConfig(window=window)
        vectors = [dict(vector) for vector in RandomStimulus(40, seed=11).cycles(module)]
        closure = CoverageClosure(module, config=config)
        record = closure.run(vectors, max_iterations=0).iterations[0]

        engine = GoldMine(module, config)
        trace = Simulator(module).run_vectors(vectors)
        expected = []
        try:
            for output, bit in engine.target_outputs():
                dataset = engine.build_dataset(output, bit)
                dataset.add_trace(trace)
                tree = ColumnarDecisionTree(dataset, config.max_depth)
                tree.build()
                candidates = tree.candidate_assertions()
                checks = engine.verifier.check_all(candidates)
                expected.extend(candidate for candidate, check in zip(candidates, checks)
                                if check.is_true)
        finally:
            engine.verifier.close()

        def unnamed(assertions):
            return [assertion.with_name("").to_json() for assertion in assertions]

        assert expected
        assert unnamed(record.new_true_assertions) == unnamed(expected)
