"""Tests for the windowed mining dataset."""

from __future__ import annotations

import pytest

from repro.assertions.assertion import Literal
from repro.mining.dataset import MiningDataset
from repro.sim.simulator import Simulator
from repro.sim.stimulus import DirectedStimulus, RandomStimulus


class TestConstruction:
    def test_sequential_target_offset_is_window(self, arbiter2_module):
        dataset = MiningDataset(arbiter2_module, "gnt0", window=2)
        assert dataset.is_sequential_target
        assert dataset.target.cycle == 2
        assert dataset.span == 3

    def test_combinational_target_offset(self, cex_small_module):
        dataset = MiningDataset(cex_small_module, "z", window=1)
        assert not dataset.is_sequential_target
        assert dataset.target.cycle == 0
        assert dataset.span == 1

    def test_features_restricted_to_cone(self, cex_small_module):
        dataset = MiningDataset(cex_small_module, "z", window=1)
        names = {feature.signal for feature in dataset.features}
        assert "d" not in names
        assert {"a", "b", "c"} <= names

    def test_target_excluded_from_features(self, arbiter2_module):
        dataset = MiningDataset(arbiter2_module, "gnt0", window=1)
        assert dataset.target.column not in dataset.feature_columns

    def test_feedback_register_is_a_feature(self, arbiter2_module):
        dataset = MiningDataset(arbiter2_module, "gnt0", window=1)
        assert "gnt0@0" in dataset.feature_columns

    def test_multibit_signals_expand_to_bits(self, counter_module):
        dataset = MiningDataset(counter_module, "rollover", window=1)
        assert {"count[0]@0", "count[1]@0", "count[2]@0"} <= set(dataset.feature_columns)

    def test_multibit_output_requires_bit(self, counter_module):
        with pytest.raises(ValueError):
            MiningDataset(counter_module, "count", window=1)
        dataset = MiningDataset(counter_module, "count", window=1, output_bit=1)
        assert dataset.target.bit == 1

    def test_unknown_output_rejected(self, arbiter2_module):
        with pytest.raises(KeyError):
            MiningDataset(arbiter2_module, "nothere")

    def test_invalid_window_rejected(self, arbiter2_module):
        with pytest.raises(ValueError):
            MiningDataset(arbiter2_module, "gnt0", window=0)

    def test_primary_inputs_only_mode(self, arbiter2_module):
        dataset = MiningDataset(arbiter2_module, "gnt0", window=2,
                                include_internal_state=False)
        assert all(feature.signal in ("req0", "req1") for feature in dataset.features)


class TestRowExtraction:
    def test_add_trace_produces_sliding_windows(self, arbiter2_module):
        simulator = Simulator(arbiter2_module)
        trace = simulator.run(RandomStimulus(10, seed=1))
        dataset = MiningDataset(arbiter2_module, "gnt0", window=2)
        added = dataset.add_trace(trace)
        assert added == len(dataset) == 10 - dataset.span + 1

    def test_short_trace_yields_no_rows(self, arbiter2_module):
        simulator = Simulator(arbiter2_module)
        trace = simulator.run(RandomStimulus(2, seed=1))
        dataset = MiningDataset(arbiter2_module, "gnt0", window=2)
        assert dataset.add_trace(trace) == 0

    def test_row_values_match_trace(self, arbiter2_module):
        simulator = Simulator(arbiter2_module)
        trace = simulator.run(DirectedStimulus([
            {"rst": 0, "req0": 1, "req1": 0},
            {"rst": 0, "req0": 0, "req1": 1},
            {"rst": 0, "req0": 1, "req1": 1},
        ]))
        dataset = MiningDataset(arbiter2_module, "gnt0", window=1)
        dataset.add_trace(trace)
        features, target = dataset.rows[0]
        assert features["req0@0"] == 1 and features["req1@0"] == 0
        assert target == trace.value("gnt0", 1)

    def test_feature_literal_round_trip(self, arbiter2_module):
        dataset = MiningDataset(arbiter2_module, "gnt0", window=2)
        literal = dataset.feature_literal("req0@1", 1)
        assert literal == Literal("req0", 1, 1)
        with pytest.raises(KeyError):
            dataset.feature_literal("unknown@0", 1)

    def test_distinct_rows_deduplicates(self, arbiter2_module):
        simulator = Simulator(arbiter2_module)
        trace = simulator.run(DirectedStimulus([{"rst": 0, "req0": 0, "req1": 0}] * 6))
        dataset = MiningDataset(arbiter2_module, "gnt0", window=1)
        dataset.add_trace(trace)
        assert dataset.distinct_rows() == 1
        assert len(dataset) == 5
