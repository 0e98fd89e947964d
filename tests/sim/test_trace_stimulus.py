"""Tests for traces and stimulus generators."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.sim.stimulus import (
    ConstantStimulus,
    DirectedStimulus,
    RandomStimulus,
    ReplayStimulus,
)
from repro.sim.trace import Trace


class TestTrace:
    def test_append_and_cycle(self):
        trace = Trace(("a", "b"))
        trace.append({"a": 1, "b": 2})
        trace.append({"a": 0})
        assert len(trace) == 2
        assert trace.cycle(0) == {"a": 1, "b": 2}
        assert trace.value("b", 1) == 0

    def test_column_history(self):
        trace = Trace(("a",), [(1,), (0,), (1,)])
        assert trace.column("a") == [1, 0, 1]

    def test_row_length_validated(self):
        with pytest.raises(ValueError):
            Trace(("a", "b"), [(1,)])

    def test_select_restricts_columns(self):
        trace = Trace(("a", "b", "c"), [(1, 2, 3), (4, 5, 6)])
        selected = trace.select(["c", "a"])
        assert selected.columns == ("c", "a")
        assert selected.rows == [(3, 1), (6, 4)]

    def test_extend_requires_same_columns(self):
        base = Trace(("a",), [(1,)])
        other = Trace(("b",), [(2,)])
        with pytest.raises(ValueError):
            base.extend(other)

    def test_extend_appends_rows(self):
        base = Trace(("a",), [(1,)])
        base.extend(Trace(("a",), [(2,), (3,)]))
        assert base.column("a") == [1, 2, 3]

    def test_from_dicts_infers_columns(self):
        trace = Trace.from_dicts([{"x": 1}, {"x": 0, "y": 2}])
        assert set(trace.columns) == {"x", "y"}
        assert trace.value("y", 0) == 0

    def test_copy_is_independent(self):
        trace = Trace(("a",), [(1,)])
        copy = trace.copy()
        copy.append({"a": 2})
        assert len(trace) == 1

    def test_iteration_yields_dicts(self):
        trace = Trace(("a", "b"), [(1, 2)])
        assert list(trace) == [{"a": 1, "b": 2}]


class TestStimulus:
    def test_random_stimulus_is_deterministic_per_seed(self, arbiter2_module):
        first = list(RandomStimulus(20, seed=5).cycles(arbiter2_module))
        second = list(RandomStimulus(20, seed=5).cycles(arbiter2_module))
        third = list(RandomStimulus(20, seed=6).cycles(arbiter2_module))
        assert first == second
        assert first != third

    def test_random_stimulus_respects_widths(self, counter_module):
        for vector in RandomStimulus(50, seed=1).cycles(counter_module):
            assert 0 <= vector["load_value"] < 8
            assert vector["load"] in (0, 1)

    def test_random_stimulus_excludes_clock_and_reset(self, arbiter2_module):
        vector = next(iter(RandomStimulus(1, seed=0).cycles(arbiter2_module)))
        assert "clk" not in vector and "rst" not in vector

    def test_random_bias_drives_probability(self, arbiter2_module):
        vectors = list(RandomStimulus(300, seed=2, bias={"req0": 0.95}).cycles(arbiter2_module))
        ones = sum(v["req0"] for v in vectors)
        assert ones > 240

    def test_directed_stimulus_replays_vectors(self, arbiter2_module):
        vectors = [{"req0": 1, "req1": 0}, {"req0": 0, "req1": 1}]
        assert list(DirectedStimulus(vectors).cycles(arbiter2_module)) == vectors

    def test_constant_stimulus(self, arbiter2_module):
        cycles = list(ConstantStimulus({"req0": 1}, 3).cycles(arbiter2_module))
        assert cycles == [{"req0": 1}] * 3

    def test_replay_filters_non_inputs(self, arbiter2_module):
        replay = ReplayStimulus([{"req0": 1, "gnt0": 1, "bogus": 3}])
        assert list(replay.cycles(arbiter2_module)) == [{"req0": 1}]

    @given(length=st.integers(1, 30), seed=st.integers(0, 10))
    def test_random_stimulus_length_property(self, length, seed):
        from repro.designs import arbiter2

        stimulus = RandomStimulus(length, seed=seed)
        assert len(list(stimulus.cycles(arbiter2()))) == length == len(stimulus)

