"""Serialization round-trips of closure results and configs, and the
closure's replay checked against the lane-parallel trace oracle."""

from __future__ import annotations

import json

import pytest

from repro.core.config import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.core.results import ClosureResult
from repro.designs import info as design_info
from repro.experiments.common import CoverageRow, ExperimentResult
from repro.sim.batched import BatchedSimulator


def _closure_json(design: str, outputs=None) -> dict:
    meta = design_info(design)
    module = meta.build()
    config = GoldMineConfig(window=meta.window, max_iterations=20)
    closure = CoverageClosure(module, outputs=outputs, config=config)
    result = closure.run(meta.seed_vectors())
    data = result.to_json()
    data.pop("formal_seconds")  # wall-clock
    return data


class TestClosureResultJson:
    def test_round_trip_preserves_everything_deterministic(self):
        data = _closure_json("arbiter2", outputs=["gnt0"])
        rebuilt = ClosureResult.from_json(data)
        again = rebuilt.to_json()
        again.pop("formal_seconds")
        assert json.dumps(again, sort_keys=True) == json.dumps(data, sort_keys=True)

    def test_round_trip_keeps_assertion_semantics(self):
        data = _closure_json("arbiter2", outputs=["gnt0"])
        rebuilt = ClosureResult.from_json(data)
        assert rebuilt.converged
        assert rebuilt.input_space_coverage("gnt0") == 1.0
        assert rebuilt.total_test_cycles() == \
            data["iterations"][-1]["cumulative_test_cycles"]

    def test_json_is_plain_data(self):
        data = _closure_json("arbiter2", outputs=["gnt0"])
        json.dumps(data)  # raises if any non-JSON type leaked through

    def test_assertion_metadata_survives_round_trip(self):
        from repro.assertions.assertion import Assertion, Literal

        assertion = Assertion((Literal("req0", 1),), Literal("gnt0", 1, cycle=1),
                              window=1, name="a0", confidence=0.75, support=12)
        rebuilt = Assertion.from_json(assertion.to_json())
        assert rebuilt == assertion
        assert rebuilt.name == "a0"
        assert rebuilt.confidence == 0.75
        assert rebuilt.support == 12


class TestClosureEngineIndependence:
    """What the closure loop mines must not depend on the replay engine:
    every output's dataset equals the one rebuilt from the refined suite
    replayed on :class:`BatchedSimulator`, an independent trace oracle."""

    @pytest.mark.parametrize("design,outputs,seed", [
        ("arbiter2", ["gnt0"], True),
        ("arbiter4", ["gnt0"], False),
        ("b01", None, False),
    ])
    @pytest.mark.parametrize("lanes", [1, 3, 8])
    def test_batched_replay_matches_scalar(self, design, outputs, seed, lanes):
        # One lane replays sequence by sequence; three lanes leave a partly
        # filled last pass whenever the suite is not a multiple of three.
        meta = design_info(design)
        closure = CoverageClosure(
            meta.build(), outputs=outputs,
            config=GoldMineConfig(window=meta.window, max_iterations=20))
        suite = closure.run(meta.seed_vectors() if seed else None).test_suite
        assert len(suite) > 1
        oracle = BatchedSimulator(closure.module, lanes=lanes,
                                  synth=closure.engine.synth)
        traces = []
        for start in range(0, len(suite), lanes):
            traces.extend(oracle.run_batch(suite[start:start + lanes]))
        for context in closure.contexts:
            rebuilt = closure.engine.build_dataset(context.output, context.bit)
            rebuilt.add_traces(traces)
            mined = context.tree.dataset
            assert rebuilt.feature_columns == mined.feature_columns
            assert rebuilt.row_tuples() == mined.row_tuples(), context.label


class TestConfigJson:
    def test_round_trip(self):
        config = GoldMineConfig(window=2, max_iterations=7, engine="tiered",
                                formal_query_timeout=2.5)
        rebuilt = GoldMineConfig.from_json(config.to_json())
        assert rebuilt == config

    def test_unknown_keys_ignored(self):
        data = GoldMineConfig().to_json()
        data["from_the_future"] = True
        GoldMineConfig.from_json(data)

    def test_manifest_with_retired_engine_knobs_loads(self):
        """Older ``to_json()`` output still loads: a 1.9-era manifest carries
        the retired miner and IR switches, a 1.12-era one the retired random
        data generator's fields, both the retired simulation-engine fields.
        They are ignored, every other field is kept."""
        retired = {"mine_engine", "ir_opt", "random_cycles", "random_seed",
                   "input_bias", "sim_engine", "sim_lanes"}
        v1_9 = {"window": 2, "max_depth": None, "include_internal_state": True,
                "engine": "tiered", "bound": 6, "induction_k": 4,
                "max_iterations": 24, "random_cycles": 0, "random_seed": 0,
                "input_bias": {}, "max_states": 50000,
                "max_input_combinations": 4096, "sim_engine": "batched",
                "sim_lanes": 64, "mine_engine": "rowwise", "formal_workers": 1,
                "formal_proof_cache": False, "formal_query_timeout": None,
                "ir_opt": True}
        v1_12 = {"window": 1, "max_depth": 8, "include_internal_state": False,
                 "engine": "bmc", "bound": 5, "induction_k": 8,
                 "max_iterations": 16, "random_cycles": 96, "random_seed": 7,
                 "input_bias": {"req0": 0.25}, "max_states": 1000,
                 "max_input_combinations": 4096, "sim_engine": "scalar",
                 "sim_lanes": 16, "formal_workers": 2,
                 "formal_proof_cache": True, "formal_query_timeout": 3.0}
        for data, expected in [
            (v1_9, GoldMineConfig(window=2, engine="tiered", bound=6,
                                  induction_k=4, max_iterations=24)),
            (v1_12, GoldMineConfig(window=1, max_depth=8,
                                   include_internal_state=False, engine="bmc",
                                   bound=5, max_iterations=16, max_states=1000,
                                   formal_workers=2,
                                   formal_proof_cache=True,
                                   formal_query_timeout=3.0)),
        ]:
            config = GoldMineConfig.from_json(data)
            assert config == expected
            assert config.to_json() == {key: value for key, value in data.items()
                                        if key not in retired}

    def test_manifest_with_simulation_engine_fields_loads(self):
        """A 1.17 manifest still names the lane engine; it loads, while the
        constructor no longer takes the retired fields."""
        v1_17 = {**GoldMineConfig(window=2, engine="tiered").to_json(),
                 "sim_engine": "batched", "sim_lanes": 64}
        config = GoldMineConfig.from_json(v1_17)
        assert config == GoldMineConfig(window=2, engine="tiered")
        assert "sim_engine" not in config.to_json()
        assert (config.sim_engine, config.sim_lanes) == ("scalar", 1)
        with pytest.raises(TypeError):
            GoldMineConfig(sim_engine="batched")


class TestExperimentResultJson:
    def test_round_trip_with_rows_and_series(self):
        result = ExperimentResult(name="x", description="d")
        result.add_series("s", [1.0, 2.0])
        result.add_row(CoverageRow(design="b01", method="random", cycles=10,
                                   metrics={"line": 50.0}))
        result.notes.append("n")
        rebuilt = ExperimentResult.from_json(result.to_json())
        assert rebuilt.to_json() == result.to_json()

    def test_merge_combines_shards(self):
        left = ExperimentResult(name="x", description="d")
        left.add_series("a", [1.0])
        left.notes.append("shared")
        right = ExperimentResult(name="x", description="d")
        right.add_series("b", [2.0])
        right.add_row(CoverageRow(design="b01", method="random", cycles=1))
        right.notes.append("shared")
        right.notes.append("extra")
        left.merge(right)
        assert set(left.series) == {"a", "b"}
        assert len(left.rows) == 1
        assert left.notes == ["shared", "extra"]
