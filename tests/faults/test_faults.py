"""Tests for stuck-at fault injection and assertion regression."""

from __future__ import annotations

import inspect

import pytest

from repro.assertions.assertion import Assertion, Literal
from repro.core.config import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.faults.mutation import StuckAtFault, enumerate_faults, inject_fault
from repro.faults.regression import run_fault_campaign
from repro.formal.checker import FormalVerifier
from repro.formal.explicit import ExplicitModelChecker
from repro.sim.simulator import Simulator
from repro.sim.stimulus import DirectedStimulus, RandomStimulus


class TestStuckAtFault:
    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            StuckAtFault("x", 2)

    def test_label(self):
        assert StuckAtFault("req0", 1).label == "req0 stuck-at-1"

    def test_enumerate_defaults_skip_clock_and_reset(self, arbiter2_module):
        faults = enumerate_faults(arbiter2_module)
        names = {fault.signal for fault in faults}
        assert "clk" not in names and "rst" not in names
        assert len(faults) == 2 * len(names)

    def test_enumerate_selected_signals(self, arbiter2_module):
        faults = enumerate_faults(arbiter2_module, ["req0"])
        assert faults == [StuckAtFault("req0", 0), StuckAtFault("req0", 1)]


class TestInjection:
    def test_input_stuck_at_zero_blocks_grants(self, arbiter2_module):
        mutant = inject_fault(arbiter2_module, StuckAtFault("req0", 0))
        simulator = Simulator(mutant)
        trace = simulator.run(DirectedStimulus([{"rst": 0, "req0": 1, "req1": 0}] * 4))
        assert all(value == 0 for value in trace.column("gnt0"))

    def test_register_stuck_at_one(self, arbiter2_module):
        mutant = inject_fault(arbiter2_module, StuckAtFault("gnt0", 1))
        simulator = Simulator(mutant)
        trace = simulator.run(DirectedStimulus([{"rst": 0, "req0": 0, "req1": 0}] * 3))
        assert all(value == 1 for value in trace.column("gnt0"))

    def test_multibit_stuck_at_one_pins_all_bits(self, fetch_module):
        mutant = inject_fault(fetch_module, StuckAtFault("branch_pc", 1))
        simulator = Simulator(mutant)
        simulator.reset()
        simulator.step({"stall_in": 0, "branch_mispredict": 1, "branch_pc": 2,
                        "icache_rdvl_i": 0})
        # The mispredict loads the (stuck) all-ones branch_pc value.
        assert simulator.peek("pc") == 7

    def test_golden_module_unchanged(self, arbiter2_module):
        before = len(list(arbiter2_module.iter_assignments()))
        inject_fault(arbiter2_module, StuckAtFault("gnt0", 1))
        assert len(list(arbiter2_module.iter_assignments())) == before

    def test_unknown_signal_rejected(self, arbiter2_module):
        with pytest.raises(KeyError):
            inject_fault(arbiter2_module, StuckAtFault("missing", 0))

    def test_mutant_validates_and_simulates(self, fetch_module):
        for fault in enumerate_faults(fetch_module, ["stall_in", "pending"]):
            mutant = inject_fault(fetch_module, fault)
            Simulator(mutant).run(RandomStimulus(10, seed=1))


class TestRegression:
    def _arbiter_suite(self, module):
        closure = CoverageClosure(module, outputs=["gnt0", "gnt1"],
                                  config=GoldMineConfig(window=1))
        result = closure.run(RandomStimulus(10, seed=3))
        assert result.converged
        return result

    def test_formal_campaign_detects_faults(self, arbiter2_module):
        result = self._arbiter_suite(arbiter2_module)
        faults = enumerate_faults(arbiter2_module, ["req0", "gnt0"])
        campaign = run_fault_campaign(arbiter2_module, result.all_true_assertions, faults)
        assert campaign.total_faults == 4
        assert campaign.detected_faults == 4
        assert campaign.detection_rate == 1.0
        table = campaign.by_signal()
        assert table["req0"][0] >= 1 and table["gnt0"][1] >= 1

    def test_simulation_campaign_agrees_on_detectability(self, arbiter2_module):
        result = self._arbiter_suite(arbiter2_module)
        faults = [StuckAtFault("gnt0", 1)]
        formal = run_fault_campaign(arbiter2_module, result.all_true_assertions, faults)
        # A parallel campaign must agree detection-for-detection with the
        # serial one (the worker pool and batch path are pure accelerators).
        parallel = run_fault_campaign(
            arbiter2_module, result.all_true_assertions, faults,
            config=GoldMineConfig(formal_workers=2))
        assert [sorted(a.describe() for a in d.detecting_assertions)
                for d in parallel.detections] == \
            [sorted(a.describe() for a in d.detecting_assertions)
             for d in formal.detections]
        simulated = run_fault_campaign(arbiter2_module, result.all_true_assertions, faults,
                                       mode="simulation", test_suite=result.test_suite)
        assert formal.detections[0].detected
        assert simulated.detections[0].detected

    def test_assertions_pass_on_golden_design(self, arbiter2_module):
        result = self._arbiter_suite(arbiter2_module)
        checker = ExplicitModelChecker(arbiter2_module)
        assert all(checker.check(a).is_true for a in result.all_true_assertions)

    def test_undetectable_fault_reported_as_miss(self, arbiter2_module):
        # An assertion suite about gnt1 only cannot see a gnt0-only fault...
        assertion = Assertion((Literal("req0", 0, 0), Literal("req1", 0, 0),
                               Literal("gnt0", 0, 0)),
                              Literal("gnt1", 0, 1), 1)
        campaign = run_fault_campaign(arbiter2_module, [assertion],
                                      [StuckAtFault("req1", 0)])
        # req1 stuck at 0 keeps gnt1 at 0, so this particular assertion stays
        # true and the fault goes undetected by it.
        assert not campaign.detections[0].detected

    def test_campaign_verifier_gets_config_query_timeout(self, arbiter2_module,
                                                         monkeypatch):
        """Each mutant's verifier is built from the whole campaign config,
        so the per-query timeout reaches it along with the engine."""
        built = []
        original = FormalVerifier.__init__

        def spy(self, *args, **kwargs):
            bound = inspect.signature(original).bind(self, *args, **kwargs)
            bound.apply_defaults()
            built.append((bound.arguments["engine"],
                          bound.arguments["query_timeout"]))
            original(self, *args, **kwargs)

        monkeypatch.setattr(FormalVerifier, "__init__", spy)
        assertion = Assertion((Literal("req0", 0, 0), Literal("req1", 0, 0),
                               Literal("gnt0", 0, 0)),
                              Literal("gnt1", 0, 1), 1)
        run_fault_campaign(arbiter2_module, [assertion], [StuckAtFault("req0", 0)],
                           config=GoldMineConfig(engine="tiered",
                                                 formal_query_timeout=0.5))
        assert built == [("tiered", 0.5)]

    def test_invalid_mode_rejected(self, arbiter2_module):
        with pytest.raises(ValueError):
            run_fault_campaign(arbiter2_module, [], [], mode="nonsense")

    def test_simulation_mode_requires_suite(self, arbiter2_module):
        with pytest.raises(ValueError):
            run_fault_campaign(arbiter2_module, [], [], mode="simulation")

    def test_table_rendering(self, arbiter2_module):
        result = self._arbiter_suite(arbiter2_module)
        campaign = run_fault_campaign(arbiter2_module, result.all_true_assertions,
                                      enumerate_faults(arbiter2_module, ["req0"]))
        text = campaign.table()
        assert "req0" in text and "stuck at 0" in text
