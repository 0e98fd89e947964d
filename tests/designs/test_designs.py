"""Tests for the bundled benchmark designs and their registry."""

from __future__ import annotations

import pytest

from repro.designs import DESIGNS, design_names, info, load
from repro.designs.rigel import DIRECTED_TESTS
from repro.formal.statespace import StateSpace
from repro.hdl.synth import synthesize
from repro.sim.simulator import Simulator
from repro.sim.stimulus import DirectedStimulus, RandomStimulus


class TestRegistry:
    def test_expected_designs_registered(self):
        assert {"cex_small", "arbiter2", "arbiter4", "fetch", "decode", "wbstage",
                "b01", "b02", "b06", "b09", "b12"} <= set(design_names())

    def test_load_unknown_design_raises(self):
        with pytest.raises(KeyError):
            load("not_a_design")
        with pytest.raises(KeyError):
            info("not_a_design")

    def test_load_shares_one_instance_per_design(self):
        # Parsing is memoised per source text: every load of a design is
        # the one read-only module, and different designs stay apart.
        assert load("arbiter2") is load("arbiter2") is info("arbiter2").build()
        assert load("arbiter2") is not load("arbiter4")

    def test_directed_test_metadata(self):
        meta = info("arbiter2")
        vectors = meta.seed_vectors()
        assert vectors and all("req0" in vector for vector in vectors)
        assert info("b01").seed_vectors() is None

    def test_mining_outputs_are_real_signals(self):
        for name in design_names():
            meta = info(name)
            module = meta.build()
            for output in meta.mining_outputs:
                assert module.has_signal(output)
            for fsm_signal in meta.fsm_signals:
                assert module.has_signal(fsm_signal)


class TestEveryDesign:
    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_parses_validates_and_synthesizes(self, name):
        module = load(name)
        module.validate()
        synth = synthesize(module)
        synth.check_no_latches()

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_simulates_under_random_stimulus(self, name):
        module = load(name)
        trace = Simulator(module).run(RandomStimulus(30, seed=7))
        assert len(trace) == 30

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_state_space_is_tractable(self, name):
        module = load(name)
        space = StateSpace(module)
        assert 1 <= len(space.explore()) <= 2000


class TestArbiterBehaviour:
    def test_mutual_exclusion(self, arbiter2_module):
        trace = Simulator(arbiter2_module).run(RandomStimulus(200, seed=3))
        for row in trace:
            assert not (row["gnt0"] == 1 and row["gnt1"] == 1)

    def test_arbiter4_one_hot_grants(self, arbiter4_module):
        trace = Simulator(arbiter4_module).run(RandomStimulus(200, seed=4))
        for row in trace:
            grants = row["gnt0"] + row["gnt1"] + row["gnt2"] + row["gnt3"]
            assert grants <= 1

    def test_arbiter4_grants_follow_requests(self, arbiter4_module):
        simulator = Simulator(arbiter4_module)
        trace = simulator.run(DirectedStimulus(
            [{"rst": 0, "req0": 0, "req1": 0, "req2": 1, "req3": 0}] * 3))
        assert trace.value("gnt2", 1) == 1


class TestRigelStages:
    def test_fetch_handshake(self, fetch_module):
        simulator = Simulator(fetch_module)
        simulator.reset()
        simulator.step({"stall_in": 0, "branch_mispredict": 0, "branch_pc": 0,
                        "icache_rdvl_i": 0})
        assert simulator.peek("pending") == 1
        simulator.step({"stall_in": 0, "branch_mispredict": 0, "branch_pc": 0,
                        "icache_rdvl_i": 1})
        assert simulator.peek("valid") == 1
        assert simulator.peek("pc") == 1

    def test_fetch_mispredict_redirects_pc(self, fetch_module):
        simulator = Simulator(fetch_module)
        simulator.reset()
        simulator.step({"stall_in": 0, "branch_mispredict": 1, "branch_pc": 5,
                        "icache_rdvl_i": 0})
        assert simulator.peek("pc") == 5
        assert simulator.peek("valid") == 0

    def test_decode_classifies_opcodes(self):
        module = load("decode")
        simulator = Simulator(module)
        simulator.reset()
        simulator.step({"stall_in": 0, "valid_in": 1, "instr": 0b00001})   # opcode 0 -> ALU
        assert simulator.peek("is_alu") == 1 and simulator.peek("illegal") == 0
        simulator.step({"stall_in": 0, "valid_in": 1, "instr": 0b10100})   # opcode 5 -> branch
        assert simulator.peek("is_branch") == 1
        simulator.step({"stall_in": 0, "valid_in": 1, "instr": 0b11100})   # opcode 7 -> illegal
        assert simulator.peek("illegal") == 1 and simulator.peek("valid_out") == 0

    def test_wbstage_memory_priority(self, wb_module):
        simulator = Simulator(wb_module)
        simulator.reset()
        simulator.step({"stall_in": 0, "alu_valid": 1, "mem_valid": 1,
                        "alu_data": 1, "mem_data": 2})
        assert simulator.peek("wb_data") == 2
        assert simulator.peek("wb_from_mem") == 1

    def test_wbstage_stall_holds_outputs(self, wb_module):
        simulator = Simulator(wb_module)
        simulator.reset()
        simulator.step({"stall_in": 0, "alu_valid": 1, "mem_valid": 0,
                        "alu_data": 3, "mem_data": 0})
        simulator.step({"stall_in": 1, "alu_valid": 0, "mem_valid": 0,
                        "alu_data": 0, "mem_data": 0})
        assert simulator.peek("wb_valid") == 1
        assert simulator.peek("wb_data") == 3

    @pytest.mark.parametrize("name", sorted(DIRECTED_TESTS))
    def test_directed_tests_drive_declared_inputs(self, name):
        module = load(name)
        vectors = DIRECTED_TESTS[name]()
        assert vectors
        for vector in vectors:
            for signal in vector:
                assert module.has_signal(signal)
        Simulator(module).run_vectors(vectors)


class TestItc99Controllers:
    def test_b01_visits_multiple_states(self, b01_module):
        trace = Simulator(b01_module).run(RandomStimulus(300, seed=9))
        assert len(set(trace.column("state"))) >= 6

    def test_b02_accept_pulse(self):
        module = load("b02")
        trace = Simulator(module).run(RandomStimulus(200, seed=1))
        assert 1 in trace.column("u")

    def test_b06_interrupt_acknowledged(self):
        module = load("b06")
        simulator = Simulator(module)
        simulator.reset()
        simulator.step({"eql": 0, "interrupt": 1})
        simulator.step({"eql": 0, "interrupt": 0})
        assert simulator.peek("ackout") == 1

    def test_b09_emits_collected_bits(self):
        module = load("b09")
        simulator = Simulator(module)
        simulator.reset()
        # Collect the pattern 1,0,1,1 then expect it replayed MSB-first.
        for bit in (1, 0, 1, 1):
            simulator.step({"x": bit})
        simulator.step({"x": 0})            # latch
        outputs = []
        for _ in range(4):
            simulator.step({"x": 0})
            outputs.append(simulator.peek("d_out"))
        assert outputs == [1, 0, 1, 1]

    def test_b12_win_and_lose_paths(self):
        module = load("b12")
        simulator = Simulator(module)
        simulator.reset()
        simulator.step({"start": 1, "guess": 0})
        # Guess correctly three times: expected goes 1, 2, 3.
        for expected in (1, 2, 3):
            simulator.step({"start": 0, "guess": 0})          # present state
            simulator.step({"start": 0, "guess": expected})   # judge state
        simulator.step({"start": 0, "guess": 0})              # win state executes
        assert simulator.peek("win") == 1
        # A fresh game with a wrong first guess must end in lose.
        simulator.step({"start": 1, "guess": 0})
        simulator.step({"start": 0, "guess": 0})              # present
        simulator.step({"start": 0, "guess": 3})              # wrong guess
        simulator.step({"start": 0, "guess": 0})              # lose state executes
        assert simulator.peek("lose") == 1
