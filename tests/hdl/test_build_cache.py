"""One build per design per process: the parse cache and derived artefacts.

``parse_modules`` hands out one shared, read-only module per source text;
synthesis, the state-space lane netlist and the generated simulator code
are kept on that module.  These tests check that sharing is invisible:
equal statement ids whatever the build, nothing in the closure loop
mutates a shared module, and a module under construction never serves a
stale artefact.
"""

from __future__ import annotations

import pickle

import pytest

from repro.assertions.assertion import Assertion, Literal
from repro.core.config import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.coverage.collectors import BranchCoverage, StatementCoverage, default_collectors
from repro.coverage.runner import CoverageRunner
from repro.designs import arbiters, design_names, info, itc99, rigel, simple
from repro.faults import enumerate_faults, inject_fault
from repro.formal.explicit import ExplicitModelChecker
from repro.formal.statespace import StateSpace
from repro.hdl import ParseError, parse_module, parse_modules
from repro.hdl.ast import BinaryOp, Const, Ref
from repro.hdl.module import AlwaysBlock, Module, ProcessKind, SignalKind
from repro.hdl.parser import Parser, _parse_once
from repro.hdl.stmt import Assign, Block, If
from repro.hdl.synth import synthesize
from repro.sim import codegen
from repro.sim.simulator import Simulator

SOURCES = {
    name: text
    for module in (arbiters, itc99, rigel, simple)
    for name, text in sorted(vars(module).items())
    if name.endswith("_SOURCE") and isinstance(text, str)
}


def statement_ids(module: Module) -> list[int]:
    return [stmt.stmt_id for stmt in module.iter_statements()]


def snapshot(module: Module) -> tuple:
    """Everything a consumer could change on a module, rendered."""
    return (
        repr(module),
        [process.body.to_verilog() for process in module.processes],
        [(assign.target, assign.expr.to_verilog()) for assign in module.assigns],
        dict(module.signals),
        list(module.ports),
        module.clock,
        module.reset,
        statement_ids(module),
    )


def cold_parse(source: str) -> list[Module]:
    """Parse without the cache."""
    return Parser(source).parse_modules()


class TestSharedBuilds:
    @pytest.mark.parametrize("name", design_names())
    def test_build_twice_gives_equal_modules_with_equal_ids(self, name):
        first, second = info(name).build(), info(name).build()
        assert first == second
        assert statement_ids(first) == statement_ids(second)

    @pytest.mark.parametrize("source_name", sorted(SOURCES))
    def test_cold_and_cached_parse_carry_equal_ids(self, source_name):
        source = SOURCES[source_name]
        [cold], [cached] = cold_parse(source), parse_modules(source)
        assert cold is not cached
        assert cold == cached
        ids = statement_ids(cold)
        assert ids == statement_ids(cached) == list(range(1, len(ids) + 1))

    def test_every_call_returns_the_same_modules_in_a_new_list(self):
        source = SOURCES["ARBITER2_SOURCE"]
        first, second = parse_modules(source), parse_modules(source)
        assert first is not second
        assert first[0] is second[0] is parse_module(source)

    def test_source_that_fails_to_parse_raises_on_every_call(self):
        source = "module broken(a); input a; assign = a; endmodule"
        before = _parse_once.cache_info().currsize
        for _ in range(3):
            with pytest.raises(ParseError):
                parse_module(source)
        assert _parse_once.cache_info().currsize == before

    def test_cache_size_is_a_module_constant(self):
        from repro.hdl import parser

        assert _parse_once.cache_info().maxsize == parser.PARSE_CACHE_SIZE


class TestSharedModuleStaysUnchanged:
    @pytest.mark.parametrize("name,engine", [("arbiter2", "explicit"), ("b01", "explicit"),
                                             ("fetch", "tiered")])
    def test_closure_coverage_and_faults_leave_the_module_as_built(self, name, engine):
        meta = info(name)
        module = meta.build()
        before = snapshot(module)
        config = GoldMineConfig(window=meta.window, engine=engine, max_iterations=4)
        closure = CoverageClosure(module, outputs=list(meta.mining_outputs) or None,
                                  config=config)
        result = closure.run(meta.seed_vectors())
        runner = CoverageRunner(meta.build(), fsm_signals=meta.fsm_signals or None)
        runner.run_suite(result.test_suite)
        runner.report()
        for fault in enumerate_faults(module):
            inject_fault(module, fault)
        assert meta.build() is module
        assert snapshot(module) == before


class TestDerivedArtefacts:
    def test_state_spaces_share_one_netlist_and_keep_their_verdicts(self):
        source = SOURCES["ARBITER2_SOURCE"]
        module = parse_module(source)
        first, second = StateSpace(module), StateSpace(module)
        assert first.explore() == second.explore()
        assert first._netlist is second._netlist
        assert first._input_words is second._input_words
        [cold] = cold_parse(source)
        assert StateSpace(cold).explore() == first.reachable
        assertions = [Assertion((Literal("req0", 1, 0),), Literal("gnt0", 1, 1), 1),
                      Assertion((Literal("req1", 1, 0),), Literal("gnt1", 1, 1), 1),
                      Assertion((), Literal("gnt0", 0, 0), 1)]
        shared, own = ExplicitModelChecker(module), ExplicitModelChecker(cold)
        for assertion in assertions:
            ours, theirs = shared.check(assertion), own.check(assertion)
            assert ours.verdict is theirs.verdict
            assert ours.counterexample == theirs.counterexample

    def test_synthesis_is_memoised_per_module(self):
        module = info("b01").build()
        assert synthesize(module) is synthesize(module)

    def test_generated_program_is_shared_and_bound_per_simulator(self):
        meta = info("b12")
        module = meta.build()
        simulators = [Simulator(module, observers=default_collectors(module, meta.fsm_signals))
                      for _ in range(2)]
        programs = [codegen.generate(module, sim.observers, sim.trace_columns)
                    for sim in simulators]
        assert programs[0] is programs[1]
        simulators[0].run_vectors([{"start": 1, "guess": 0}] * 5)
        # Only the simulator that ran records coverage.
        assert simulators[0].observers[0].covered_points
        assert not simulators[1].observers[0].covered_points

    def test_collectors_of_another_module_get_their_own_program(self):
        module = info("b01").build()
        [cold] = cold_parse(SOURCES["B01_SOURCE"])
        mixed = codegen.generate(module, default_collectors(cold))
        assert mixed is not codegen.generate(module, default_collectors(cold))

    def test_pickled_module_drops_derived_artefacts(self):
        module = info("arbiter2").build()
        StateSpace(module).explore()
        assert module._derived
        copy = pickle.loads(pickle.dumps(module))
        assert copy == module and not copy._derived
        assert statement_ids(copy) == statement_ids(module)


def hand_built() -> Module:
    module = Module("hand")
    module.add_signal("clk", kind=SignalKind.INPUT)
    module.add_signal("a", kind=SignalKind.INPUT)
    module.add_signal("q", kind=SignalKind.OUTPUT)
    body = Block([If(Ref("a"), Block([Assign("q", Const(1, 1))]),
                     Block([Assign("q", Const(0, 1))]))])
    module.add_process(AlwaysBlock(ProcessKind.SEQUENTIAL, body, "clk"))
    return module


class TestHandBuiltModules:
    def test_collectors_key_points_by_numbered_statements(self):
        module = hand_built()
        assert StatementCoverage(module).total_points == {("stmt", 4), ("stmt", 6)}
        assert BranchCoverage(module).total_points == {(2, "then"), (2, "else")}

    def test_validate_numbers_statements_in_pre_order(self):
        module = hand_built()
        assert set(statement_ids(module)) == {0}
        module.validate()
        assert statement_ids(module) == [1, 2, 3, 4, 5, 6]
        module.validate()
        assert statement_ids(module) == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("helper", ["add_signal", "add_assign", "add_process"])
    def test_each_add_helper_drops_derived_artefacts(self, helper):
        module = hand_built()
        module.add_signal("w", kind=SignalKind.OUTPUT)
        module.add_signal("r", kind=SignalKind.REG)
        module.validate()
        first = synthesize(module)
        if helper == "add_signal":
            module.add_signal("v", kind=SignalKind.WIRE)
        elif helper == "add_assign":
            module.add_assign("w", BinaryOp("&", Ref("a"), Ref("q")))
        else:
            module.add_process(AlwaysBlock(ProcessKind.SEQUENTIAL,
                                           Block([Assign("r", Ref("a"))]), "clk"))
        second = synthesize(module)
        assert second is not first
        assert ("w" in second.comb) is (helper == "add_assign")
        assert ("r" in second.next_state) is (helper == "add_process")
        module.validate()
        extra = [7, 8] if helper == "add_process" else []
        assert statement_ids(module) == [1, 2, 3, 4, 5, 6, *extra]


class TestMutantIds:
    @pytest.mark.parametrize("name", ["arbiter2", "b01", "fetch"])
    def test_mutant_cover_points_line_up_with_the_original(self, name):
        module = info(name).build()
        points = {kind: kind(module).total_points for kind in (StatementCoverage, BranchCoverage)}
        for fault in enumerate_faults(module):
            mutant = inject_fault(module, fault)
            assert statement_ids(mutant) == statement_ids(module)
            for kind, expected in points.items():
                assert kind(mutant).total_points == expected
