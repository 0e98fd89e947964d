"""The compiled simulator's generated source and its code-object cache."""

from __future__ import annotations

import time

from repro.coverage.collectors import default_collectors
from repro.designs import info
from repro.designs.itc99 import B12_CLASS_SOURCE
from repro.faults import StuckAtFault, inject_fault
from repro.hdl.parser import Parser
from repro.hdl.stmt import Assign
from repro.sim import codegen
from repro.sim.simulator import Simulator
from repro.sim.stimulus import RandomStimulus


def _statement_ids(module):
    return [stmt.stmt_id for stmt in module.iter_statements() if isinstance(stmt, Assign)]


def _compiled(module, fsm_signals):
    simulator = Simulator(module, observers=default_collectors(module, fsm_signals))
    simulator.run(RandomStimulus(20, seed=3))
    source = codegen.generate(module, simulator.observers, simulator.trace_columns).source
    return simulator, source


def test_rebuilt_design_shares_source_and_code_object():
    meta = info("b12")
    cached = meta.build()
    # A cold parse of the same text bypasses the parse cache.
    [cold] = Parser(B12_CLASS_SOURCE).parse_modules()
    assert cold is not cached
    assert _statement_ids(cold) == _statement_ids(cached)
    (sim_a, source_a), (sim_b, source_b) = (_compiled(m, meta.fsm_signals)
                                            for m in (cached, cold))
    assert source_a == source_b
    assert sim_a._program[0].__code__ is sim_b._program[0].__code__
    # Statement ids are per module, so both builds report the same points.
    ours, theirs = ({point for point in sim.observers[0].covered_points if point[0] == "stmt"}
                    for sim in (sim_a, sim_b))
    assert ours and ours == theirs


def test_stuck_at_mutant_generates_different_source():
    meta = info("b12")
    module = meta.build()
    mutant = inject_fault(module, StuckAtFault(module.state_names[0], 1))
    _, source = _compiled(module, meta.fsm_signals)
    _, mutant_source = _compiled(mutant, meta.fsm_signals)
    assert source != mutant_source


def test_cache_size_is_a_module_constant():
    assert codegen.compile_source.cache_info().maxsize == codegen.CODE_CACHE_SIZE


def test_nothing_generated_before_the_first_run():
    module = info("b01").build()
    simulator = Simulator(module)
    assert simulator._program is None
    simulator.trace_columns  # noqa: B018 - the closure's only use of it
    assert simulator._program is None
    simulator.reset()
    assert simulator._program is not None


def test_nested_reductions_generate_in_linear_time():
    """Each reduction level generates its operand once: 30 nested ``&``
    would take 2**30 operand generations if every level did it twice."""
    expr = "a"
    for _ in range(30):
        expr = f"&({expr})"
    [module] = Parser(f"""
module nested(clk, rst, a, y);
  input clk, rst;
  input [3:0] a;
  output reg y;
  always @(posedge clk) if (rst) y <= 0; else y <= {expr};
endmodule
""").parse_modules()
    start = time.perf_counter()
    trace = Simulator(module).run_vectors([{"a": 15}, {"a": 7}, {"a": 0}])
    assert time.perf_counter() - start < 1.0
    # &a is 1 only for a == 15; every further & reduces a 1-bit value.
    assert [trace.cycle(index)["y"] for index in (1, 2)] == [1, 0]
