"""The compiled simulator's generated source and its code-object cache."""

from __future__ import annotations

from repro.coverage.collectors import default_collectors
from repro.designs import info
from repro.faults import StuckAtFault, inject_fault
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
    first, second = meta.build(), meta.build()
    assert set(_statement_ids(first)).isdisjoint(_statement_ids(second))
    (sim_a, source_a), (sim_b, source_b) = (_compiled(m, meta.fsm_signals)
                                            for m in (first, second))
    assert source_a == source_b
    assert sim_a._program[0].__code__ is sim_b._program[0].__code__
    # The slots still map to each build's own statement ids.
    ours, theirs = ({point for point in sim.observers[0].covered_points if point[0] == "stmt"}
                    for sim in (sim_a, sim_b))
    assert ours and ours.isdisjoint(theirs) and len(ours) == len(theirs)


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
