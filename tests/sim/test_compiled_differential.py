"""Differential battery: the compiled simulator vs the reference interpreter.

:class:`~repro.sim.simulator.Simulator` runs each design as generated
code with the coverage collectors compiled in as probes;
``interpreter_reference.ReferenceSimulator`` walks the statements and
notifies observers.  On every bundled design and on every stuck-at mutant
of every design they must agree on trace rows, on every collector's
``covered_points``, on FSM transitions, on the ``step``/``peek``/
``snapshot``/``load_state`` surface and on error messages.
"""

from __future__ import annotations

import random

import pytest
from interpreter_reference import ReferenceSimulator

from repro.coverage.collectors import default_collectors
from repro.coverage.runner import CoverageRunner
from repro.designs import DESIGNS, info, load
from repro.faults import enumerate_faults, inject_fault
from repro.hdl.parser import parse_module
from repro.sim.simulator import SimulationError, Simulator

ALL_DESIGNS = sorted(DESIGNS)


def _random_vector(module, rng):
    return {name: rng.randrange(1 << module.width_of(name))
            for name in module.data_input_names}


def _random_suite(module, rng, lengths):
    """One sequence per length; an empty sequence included on purpose."""
    return [[_random_vector(module, rng) for _ in range(length)] for length in lengths]


def _with_reset(module, sequence):
    """The coverage runner's ``prepend_reset`` framing of one sequence."""
    if module.reset is None:
        return [dict(vector) for vector in sequence]
    return [{module.reset: 1}] + [{**vector, module.reset: 0} for vector in sequence]


def _replay(simulator_class, module, suite, fsm_signals):
    collectors = default_collectors(module, fsm_signals)
    simulator = simulator_class(module, observers=collectors)
    traces = [simulator.run_vectors(sequence).rows for sequence in suite]
    return traces, collectors, simulator


def _assert_same_coverage(compiled, reference):
    assert [type(c) for c in compiled] == [type(c) for c in reference]
    for ours, theirs in zip(compiled, reference):
        assert ours.total_points == theirs.total_points, ours.metric_name
        assert ours.covered_points == theirs.covered_points, ours.metric_name
        if hasattr(ours, "transitions"):
            assert ours.transitions == theirs.transitions


@pytest.mark.parametrize("design_name", ALL_DESIGNS)
def test_traces_and_coverage_match_reference(design_name):
    meta = info(design_name)
    module = meta.build()
    rng = random.Random(7)
    suite = _random_suite(module, rng, lengths=(40, 0, 3, 25, 1, 60))
    framed = [_with_reset(module, sequence) for sequence in suite]
    for sequences in (suite, framed):
        traces, compiled, simulator = _replay(Simulator, module, sequences,
                                              meta.fsm_signals or None)
        ref_traces, reference, ref_simulator = _replay(ReferenceSimulator, module, sequences,
                                                       meta.fsm_signals or None)
        assert traces == ref_traces
        _assert_same_coverage(compiled, reference)
        assert simulator.snapshot() == ref_simulator.snapshot()
        assert simulator.cycle_count == ref_simulator.cycle_count


@pytest.mark.parametrize("design_name", ALL_DESIGNS)
def test_coverage_runner_matches_reference(design_name):
    meta = info(design_name)
    module = meta.build()
    suite = _random_suite(module, random.Random(3), lengths=(12, 0, 30, 5))
    runner = CoverageRunner(module, fsm_signals=meta.fsm_signals or None, prepend_reset=True)
    runner.run_suite(suite)
    reference = default_collectors(module, meta.fsm_signals or None)
    simulator = ReferenceSimulator(module, observers=reference)
    for sequence in suite:
        if sequence:
            simulator.run_vectors(_with_reset(module, sequence))
    _assert_same_coverage(runner.collectors, reference)


#: Operators and statement shapes the bundled designs do not all use:
#: concatenation, part selects, shifts, reductions, XNOR, unary minus,
#: multiplication, a blocking temporary and a register written both
#: blocking and non-blocking in one sequential process, a multi-label
#: case without default, an empty case, and a construct-level
#: combinational cycle that settles after a few passes.
CORNER_DESIGNS = {
    "operators": """
        module corner(clk, rst, a, b, sel, y, z, w);
          input clk, rst; input [3:0] a, b; input [1:0] sel;
          output [7:0] y; output z; output reg [3:0] w;
          reg [3:0] acc; reg [3:0] tmp; reg flag; reg [2:0] mode;
          wire [7:0] cat; wire [3:0] sh;
          assign cat = {a, b};
          assign sh = (a << sel) ^ (b >> sel);
          assign y = cat + {4'd0, acc} * 2 - b;
          assign z = (^a) ~^ (&b) | (~|sel) & !(a == b) || (a < b) && (|acc);
          always @(posedge clk) begin
            if (rst) begin
              acc <= 0; flag <= 0; mode <= 3;
            end else begin
              tmp = a + acc;
              acc <= tmp;
              flag = ~flag;
              if (flag) flag <= a[0];
              case (sel)
                0, 1: mode <= mode + 1;
                2: mode <= -mode;
              endcase
              case (mode) endcase
            end
          end
          always @* begin
            w = sel[1] ? a[3:1] : ~b;
            if (z) w = w ^ {sh[1:0], acc[3], tmp[0]};
          end
        endmodule
    """,
    "false_loop": """
        module false_loop(clk, a, b, q);
          input clk, a, b; output reg q;
          wire [1:0] p, r;
          assign p = {r[0], a};
          assign r = {b, p[0]};
          always @(posedge clk) q <= p[1] ^ r[1] ^ q;
        endmodule
    """,
}


@pytest.mark.parametrize("name", sorted(CORNER_DESIGNS))
def test_corner_designs_match_reference(name):
    module = parse_module(CORNER_DESIGNS[name])
    suite = _random_suite(module, random.Random(name), lengths=(50, 0, 7, 30))
    framed = [_with_reset(module, sequence) for sequence in suite]
    traces, compiled, _ = _replay(Simulator, module, framed, None)
    ref_traces, reference, _ = _replay(ReferenceSimulator, module, framed, None)
    assert traces == ref_traces
    _assert_same_coverage(compiled, reference)


def test_every_mutant_is_covered():
    assert sum(len(enumerate_faults(load(name))) for name in ALL_DESIGNS) == 192


@pytest.mark.parametrize("design_name", ALL_DESIGNS)
def test_mutants_match_reference(design_name):
    module = load(design_name)
    rng = random.Random(design_name)
    for fault in enumerate_faults(module):
        mutant = inject_fault(module, fault)
        suite = [_with_reset(mutant, sequence)
                 for sequence in _random_suite(mutant, rng, lengths=(9, 0, 4))]
        traces, compiled, _ = _replay(Simulator, mutant, suite, None)
        ref_traces, reference, _ = _replay(ReferenceSimulator, mutant, suite, None)
        assert traces == ref_traces, fault.label
        _assert_same_coverage(compiled, reference)


@pytest.mark.parametrize("design_name", ALL_DESIGNS)
def test_step_surface_matches_reference(design_name):
    module = load(design_name)
    rng = random.Random(11)
    compiled, reference = Simulator(module), ReferenceSimulator(module)
    compiled.reset()
    reference.reset()
    assert compiled.snapshot() == reference.snapshot()
    registers = module.state_names
    for cycle in range(40):
        if cycle % 10 == 5:
            state = {name: rng.randrange(1 << module.width_of(name)) for name in registers}
            compiled.load_state(state)
            reference.load_state(state)
            assert compiled.snapshot() == reference.snapshot()
        vector = _random_vector(module, rng)
        assert compiled.step(vector) == reference.step(vector)
        assert list(compiled.snapshot().items()) == list(reference.snapshot().items())
        for name in module.signals:
            assert compiled.peek(name) == reference.peek(name)
    assert compiled.cycle_count == reference.cycle_count


def test_step_then_run_continue_one_coverage_state():
    """Probes persist across calls: stepping without reset, then a resumed
    run, accumulates exactly what the interpreter's observers see."""
    meta = info("b01")
    module = meta.build()
    rng = random.Random(5)
    vectors = [_random_vector(module, rng) for _ in range(30)]
    sides = []
    for simulator_class in (Simulator, ReferenceSimulator):
        collectors = default_collectors(module, meta.fsm_signals)
        simulator = simulator_class(module, observers=collectors)
        for vector in vectors[:10]:
            simulator.step(vector)
        simulator.load_state({"state": 3})
        rows = simulator.run_vectors(vectors[10:], reset=False).rows
        sides.append((rows, collectors))
    assert sides[0][0] == sides[1][0]
    _assert_same_coverage(sides[0][1], sides[1][1])


@pytest.mark.parametrize("design_name", ["b01", "b12", "arbiter4"])
def test_fsm_transitions_never_span_a_reset(design_name):
    """The compiled and reference engines record the same FSM transitions
    on a multi-sequence suite: none from one sequence's last state to the
    next sequence's reset state."""
    meta = info(design_name)
    module = meta.build()
    suite = _random_suite(module, random.Random(1), lengths=(30, 30, 30))
    transitions = []
    runner = CoverageRunner(module, fsm_signals=meta.fsm_signals or None)
    runner.run_suite(suite)
    [fsm] = [c for c in runner.collectors if c.metric_name == "fsm"]
    transitions.append(fsm.transitions)
    _, reference, _ = _replay(ReferenceSimulator, module, suite, meta.fsm_signals or None)
    [fsm] = [c for c in reference if c.metric_name == "fsm"]
    transitions.append(fsm.transitions)
    assert transitions[0] == transitions[1]
    assert any(transitions[0].values())


def test_unknown_input_message_matches_reference():
    module = load("arbiter2")
    messages = []
    for simulator_class in (Simulator, ReferenceSimulator):
        simulator = simulator_class(module)
        simulator.reset()
        with pytest.raises(SimulationError) as error:
            simulator.step({"req0": 1, "nonexistent": 1})
        messages.append(str(error.value))
        with pytest.raises(SimulationError) as error:
            simulator.run_vectors([{"req0": 1}, {"bogus": 0}])
        messages.append(str(error.value))
        messages.append(simulator.cycle_count)
    assert messages[:3] == messages[3:]
    assert messages[0] == "unknown input 'nonexistent'"


OSCILLATOR = """
    module osc(clk, en, y); input clk, en; output y;
      wire a, b;
      assign a = en ? ~b : 1'b0;
      assign b = a;
      assign y = b;
    endmodule
"""


def test_oscillating_loop_message_matches_reference():
    module = parse_module(OSCILLATOR)
    messages = []
    for simulator_class in (Simulator, ReferenceSimulator):
        simulator = simulator_class(module)
        simulator.reset()  # en = 0: the loop settles
        with pytest.raises(SimulationError) as error:
            simulator.step({"en": 1})
        messages.append(str(error.value))
    assert messages[0] == messages[1]
    assert "did not settle after 64 iterations" in messages[0]


def test_non_collector_observer_rejected():
    with pytest.raises(TypeError):
        Simulator(load("arbiter2"), observers=[object()])
