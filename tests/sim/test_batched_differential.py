"""Differential equivalence: the batched engine vs the scalar simulator.

Every design bundled in :mod:`repro.designs` is driven by both engines
with identical randomized stimulus; the batched engine must agree
lane-exactly with independent scalar runs on every register, output and
internal signal — both at the pre-edge sample and in the post-edge
state.  This is the trust anchor for everything built on the batched
engine (mining data generation, lane-parallel coverage, benchmarks).
"""

from __future__ import annotations

import random

import pytest

from repro.designs import DESIGNS, load
from repro.sim.base import SimulatorBase
from repro.sim.batched import BatchedSimulator, CompiledNetlist, pack_lanes, unpack_lanes
from repro.sim.simulator import SimulationError, Simulator

ALL_DESIGNS = sorted(DESIGNS)

#: lanes * cycles >= 1000 randomized cycles per design.
LANES = 4
CYCLES = 300


def _lane_streams(module, lanes: int, cycles: int, seed: int):
    """Independent per-lane random input streams, one dict per cycle."""
    rng = random.Random(seed)
    return [
        [{name: rng.randrange(1 << module.width_of(name))
          for name in module.data_input_names}
         for _ in range(cycles)]
        for _ in range(lanes)
    ]


def _stack(streams, t):
    """Per-lane vectors at cycle ``t`` -> input dict of per-lane lists."""
    return {name: [stream[t][name] for stream in streams]
            for name in streams[0][t]}


@pytest.mark.parametrize("design_name", ALL_DESIGNS)
def test_lane_exact_agreement(design_name):
    module = load(design_name)
    batched = BatchedSimulator(module, lanes=LANES)
    scalars = [Simulator(module) for _ in range(LANES)]
    for simulator in scalars:
        simulator.reset()
    streams = _lane_streams(module, LANES, CYCLES, seed=11)
    signals = list(module.signals)
    for t in range(CYCLES):
        sampled = batched.step(_stack(streams, t))
        for lane, simulator in enumerate(scalars):
            reference = simulator.step(streams[lane][t])
            for name in signals:
                assert sampled.value(name, lane) == reference[name], (
                    f"{design_name}: sampled {name} diverged in lane {lane} at cycle {t}"
                )
                assert batched.peek_lane(name, lane) == simulator.peek(name), (
                    f"{design_name}: post-edge {name} diverged in lane {lane} at cycle {t}"
                )


@pytest.mark.parametrize("lanes", [1, 6, 8, 9, 64, 100])
@pytest.mark.parametrize("design_name", ["arbiter2", "counter_block", "b09"])
def test_run_batch_traces_match_scalar_run_vectors(design_name, lanes):
    """Per-lane traces equal scalar traces, including ragged sequence
    lengths, an empty sequence and lane counts that pad each cycle to a
    whole number of bytes."""
    module = load(design_name)
    rng = random.Random(23)
    vector_lists = [
        [{name: rng.randrange(1 << module.width_of(name))
          for name in module.data_input_names}
         for _ in range(rng.choice([17, 30, 43]))]
        for _ in range(lanes)
    ]
    vector_lists[lanes // 2] = []
    batched_traces = BatchedSimulator(module, lanes=lanes).run_batch(vector_lists)
    for lane, vectors in enumerate(vector_lists):
        scalar_trace = Simulator(module).run_vectors(vectors)
        assert batched_traces[lane].columns == scalar_trace.columns
        assert batched_traces[lane].rows == scalar_trace.rows


@pytest.mark.parametrize("lanes", [1, 64, 128])
def test_arbitrary_lane_widths(lanes):
    """W = 1, one machine word, and beyond-word big-int lanes all agree."""
    module = load("arbiter2")
    batched = BatchedSimulator(module, lanes=lanes)
    scalar = Simulator(module)
    scalar.reset()
    rng = random.Random(5)
    for _ in range(50):
        inputs = {name: rng.randrange(2) for name in module.data_input_names}
        reference = scalar.step(inputs)
        sampled = batched.step(inputs)  # broadcast to every lane
        for name in module.signals:
            values = sampled.values(name)
            assert values == [reference[name]] * lanes


def test_run_random_traces_are_independent_uniform_runs():
    module = load("counter_block")
    traces = BatchedSimulator(module, lanes=16).run_random(40, seed=3)
    assert len(traces) == 16
    assert all(len(trace) == 40 for trace in traces)
    # Lanes must not be copies of each other.
    distinct = {tuple(trace.rows) for trace in traces}
    assert len(distinct) > 1
    # Each lane must be replayable on the scalar engine: feeding a lane's
    # input columns back in reproduces the whole lane trace.
    inputs = module.data_input_names
    for trace in traces[:4]:
        vectors = [{name: row[name] for name in inputs} for row in trace]
        replay = Simulator(module).run_vectors(vectors)
        assert replay.rows == trace.rows


def test_wide_signal_traces_are_exact():
    """A 64-bit register that wraps below zero traces to the same
    values (above 2**63) on the batched engine as on the scalar one."""
    from repro.hdl.parser import parse_module

    module = parse_module("""
        module wide(clk, rst, en, q);
          input clk, rst, en;
          output [63:0] q;
          reg [63:0] q;
          always @(posedge clk) begin
            if (rst)
              q <= 0;
            else
              if (en) q <= q - 1;
          end
        endmodule
    """)
    vectors = [{"rst": 0, "en": t % 2} for t in range(20)]
    scalar_trace = Simulator(module).run_vectors(vectors)
    batched_trace = BatchedSimulator(module, lanes=3).run_batch([vectors] * 3)[0]
    assert batched_trace.rows == scalar_trace.rows
    assert max(scalar_trace.column("q")) > 2 ** 63  # wrapped below zero


def test_reset_matches_scalar_reset_state():
    module = load("b06")
    scalar = Simulator(module)
    scalar.reset()
    batched = BatchedSimulator(module, lanes=7)
    batched.reset()
    for name in module.signals:
        assert batched.peek(name) == [scalar.peek(name)] * 7


def test_poke_peek_and_snapshot():
    module = load("counter_block")
    batched = BatchedSimulator(module, lanes=4)
    batched.poke("count", 5)                      # broadcast
    assert batched.peek("count") == [5, 5, 5, 5]
    batched.poke("count", [1, 2, 3, 9])           # per-lane, masked to 3 bits
    assert batched.peek("count") == [1, 2, 3, 1]
    assert batched.peek_lane("count", 2) == 3
    assert batched.snapshot()["count"] == [1, 2, 3, 1]


def test_pack_unpack_roundtrip():
    values = [13, 0, 7, 15, 2, 9]
    assert unpack_lanes(pack_lanes(values, 4), len(values)) == values


@pytest.mark.parametrize("width", [1, 7, 8, 9, 17, 40])
@pytest.mark.parametrize("lanes", [1, 5, 8, 64, 1000])
def test_unpack_matches_per_lane_shifts(width, lanes):
    rng = random.Random(width * 1000 + lanes)
    values = [rng.getrandbits(width) for _ in range(lanes)]
    words = pack_lanes(values, width)
    assert unpack_lanes(words, lanes) == values
    # Bits past the lane count are not lanes.
    junk = [word | (rng.getrandbits(9) << lanes) for word in words]
    assert unpack_lanes(junk, lanes) == values
    assert unpack_lanes([], lanes) == [0] * lanes


def test_step_rejects_unknown_input():
    batched = BatchedSimulator(load("arbiter2"), lanes=2)
    with pytest.raises(SimulationError):
        batched.step({"no_such_signal": 1})


def test_run_batch_rejects_too_many_sequences():
    batched = BatchedSimulator(load("arbiter2"), lanes=2)
    with pytest.raises(SimulationError):
        batched.run_batch([[], [], []])


def test_engines_share_simulator_base():
    module = load("arbiter2")
    scalar = Simulator(module)
    batched = BatchedSimulator(module, lanes=8)
    assert isinstance(scalar, SimulatorBase) and scalar.lanes == 1
    assert isinstance(batched, SimulatorBase) and batched.lanes == 8
    assert scalar.trace_columns == batched.trace_columns


# ----------------------------------------------------------------------
# lane-word blocks (the zero-copy hand-off to the columnar miner)
# ----------------------------------------------------------------------
def test_run_batch_block_matches_run_batch_on_ragged_batches():
    import random as _random

    module = load("arbiter2")
    rng = _random.Random(7)
    sequences = [
        [{"req0": rng.randint(0, 1), "req1": rng.randint(0, 1)}
         for _ in range(length)]
        for length in (3, 5, 1, 4)
    ]
    traces = BatchedSimulator(module, lanes=8).run_batch(sequences)
    block = BatchedSimulator(module, lanes=8).run_batch_block(sequences)
    widened = block.to_traces()
    assert block.lengths == [3, 5, 1, 4]
    assert len(widened) == len(traces)
    for a, b in zip(widened, traces):
        assert a.columns == b.columns and a.rows == b.rows


def test_lane_word_block_words_match_trace_values():
    module = load("arbiter2")
    block = BatchedSimulator(module, lanes=4).run_random_block(6, seed=3)
    traces = block.to_traces()
    assert block.cycles == 6 and block.lanes == 4
    for lane, trace in enumerate(traces):
        for cycle in range(len(trace)):
            for name in ("req0", "gnt0"):
                assert ((block.word(name, 0, cycle) >> lane) & 1) == \
                    trace.value(name, cycle)


def test_run_random_block_reproduces_run_random():
    module = load("b01")
    direct = BatchedSimulator(module, lanes=8).run_random(9, seed=11)
    block = BatchedSimulator(module, lanes=8).run_random_block(9, seed=11)
    for a, b in zip(block.to_traces(), direct):
        assert a.columns == b.columns and a.rows == b.rows


def test_shared_netlist_reuse():
    """One compiled netlist backs simulators of any lane count."""
    module = load("b01")
    netlist = CompiledNetlist(module)
    first = BatchedSimulator(module, lanes=4, netlist=netlist)
    second = BatchedSimulator(module, lanes=8, netlist=netlist)
    assert first.netlist is second.netlist
    assert (first.run_random_block(20, seed=3).to_traces()
            == BatchedSimulator(module, lanes=4).run_random_block(
                20, seed=3).to_traces())
    with pytest.raises(ValueError, match="different module"):
        BatchedSimulator(load("b02"), lanes=4, netlist=netlist)
