"""Packed trace ingestion against the row-wise reference, row for row.

:meth:`ColumnarDataset.add_trace` packs each ``(signal, bit)`` history of
a trace into one int (:func:`repro.mining.columnar.pack_history`) and
slices every feature column out of it.  These checks hold the result to
:class:`MiningDataset`, which reads every feature off a per-row dict:

* on generated FSMs (all signals 1 bit wide), for any window;
* on a hand-written wide-bus design whose 10- and 12-bit signals put
  values past 255 and features at bit 8 and above on the fallback path;
* on traces shorter than the span, empty traces, and several traces in a
  row, so row base offsets are exercised.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.hdl.parser import parse_module
from repro.mining import ColumnarDataset, MiningDataset
from repro.mining.columnar import pack_history
from repro.sim.simulator import Simulator
from repro.sim.stimulus import RandomStimulus

from generated_designs import fsms

WIDE_BUS_SOURCE = """
module widebus(clk, rst, a, b, sel, q, y, hi);
  input clk, rst;
  input [11:0] a;
  input [9:0] b;
  input sel;
  output [11:0] q;
  output [11:0] y;
  output hi;
  reg [11:0] q;

  assign y = sel ? a : b;
  assign hi = q[11] ^ sel;

  always @(posedge clk) begin
    if (rst)
      q <= 0;
    else
      q <= a ^ q;
  end
endmodule
"""


def targets(module) -> list[tuple[str, int | None]]:
    found = []
    for name in module.output_names:
        width = module.width_of(name)
        found.extend([(name, None)] if width == 1
                     else [(name, bit) for bit in range(width)])
    return found


def assert_same_rows(module, output, bit, window, traces) -> None:
    """Feed ``traces`` to both datasets in turn; every column and the
    target must agree row for row after each one."""
    rowwise = MiningDataset(module, output, window=window, output_bit=bit)
    columnar = ColumnarDataset(module, output, window=window, output_bit=bit,
                               synth=rowwise.synth)
    assert rowwise.features == list(columnar.columns)
    for trace in traces:
        assert columnar.add_trace(trace) == rowwise.add_trace(trace)
        assert columnar.n_rows == len(rowwise)
        assert columnar.target_values() == rowwise.target_values()
        for feature in columnar.columns:
            # Row-wise stores raw values; both engines treat nonzero as 1.
            assert columnar.column_values(feature) == \
                [1 if value else 0 for value in rowwise.column_values(feature.column)], \
                feature.column


def reference_pack(history, bit) -> int:
    packed = 0
    for cycle, value in enumerate(history):
        if (value if bit is None else (value >> bit) & 1):
            packed |= 1 << cycle
    return packed


@settings(max_examples=200, deadline=None)
@given(history=st.lists(st.integers(0, (1 << 12) - 1) | st.integers(0, 255),
                        max_size=40),
       bit=st.none() | st.integers(0, 11))
def test_pack_history_matches_a_per_cycle_loop(history, bit):
    assert pack_history(history, bit) == reference_pack(history, bit)
    assert pack_history(tuple(history), bit) == reference_pack(history, bit)


@settings(max_examples=30, deadline=None)
@given(module=fsms, window=st.integers(1, 3),
       lengths=st.lists(st.integers(0, 12), min_size=1, max_size=4),
       seed=st.integers(0, 10_000))
def test_fsm_ingestion_matches_rowwise(module, window, lengths, seed):
    simulator = Simulator(module)
    traces = [simulator.run(RandomStimulus(length, seed=seed + index))
              for index, length in enumerate(lengths)]
    for output, bit in targets(module):
        assert_same_rows(module, output, bit, window, traces)


def test_wide_bus_ingestion_matches_rowwise():
    module = parse_module(WIDE_BUS_SOURCE)
    assert any(feature.bit is not None and feature.bit >= 8
               for feature in ColumnarDataset(module, "hi", window=2).columns)
    simulator = Simulator(module)
    for window in (1, 2, 3):
        for output, bit in targets(module):
            span = window + 1 if output == "q" else window
            traces = [simulator.run(RandomStimulus(length, seed=length))
                      for length in (0, span - 1, 25, span, 1, 9)]
            assert any(value > 255 for trace in traces
                       for value in trace.column("a"))
            assert_same_rows(module, output, bit, window, traces)
