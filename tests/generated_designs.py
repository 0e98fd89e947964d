"""Generated designs for the property suites.

:func:`random_fsm` turns a seed into a small random FSM in the repo's
Verilog subset; :data:`fsms` is the Hypothesis strategy over them, so a
failing example shrinks to its seed.  Suites that draw the seed
themselves call :func:`random_fsm` directly.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.hdl.parser import parse_module


def random_fsm(seed: int):
    """A random small FSM in the repo's Verilog subset.

    1-3 one-bit registers (all exported as outputs so the assertion
    generator has sequential outputs to aim at), 1-2 free inputs, random
    reset values, random depth-2 next-state logic and one combinational
    output — at most 8 states, so the state space enumerates instantly.
    """
    rng = random.Random(seed)
    registers = [f"r{i}" for i in range(rng.randint(1, 3))]
    inputs = [f"i{i}" for i in range(rng.randint(1, 2))]
    names = registers + inputs

    def expression(depth: int) -> str:
        if depth == 0 or rng.random() < 0.4:
            name = rng.choice(names)
            return name if rng.random() < 0.5 else f"~{name}"
        operator = rng.choice(["&", "|", "^"])
        return f"({expression(depth - 1)} {operator} {expression(depth - 1)})"

    updates = "\n".join(
        f"      {register} <= {expression(2)};" for register in registers)
    resets = "\n".join(
        f"      {register} <= {rng.randint(0, 1)};" for register in registers)
    source = f"""
module hfsm(clk, rst, {', '.join(inputs)}, {', '.join(registers)}, y);
  input clk, rst;
  input {', '.join(inputs)};
  output reg {', '.join(registers)};
  output y;

  assign y = {expression(2)};

  always @(posedge clk) begin
    if (rst) begin
{resets}
    end else begin
{updates}
    end
  end
endmodule
"""
    return parse_module(source)


#: Hypothesis strategy: a random FSM per drawn seed.
fsms = st.integers(0, 10_000).map(random_fsm)
