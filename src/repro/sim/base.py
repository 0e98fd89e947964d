"""Common interface shared by the simulation engines.

Two engines implement it:

* :class:`repro.sim.simulator.Simulator` — the scalar two-phase engine.
  It runs each design as one generated Python function, with the
  coverage collectors compiled in as probes, and simulates one trial at
  a time.
* :class:`repro.sim.batched.BatchedSimulator` — the bit-parallel batched
  engine.  It evaluates the synthesized next-state/output functions once
  per cycle for ``W`` independent trials packed into Python big-int lanes.

Code that only needs ``reset``/``step``/``peek`` can hold either engine
through :class:`SimulatorBase`.  The compiled scalar engine is the one
that replays seed and counterexample sequences and measures coverage;
the batched engine's :class:`~repro.sim.batched.CompiledNetlist` steps
the explicit engine's state-space search lane-parallel.
"""

from __future__ import annotations

from typing import Mapping

from repro.hdl.module import Module


class SimulatorBase:
    """Shared surface of the scalar and batched simulation engines.

    ``peek``/``snapshot`` return plain ints on the scalar engine and
    per-lane lists on the batched engine; everything else (reset
    semantics, cycle accounting, trace-column layout) is identical.
    """

    def __init__(self, module: Module, trace_columns=None):
        module.validate()
        self.module = module
        self.cycle_count = 0
        if trace_columns is None:
            trace_columns = self.default_trace_columns()
        self.trace_columns = tuple(trace_columns)

    # ------------------------------------------------------------------
    @property
    def lanes(self) -> int:
        """Number of independent trials simulated per :meth:`step`."""
        return 1

    def width_of(self, name: str) -> int:
        return self.module.width_of(name)

    def default_trace_columns(self) -> list[str]:
        """Inputs (excluding clock), registers, then remaining signals."""
        skip = {self.module.clock}
        columns = [name for name in self.module.input_names if name not in skip]
        for name in self.module.state_names:
            if name not in columns:
                columns.append(name)
        for name in self.module.signals:
            if name not in columns and name not in skip:
                columns.append(name)
        return columns

    # ------------------------------------------------------------------
    # engine API
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Put the design (every lane) into its reset state."""
        raise NotImplementedError

    def step(self, inputs: Mapping[str, object] | None = None):
        """Simulate one clock cycle; return the sampled (pre-edge) values."""
        raise NotImplementedError

    def peek(self, name: str):
        raise NotImplementedError

    def poke(self, name: str, value) -> None:
        raise NotImplementedError

    def snapshot(self):
        raise NotImplementedError

