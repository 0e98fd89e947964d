"""Compiled two-phase cycle-accurate simulator for the Verilog subset.

Semantics
---------

* Registers are initialised to their declared reset values when
  :meth:`Simulator.reset` is called; this is the design's reset state and
  is the same initial state the formal engines use.
* :meth:`Simulator.step` applies one cycle of input values, settles the
  combinational network, samples the trace row (this is the value the
  decision-tree miner sees for cycle ``t``), then applies the clock edge:
  sequential processes execute with non-blocking updates committed at the
  end of the edge, and the combinational network is settled again.
* Coverage collectors passed as ``observers`` are compiled in as probes
  at the reset settle, the pre-edge settle, the clock edge and the
  post-edge settle.

Combinational constructs (continuous assigns and ``always @*``
processes) are evaluated in topological dependency order; designs with
false combinational cycles fall back to bounded fixpoint iteration.

On the first run the simulator generates one Python function for the
design and its collectors (:mod:`repro.sim.codegen`) that simulates a
whole input sequence over local ints; ``run``, ``step``, ``reset`` and
``load_state`` all call it.  The generated program is kept on the module,
so later simulators of the design with the same probes reuse it.  Nothing is generated in ``__init__``, so
building a simulator only for its :attr:`trace_columns` stays cheap.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.hdl.ast import mask
from repro.hdl.errors import HdlError
from repro.hdl.module import Module
from repro.sim import codegen
from repro.sim.base import SimulatorBase
from repro.sim.stimulus import DirectedStimulus, Stimulus
from repro.sim.trace import Trace


class SimulationError(HdlError):
    """Raised when simulation cannot make progress (e.g. oscillating logic)."""


def _check_collectors(observers: Iterable) -> list:
    observers = list(observers)
    if observers:
        # Imported here: repro.coverage imports this module.
        from repro.coverage.collectors import (
            BranchCoverage,
            ConditionCoverage,
            ExpressionCoverage,
            FsmCoverage,
            StatementCoverage,
            ToggleCoverage,
        )

        kinds = (StatementCoverage, BranchCoverage, ConditionCoverage,
                 ExpressionCoverage, ToggleCoverage, FsmCoverage)
        for observer in observers:
            if not isinstance(observer, kinds):
                raise TypeError(
                    f"{type(observer).__name__} is not a coverage collector; the "
                    "simulator compiles only the six repro.coverage collectors in"
                )
    return observers


class Simulator(SimulatorBase):
    """Simulates a :class:`~repro.hdl.module.Module` through generated code."""

    def __init__(self, module: Module, observers: Iterable = (),
                 trace_columns: Sequence[str] | None = None):
        self.observers: list = _check_collectors(observers)
        self._values: dict[str, int] = {name: 0 for name in module.signals}
        self._program = None
        super().__init__(module, trace_columns)

    # ------------------------------------------------------------------
    # EvalContext protocol
    # ------------------------------------------------------------------
    def read(self, name: str) -> int:
        return self._values[name]

    # ------------------------------------------------------------------
    # generated code
    # ------------------------------------------------------------------
    def _simulate(self, vectors: Iterable[Mapping[str, int]], start: int,
                  full: bool = False) -> list[tuple[int, ...]]:
        """Run the generated function; fold coverage even if it raises."""
        if self._program is None:
            program = codegen.generate(self.module, self.observers, self.trace_columns)
            namespace = {"SimulationError": SimulationError}
            exec(codegen.compile_source(program.source), namespace)
            probes = (codegen.ProbeState(program.layout, self.observers)
                      if self.observers else None)
            self._program = (namespace["simulate"], probes)
        function, probes = self._program
        rows: list[tuple[int, ...]] = []
        if start == codegen.RESET:
            self.cycle_count = 0
        try:
            function(self._values, vectors, start, full, rows, probes)
        finally:
            self.cycle_count += len(rows)
            if probes is not None:
                probes.fold(len(rows))
        return rows

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Put the design into its reset state."""
        self._simulate((), codegen.RESET)

    def poke(self, name: str, value: int) -> None:
        """Force a signal value (primarily for tests and fault injection)."""
        self._values[name] = mask(int(value), self.module.width_of(name))

    def peek(self, name: str) -> int:
        return self._values[name]

    def snapshot(self) -> dict[str, int]:
        """Return a copy of all current signal values."""
        return dict(self._values)

    def load_state(self, registers: Mapping[str, int]) -> None:
        """Set register values directly (used by the formal engines)."""
        for name, value in registers.items():
            self._values[name] = mask(int(value), self.module.width_of(name))
        self._simulate((), codegen.SETTLE)

    def step(self, inputs: Mapping[str, int] | None = None) -> dict[str, int]:
        """Simulate one clock cycle; return the sampled (pre-edge) values."""
        [row] = self._simulate((inputs or {},), codegen.RESUME, full=True)
        return dict(zip(self.module.signals, row))

    def run(self, stimulus: Stimulus, reset: bool = True) -> Trace:
        """Reset (optionally) and run the full stimulus; return the trace."""
        # A directed stimulus only copies its vectors; the generated code
        # converts and masks every value itself.
        vectors = stimulus.vectors if type(stimulus) is DirectedStimulus \
            else stimulus.cycles(self.module)
        trace = Trace(self.trace_columns)
        trace.rows = self._simulate(vectors, codegen.RESET if reset else codegen.RESUME)
        return trace

    def run_vectors(self, vectors: Sequence[Mapping[str, int]], reset: bool = True) -> Trace:
        """Run an explicit list of per-cycle input assignments."""
        return self.run(DirectedStimulus(vectors), reset=reset)


def simulate(module: Module, stimulus: Stimulus, observers: Iterable = ()) -> Trace:
    """Convenience wrapper: build a simulator, run ``stimulus``, return the trace."""
    simulator = Simulator(module, observers=observers)
    return simulator.run(stimulus)
