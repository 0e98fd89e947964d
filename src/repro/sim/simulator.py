"""Two-phase cycle-accurate interpreter for the Verilog subset.

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
* Observers (coverage collectors, VCD dumpers) are notified of statement
  execution, branch selection, expression evaluation and cycle
  boundaries.

The interpreter evaluates combinational constructs (continuous assigns and
``always @*`` processes) in topological dependency order; designs with
false combinational cycles fall back to bounded fixpoint iteration.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import networkx as nx

from repro.hdl.ast import mask
from repro.hdl.errors import HdlError
from repro.hdl.module import (
    AlwaysBlock,
    ContinuousAssign,
    Module,
    ProcessKind,
)
from repro.hdl.stmt import Assign, Block, Case, If, Statement
from repro.sim.base import SimulatorBase
from repro.sim.observer import Observer
from repro.sim.stimulus import Stimulus
from repro.sim.trace import Trace

#: Maximum passes over the combinational network before declaring divergence.
MAX_SETTLE_ITERATIONS = 64


class SimulationError(HdlError):
    """Raised when simulation cannot make progress (e.g. oscillating logic)."""


class Simulator(SimulatorBase):
    """Interprets a :class:`~repro.hdl.module.Module` cycle by cycle."""

    def __init__(self, module: Module, observers: Iterable[Observer] = (),
                 trace_columns: Sequence[str] | None = None):
        self.observers: list[Observer] = list(observers)
        self._values: dict[str, int] = {name: 0 for name in module.signals}
        self.module = module
        self._comb_constructs = self._ordered_comb_constructs()
        self._sequential = [p for p in module.processes if p.kind is ProcessKind.SEQUENTIAL]
        self._register_names = module.state_names
        super().__init__(module, trace_columns)

    # ------------------------------------------------------------------
    # EvalContext protocol
    # ------------------------------------------------------------------
    def read(self, name: str) -> int:
        return self._values[name]

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Put the design into its reset state."""
        for name, signal in self.module.signals.items():
            self._values[name] = 0
        for name in self._register_names:
            self._values[name] = self.module.signal(name).reset_value
        if self.module.reset is not None:
            self._values[self.module.reset] = 0
        self._settle_combinational()
        self.cycle_count = 0
        for observer in self.observers:
            observer.on_reset(dict(self._values))

    def poke(self, name: str, value: int) -> None:
        """Force a signal value (primarily for tests and fault injection)."""
        self._values[name] = mask(value, self.module.width_of(name))

    def peek(self, name: str) -> int:
        return self._values[name]

    def snapshot(self) -> dict[str, int]:
        """Return a copy of all current signal values."""
        return dict(self._values)

    def load_state(self, registers: Mapping[str, int]) -> None:
        """Set register values directly (used by the formal engines)."""
        for name, value in registers.items():
            self._values[name] = mask(value, self.module.width_of(name))
        self._settle_combinational()

    def step(self, inputs: Mapping[str, int] | None = None) -> dict[str, int]:
        """Simulate one clock cycle; return the sampled (pre-edge) values."""
        inputs = inputs or {}
        for name, value in inputs.items():
            if name not in self.module.signals:
                raise SimulationError(f"unknown input '{name}'")
            self._values[name] = mask(int(value), self.module.width_of(name))
        self._settle_combinational()
        sampled = dict(self._values)
        for observer in self.observers:
            observer.on_cycle_start(self.cycle_count, sampled)
        self._clock_edge()
        self._settle_combinational()
        for observer in self.observers:
            observer.on_cycle_end(self.cycle_count, dict(self._values))
        self.cycle_count += 1
        return sampled

    def run(self, stimulus: Stimulus, reset: bool = True) -> Trace:
        """Reset (optionally) and run the full stimulus; return the trace."""
        if reset:
            self.reset()
        trace = Trace(self.trace_columns)
        for inputs in stimulus.cycles(self.module):
            sampled = self.step(inputs)
            trace.append(sampled)
        return trace

    def run_vectors(self, vectors: Sequence[Mapping[str, int]], reset: bool = True) -> Trace:
        """Run an explicit list of per-cycle input assignments."""
        from repro.sim.stimulus import DirectedStimulus

        return self.run(DirectedStimulus(vectors), reset=reset)

    # ------------------------------------------------------------------
    # combinational settling
    # ------------------------------------------------------------------
    def _ordered_comb_constructs(self) -> list[ContinuousAssign | AlwaysBlock]:
        constructs: list[ContinuousAssign | AlwaysBlock] = list(self.module.assigns)
        constructs.extend(
            p for p in self.module.processes if p.kind is ProcessKind.COMBINATIONAL
        )
        if not constructs:
            return []
        graph = nx.DiGraph()
        graph.add_nodes_from(range(len(constructs)))
        writes: list[set[str]] = []
        reads: list[set[str]] = []
        for construct in constructs:
            if isinstance(construct, ContinuousAssign):
                writes.append({construct.target})
                reads.append(construct.expr.signals())
            else:
                writes.append(construct.assigned_signals())
                reads.append(construct.read_signals())
        for i in range(len(constructs)):
            for j in range(len(constructs)):
                if i != j and writes[i] & reads[j]:
                    graph.add_edge(i, j)
        try:
            order = list(nx.topological_sort(graph))
            self._comb_has_cycle = False
        except nx.NetworkXUnfeasible:
            order = list(range(len(constructs)))
            self._comb_has_cycle = True
        return [constructs[i] for i in order]

    def _settle_combinational(self) -> None:
        if not self._comb_constructs:
            return
        passes = MAX_SETTLE_ITERATIONS if getattr(self, "_comb_has_cycle", False) else 1
        for iteration in range(passes):
            before = dict(self._values)
            for construct in self._comb_constructs:
                if isinstance(construct, ContinuousAssign):
                    self._execute_continuous(construct)
                else:
                    self._execute_block(construct.body, pending=None)
            if self._values == before:
                return
        if getattr(self, "_comb_has_cycle", False):
            raise SimulationError(
                f"combinational logic in '{self.module.name}' did not settle "
                f"after {MAX_SETTLE_ITERATIONS} iterations"
            )

    def _execute_continuous(self, assign: ContinuousAssign) -> None:
        for observer in self.observers:
            observer.on_expression(assign.expr, self)
        value = mask(assign.expr.evaluate(self), self.module.width_of(assign.target))
        self._values[assign.target] = value

    # ------------------------------------------------------------------
    # clock edge
    # ------------------------------------------------------------------
    def _clock_edge(self) -> None:
        if not self._sequential:
            return
        pending: dict[str, int] = {}
        for process in self._sequential:
            self._execute_block(process.body, pending)
        for name, value in pending.items():
            self._values[name] = value

    # ------------------------------------------------------------------
    # statement interpretation
    # ------------------------------------------------------------------
    def _execute_block(self, block: Block, pending: dict[str, int] | None) -> None:
        for stmt in block.statements:
            self._execute_statement(stmt, pending)

    def _execute_statement(self, stmt: Statement, pending: dict[str, int] | None) -> None:
        if isinstance(stmt, Block):
            self._execute_block(stmt, pending)
        elif isinstance(stmt, Assign):
            self._execute_assign(stmt, pending)
        elif isinstance(stmt, If):
            self._execute_if(stmt, pending)
        elif isinstance(stmt, Case):
            self._execute_case(stmt, pending)
        else:  # pragma: no cover - parser never produces other types
            raise SimulationError(f"unsupported statement {type(stmt).__name__}")

    def _execute_assign(self, stmt: Assign, pending: dict[str, int] | None) -> None:
        for observer in self.observers:
            observer.on_expression(stmt.expr, self)
        value = mask(stmt.expr.evaluate(self), self.module.width_of(stmt.target))
        for observer in self.observers:
            observer.on_assign(stmt, value)
        if pending is not None and not stmt.blocking:
            pending[stmt.target] = value
        else:
            self._values[stmt.target] = value

    def _execute_if(self, stmt: If, pending: dict[str, int] | None) -> None:
        for observer in self.observers:
            observer.on_expression(stmt.cond, self)
        taken = bool(stmt.cond.evaluate(self))
        for observer in self.observers:
            observer.on_branch(stmt, "then" if taken else "else")
        if taken:
            self._execute_block(stmt.then, pending)
        elif stmt.otherwise is not None:
            self._execute_block(stmt.otherwise, pending)

    def _execute_case(self, stmt: Case, pending: dict[str, int] | None) -> None:
        for observer in self.observers:
            observer.on_expression(stmt.subject, self)
        subject = stmt.subject.evaluate(self)
        for index, item in enumerate(stmt.items):
            if subject in item.labels:
                for observer in self.observers:
                    observer.on_branch(stmt, f"item{index}")
                self._execute_block(item.body, pending)
                return
        for observer in self.observers:
            observer.on_branch(stmt, "default")
        if stmt.default is not None:
            self._execute_block(stmt.default, pending)


def simulate(module: Module, stimulus: Stimulus, observers: Iterable[Observer] = ()) -> Trace:
    """Convenience wrapper: build a simulator, run ``stimulus``, return the trace."""
    simulator = Simulator(module, observers=observers)
    return simulator.run(stimulus)
