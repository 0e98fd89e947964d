"""Test-only reference: the statement-walking interpreter and its observers.

:class:`ReferenceSimulator` interprets a module one statement at a time —
combinational settle in topological construct order (bounded fixpoint
iteration for construct-level cycles), sample, clock edge with
non-blocking updates committed after every sequential process, settle —
and notifies :class:`Observer` hooks as it goes.  :func:`observer_for`
wraps each coverage collector in an observer that marks its points hit,
so the compiled :class:`~repro.sim.simulator.Simulator` (which compiles
the same collectors in as probes) can be compared with it on traces,
values and every collector's ``covered_points`` and FSM transitions.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Mapping, Sequence

from repro.coverage.collectors import (
    BranchCoverage,
    ConditionCoverage,
    CoverageCollector,
    ExpressionCoverage,
    FsmCoverage,
    StatementCoverage,
    ToggleCoverage,
)
from repro.hdl.ast import Expr, mask
from repro.hdl.module import AlwaysBlock, ContinuousAssign, Module, ProcessKind
from repro.hdl.stmt import Assign, Block, Case, If, Statement
from repro.sim.base import SimulatorBase
from repro.sim.simulator import SimulationError
from repro.sim.stimulus import DirectedStimulus, Stimulus
from repro.sim.trace import Trace

#: Maximum passes over the combinational network before declaring divergence.
MAX_SETTLE_ITERATIONS = 64


class Observer:
    """Simulation hooks; every hook is an optional no-op."""

    def on_reset(self, values: Mapping[str, int]) -> None:
        """Called after the design has been reset."""

    def on_cycle_start(self, cycle: int, values: Mapping[str, int]) -> None:
        """Called after inputs are applied and combinational logic settled."""

    def on_cycle_end(self, cycle: int, values: Mapping[str, int]) -> None:
        """Called after the clock edge (registers updated, comb resettled)."""

    def on_assign(self, stmt: Statement, value: int) -> None:
        """Called when a procedural assignment executes."""

    def on_branch(self, stmt: Statement, branch: str) -> None:
        """Called when an if/case statement selects branch ``branch``."""

    def on_expression(self, expr: Expr, ctx) -> None:
        """Called before a right-hand side, condition or case subject is
        evaluated; ``ctx`` is the simulator (an ``EvalContext``)."""


# ----------------------------------------------------------------------
# collector observers
# ----------------------------------------------------------------------
class _StatementObserver(Observer):
    def __init__(self, collector: StatementCoverage):
        self.collector = collector

    def on_assign(self, stmt, value):
        if isinstance(stmt, Assign):
            self.collector._hit(("stmt", stmt.stmt_id))

    def on_cycle_start(self, cycle, values):
        for index, _ in enumerate(self.collector.module.assigns):
            self.collector.covered_points.add(("assign", index))


class _BranchObserver(Observer):
    def __init__(self, collector: BranchCoverage):
        self.collector = collector

    def on_branch(self, stmt, branch):
        self.collector._hit((stmt.stmt_id, branch))


class _AtomObserver(Observer):
    """Condition atoms or expression bins, looked up by ``id(expr)``."""

    def __init__(self, collector: CoverageCollector, table: dict):
        self.collector = collector
        self.table = table

    def on_expression(self, expr, ctx):
        for index, atom in self.table.get(id(expr), ()):
            self.collector._hit((index, 1 if atom.evaluate(ctx) else 0))


class _ToggleObserver(Observer):
    def __init__(self, collector: ToggleCoverage):
        self.collector = collector
        self.previous: dict[str, int] | None = None

    def _observe(self, values):
        collector = self.collector
        if self.previous is not None:
            for name in collector._tracked:
                old, new = self.previous.get(name, 0), values.get(name, 0)
                changed = old ^ new
                for bit in range(collector.module.width_of(name)):
                    if (changed >> bit) & 1:
                        direction = "rise" if (new >> bit) & 1 else "fall"
                        collector._hit((name, bit, direction))
        self.previous = {name: values.get(name, 0) for name in collector._tracked}

    def on_reset(self, values):
        self.previous = {name: values.get(name, 0) for name in self.collector._tracked}

    def on_cycle_start(self, cycle, values):
        self._observe(values)

    def on_cycle_end(self, cycle, values):
        self._observe(values)


class _FsmObserver(Observer):
    def __init__(self, collector: FsmCoverage):
        self.collector = collector
        self.previous: dict[str, int] = {}

    def on_reset(self, values):
        # A transition never spans the reset between two sequences.
        self.previous = {}

    def on_cycle_start(self, cycle, values):
        collector = self.collector
        for name in collector.state_signals:
            value = values.get(name, 0)
            collector._hit((name, value))
            if name in self.previous and self.previous[name] != value:
                collector.transitions[name].add((self.previous[name], value))
            self.previous[name] = value


def observer_for(collector: CoverageCollector) -> Observer:
    """The interpreter hooks that fill ``collector``'s covered points."""
    if isinstance(collector, StatementCoverage):
        return _StatementObserver(collector)
    if isinstance(collector, BranchCoverage):
        return _BranchObserver(collector)
    if isinstance(collector, ConditionCoverage):
        return _AtomObserver(collector, collector._atoms_by_expr)
    if isinstance(collector, ExpressionCoverage):
        return _AtomObserver(collector, collector._bins_by_expr)
    if isinstance(collector, ToggleCoverage):
        return _ToggleObserver(collector)
    if isinstance(collector, FsmCoverage):
        return _FsmObserver(collector)
    raise TypeError(f"no reference observer for {type(collector).__name__}")


# ----------------------------------------------------------------------
class ReferenceSimulator(SimulatorBase):
    """Interprets a :class:`~repro.hdl.module.Module` cycle by cycle.

    ``observers`` may mix raw :class:`Observer` objects and coverage
    collectors (wrapped by :func:`observer_for`).
    """

    def __init__(self, module: Module, observers: Iterable = (),
                 trace_columns: Sequence[str] | None = None):
        self.observers: list[Observer] = [
            observer_for(o) if isinstance(o, CoverageCollector) else o for o in observers
        ]
        self._values: dict[str, int] = {name: 0 for name in module.signals}
        self.module = module
        self._comb_constructs = self._ordered_comb_constructs()
        self._sequential = [p for p in module.processes if p.kind is ProcessKind.SEQUENTIAL]
        self._register_names = module.state_names
        super().__init__(module, trace_columns)

    def read(self, name: str) -> int:
        return self._values[name]

    # ------------------------------------------------------------------
    def reset(self) -> None:
        for name in self.module.signals:
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
        self._values[name] = mask(value, self.module.width_of(name))

    def peek(self, name: str) -> int:
        return self._values[name]

    def snapshot(self) -> dict[str, int]:
        return dict(self._values)

    def load_state(self, registers: Mapping[str, int]) -> None:
        for name, value in registers.items():
            self._values[name] = mask(value, self.module.width_of(name))
        self._settle_combinational()

    def step(self, inputs: Mapping[str, int] | None = None) -> dict[str, int]:
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
        if reset:
            self.reset()
        trace = Trace(self.trace_columns)
        for inputs in stimulus.cycles(self.module):
            trace.append(self.step(inputs))
        return trace

    def run_vectors(self, vectors: Sequence[Mapping[str, int]], reset: bool = True) -> Trace:
        return self.run(DirectedStimulus(vectors), reset=reset)

    # ------------------------------------------------------------------
    # combinational settling
    # ------------------------------------------------------------------
    def _ordered_comb_constructs(self) -> list[ContinuousAssign | AlwaysBlock]:
        constructs: list[ContinuousAssign | AlwaysBlock] = list(self.module.assigns)
        constructs.extend(
            p for p in self.module.processes if p.kind is ProcessKind.COMBINATIONAL
        )
        self._comb_has_cycle = False
        if not constructs:
            return []
        sorter = TopologicalSorter()
        for index in range(len(constructs)):
            sorter.add(index)
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
                    sorter.add(j, i)
        try:
            order = list(sorter.static_order())
        except CycleError:
            order = list(range(len(constructs)))
            self._comb_has_cycle = True
        return [constructs[i] for i in order]

    def _settle_combinational(self) -> None:
        if not self._comb_constructs:
            return
        passes = MAX_SETTLE_ITERATIONS if self._comb_has_cycle else 1
        for _ in range(passes):
            before = dict(self._values)
            for construct in self._comb_constructs:
                if isinstance(construct, ContinuousAssign):
                    self._execute_continuous(construct)
                else:
                    self._execute_block(construct.body, pending=None)
            if self._values == before:
                return
        if self._comb_has_cycle:
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
    # clock edge and statements
    # ------------------------------------------------------------------
    def _clock_edge(self) -> None:
        if not self._sequential:
            return
        pending: dict[str, int] = {}
        for process in self._sequential:
            self._execute_block(process.body, pending)
        for name, value in pending.items():
            self._values[name] = value

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
        else:
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
