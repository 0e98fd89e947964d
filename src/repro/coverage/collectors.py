"""Coverage collectors: the cover points of each metric.

Every collector enumerates its *coverage points* statically from the
module at construction time (so the denominator is independent of the
stimulus).  The compiled :class:`~repro.sim.simulator.Simulator` fills
``covered_points``: it compiles each collector in as probes
(:mod:`repro.sim.codegen`).
"""

from __future__ import annotations

from typing import Sequence

from repro.coverage.report import MetricReport
from repro.hdl.ast import (
    BinaryOp,
    BitSelect,
    Const,
    Expr,
    Ref,
    Ternary,
    UnaryOp,
)
from repro.hdl.module import Module, ProcessKind
from repro.hdl.stmt import Assign, Case, If


class CoverageCollector:
    """Base class: a metric's cover points and the ones hit so far."""

    metric_name = "coverage"

    def __init__(self, module: Module):
        self.module = module
        self.total_points: set = set()
        self.covered_points: set = set()

    def report(self) -> MetricReport:
        return MetricReport(self.metric_name, set(self.total_points), set(self.covered_points))

    @property
    def percent(self) -> float:
        return self.report().percent

    def _hit(self, point) -> None:
        if point in self.total_points:
            self.covered_points.add(point)


# ----------------------------------------------------------------------
class StatementCoverage(CoverageCollector):
    """Statement ("line") coverage: every procedural assignment executed.

    Continuous assignments execute unconditionally every cycle, so they are
    counted as points too (and are hit as soon as any cycle runs), matching
    how line-coverage tools treat ``assign`` statements.
    """

    metric_name = "line"

    def __init__(self, module: Module):
        super().__init__(module)
        for stmt in module.iter_statements():
            if isinstance(stmt, Assign):
                self.total_points.add(("stmt", stmt.stmt_id))
        for index, _ in enumerate(module.assigns):
            self.total_points.add(("assign", index))


# ----------------------------------------------------------------------
class BranchCoverage(CoverageCollector):
    """Branch coverage: every if/else arm and every case arm (incl. default)."""

    metric_name = "branch"

    def __init__(self, module: Module):
        super().__init__(module)
        for stmt in module.iter_statements():
            if isinstance(stmt, If):
                self.total_points.add((stmt.stmt_id, "then"))
                self.total_points.add((stmt.stmt_id, "else"))
            elif isinstance(stmt, Case):
                for index, _ in enumerate(stmt.items):
                    self.total_points.add((stmt.stmt_id, f"item{index}"))
                self.total_points.add((stmt.stmt_id, "default"))


# ----------------------------------------------------------------------
def condition_atoms(expr: Expr) -> list[Expr]:
    """Atomic Boolean conditions of a branching expression.

    Logical connectives (&&, ||, !) are decomposed; their operands
    (signal references, bit selects, comparisons, reductions) are the
    atoms whose individual true/false outcomes condition coverage tracks.
    """
    atoms: list[Expr] = []

    def walk(node: Expr) -> None:
        if isinstance(node, BinaryOp) and node.op in ("&&", "||"):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, UnaryOp) and node.op == "!":
            walk(node.operand)
        elif isinstance(node, Const):
            return
        else:
            atoms.append(node)

    walk(expr)
    return atoms


def boolean_subexpressions(expr: Expr) -> list[Expr]:
    """Every Boolean-valued sub-expression of a right-hand side.

    This defines our expression-coverage bins: each such sub-expression
    must be observed evaluating to both 0 and 1.
    """
    result: list[Expr] = []
    for node in expr.iter_subexpressions():
        if isinstance(node, Const):
            continue
        if isinstance(node, (Ref, BitSelect)):
            # Only single-bit operands count as Boolean atoms.
            result.append(node)
        elif isinstance(node, (UnaryOp, BinaryOp, Ternary)) and node.is_boolean():
            result.append(node)
        elif isinstance(node, (UnaryOp, BinaryOp)):
            # Bitwise operators over single-bit operands behave Boolean-ly;
            # include them when all their leaf refs are 1-bit wide (decided
            # lazily by the collector, which knows the widths).
            result.append(node)
    return result


class ConditionCoverage(CoverageCollector):
    """Condition coverage over branching expressions (if conditions).

    Each atomic condition of each ``if`` must be seen both true and false.
    """

    metric_name = "cond"

    def __init__(self, module: Module):
        super().__init__(module)
        self._atoms_by_expr: dict[int, list[tuple[int, Expr]]] = {}
        counter = 0
        for stmt in module.iter_statements():
            if isinstance(stmt, If):
                atoms = []
                for atom in condition_atoms(stmt.cond):
                    atoms.append((counter, atom))
                    self.total_points.add((counter, 0))
                    self.total_points.add((counter, 1))
                    counter += 1
                self._atoms_by_expr[id(stmt.cond)] = atoms


class ExpressionCoverage(CoverageCollector):
    """Expression coverage over assignment right-hand sides.

    Every Boolean-valued sub-expression of every RHS (procedural and
    continuous) must be observed at 0 and at 1.  Sub-expressions that are
    structurally constant under the design (e.g. a reset literal) still
    count as bins, which is why 100 % is often unreachable — the effect the
    paper points out when motivating output-centric coverage.
    """

    metric_name = "expr"

    def __init__(self, module: Module):
        super().__init__(module)
        self._bins_by_expr: dict[int, list[tuple[int, Expr]]] = {}
        counter = 0
        expressions: list[Expr] = [assign.expr for assign in module.assigns]
        expressions.extend(
            stmt.expr for stmt in module.iter_statements() if isinstance(stmt, Assign)
        )
        for expr in expressions:
            bins = []
            for sub in boolean_subexpressions(expr):
                if not self._is_single_bit(sub):
                    continue
                bins.append((counter, sub))
                self.total_points.add((counter, 0))
                self.total_points.add((counter, 1))
                counter += 1
            if bins:
                self._bins_by_expr[id(expr)] = bins

    def _is_single_bit(self, expr: Expr) -> bool:
        if isinstance(expr, (BitSelect,)):
            return True
        if isinstance(expr, Ref):
            return self.module.width_of(expr.name) == 1
        if isinstance(expr, UnaryOp):
            if expr.op in ("!", "&", "|", "^", "~&", "~|", "~^"):
                return True
            return self._is_single_bit(expr.operand)
        if isinstance(expr, BinaryOp):
            if expr.op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
                return True
            return self._is_single_bit(expr.left) and self._is_single_bit(expr.right)
        if isinstance(expr, Ternary):
            return self._is_single_bit(expr.then) and self._is_single_bit(expr.other)
        return False


# ----------------------------------------------------------------------
class ToggleCoverage(CoverageCollector):
    """Toggle coverage: every bit of every signal rises and falls.

    The clock is excluded (it toggles by construction); the reset input is
    included, matching commercial tools, which is one reason full toggle
    coverage is rarely reached by functional stimulus alone.
    """

    metric_name = "toggle"

    def __init__(self, module: Module, include_reset: bool = True):
        super().__init__(module)
        skip = {module.clock}
        if not include_reset:
            skip.add(module.reset)
        self._tracked = [name for name in module.signals if name not in skip]
        for name in self._tracked:
            for bit in range(module.width_of(name)):
                self.total_points.add((name, bit, "rise"))
                self.total_points.add((name, bit, "fall"))


# ----------------------------------------------------------------------
class FsmCoverage(CoverageCollector):
    """FSM state coverage for designated state registers.

    State registers are either passed explicitly or auto-detected as the
    subjects of ``case`` statements inside sequential processes.  The state
    encodings are taken from the case labels (plus the register's reset
    value); visiting each declared state is one coverage point.  Observed
    transitions are recorded for reporting but do not enter the percentage
    (their true total is not statically known).
    """

    metric_name = "fsm"

    def __init__(self, module: Module, state_signals: Sequence[str] | None = None):
        super().__init__(module)
        self.state_signals = list(state_signals) if state_signals else self._detect_state_signals()
        self._states: dict[str, set[int]] = {}
        for name in self.state_signals:
            states = self._declared_states(name)
            self._states[name] = states
            for state in states:
                self.total_points.add((name, state))
        self.transitions: dict[str, set[tuple[int, int]]] = {name: set() for name in self.state_signals}

    def _detect_state_signals(self) -> list[str]:
        signals: list[str] = []
        registers = set(self.module.state_names)
        for process in self.module.processes:
            if process.kind is not ProcessKind.SEQUENTIAL:
                continue
            for stmt in process.iter_statements():
                if isinstance(stmt, Case) and isinstance(stmt.subject, Ref):
                    name = stmt.subject.name
                    if name in registers and name not in signals:
                        signals.append(name)
        return signals

    def _declared_states(self, name: str) -> set[int]:
        states: set[int] = {self.module.signal(name).reset_value}
        for stmt in self.module.iter_statements():
            if isinstance(stmt, Case) and isinstance(stmt.subject, Ref) \
                    and stmt.subject.name == name:
                for item in stmt.items:
                    states.update(item.labels)
            if isinstance(stmt, Assign) and stmt.target == name \
                    and isinstance(stmt.expr, Const):
                states.add(stmt.expr.value)
        return states

    def observed_transition_count(self) -> int:
        return sum(len(edges) for edges in self.transitions.values())


# ----------------------------------------------------------------------
def default_collectors(module: Module,
                       fsm_signals: Sequence[str] | None = None) -> list[CoverageCollector]:
    """The standard set of collectors used by the comparison experiments."""
    collectors: list[CoverageCollector] = [
        StatementCoverage(module),
        BranchCoverage(module),
        ConditionCoverage(module),
        ExpressionCoverage(module),
        ToggleCoverage(module),
    ]
    fsm = FsmCoverage(module, fsm_signals)
    if fsm.total_points:
        collectors.append(fsm)
    return collectors
