"""Stuck-at fault injection by design mutation.

"The internal design signal is selected to mutate and all generated
assertions are then formally checked on the mutated design model"
(Section 7.4).  A stuck-at fault pins a signal to 0 or 1:

* for an internal signal the driving expression(s) are replaced by the
  constant, so the signal itself and everything downstream observes the
  stuck value;
* for a primary input every reader observes the constant instead of the
  port (the port itself cannot be re-driven).

The mutation produces a fresh :class:`~repro.hdl.module.Module`; the golden
design is never modified (it may be the shared, read-only module of its
source text).  Every rewritten statement keeps the id of the statement it
replaces, so a mutant's statement and branch cover points are the
original's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.hdl.ast import Const, Expr, Ref
from repro.hdl.module import AlwaysBlock, Module, SignalKind
from repro.hdl.stmt import Assign, Block, Case, CaseItem, If, Statement


@dataclass(frozen=True)
class StuckAtFault:
    """A single stuck-at fault site."""

    signal: str
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError("stuck-at faults pin a signal to 0 or 1")

    @property
    def label(self) -> str:
        return f"{self.signal} stuck-at-{self.value}"


# ----------------------------------------------------------------------
# statement rewriting helpers
# ----------------------------------------------------------------------
def _substitute_stmt(stmt: Statement, mapping: Mapping[str, Expr]) -> Statement:
    if isinstance(stmt, Assign):
        return Assign(stmt.target, stmt.expr.substitute(mapping), stmt.blocking, stmt.stmt_id)
    if isinstance(stmt, Block):
        return Block([_substitute_stmt(child, mapping) for child in stmt.statements],
                     stmt.stmt_id)
    if isinstance(stmt, If):
        otherwise = _substitute_stmt(stmt.otherwise, mapping) if stmt.otherwise else None
        return If(stmt.cond.substitute(mapping), _substitute_stmt(stmt.then, mapping), otherwise,
                  stmt.stmt_id)
    if isinstance(stmt, Case):
        items = [CaseItem(item.labels, _substitute_stmt(item.body, mapping)) for item in stmt.items]
        default = _substitute_stmt(stmt.default, mapping) if stmt.default else None
        return Case(stmt.subject.substitute(mapping), items, default, stmt.stmt_id)
    raise TypeError(f"unsupported statement {type(stmt).__name__}")


def _force_assignments(stmt: Statement, target: str, constant: Const) -> Statement:
    if isinstance(stmt, Assign):
        expr = constant if stmt.target == target else stmt.expr
        return Assign(stmt.target, expr, stmt.blocking, stmt.stmt_id)
    if isinstance(stmt, Block):
        return Block([_force_assignments(child, target, constant) for child in stmt.statements],
                     stmt.stmt_id)
    if isinstance(stmt, If):
        otherwise = _force_assignments(stmt.otherwise, target, constant) if stmt.otherwise else None
        return If(stmt.cond, _force_assignments(stmt.then, target, constant), otherwise,
                  stmt.stmt_id)
    if isinstance(stmt, Case):
        items = [CaseItem(item.labels, _force_assignments(item.body, target, constant))
                 for item in stmt.items]
        default = _force_assignments(stmt.default, target, constant) if stmt.default else None
        return Case(stmt.subject, items, default, stmt.stmt_id)
    raise TypeError(f"unsupported statement {type(stmt).__name__}")


def _copy_module(module: Module) -> Module:
    copy = Module(module.name + "_mutant")
    copy.signals = dict(module.signals)
    copy.ports = list(module.ports)
    copy.clock = module.clock
    copy.reset = module.reset
    return copy


# ----------------------------------------------------------------------
def inject_fault(module: Module, fault: StuckAtFault) -> Module:
    """Return a mutated copy of ``module`` with ``fault`` injected."""
    if not module.has_signal(fault.signal):
        raise KeyError(f"signal '{fault.signal}' does not exist in module '{module.name}'")
    signal = module.signal(fault.signal)
    width = signal.width
    constant = Const(0 if fault.value == 0 else (1 << width) - 1, width)
    mutant = _copy_module(module)

    if signal.kind is SignalKind.INPUT:
        # Readers observe the constant instead of the port.
        mapping = {fault.signal: constant}
        for assign in module.assigns:
            mutant.add_assign(assign.target, assign.expr.substitute(mapping))
        for process in module.processes:
            body = _substitute_stmt(process.body, mapping)
            mutant.add_process(AlwaysBlock(process.kind, body, process.clock))
    else:
        # The signal's drivers are pinned to the constant.
        for assign in module.assigns:
            if assign.target == fault.signal:
                mutant.add_assign(assign.target, constant)
            else:
                mutant.add_assign(assign.target, assign.expr)
        for process in module.processes:
            if fault.signal in process.assigned_signals():
                body = _force_assignments(process.body, fault.signal, constant)
            else:
                body = process.body
            mutant.add_process(AlwaysBlock(process.kind, body, process.clock))
        if fault.signal in mutant.signals:
            # The stuck register should also wake up at the stuck value so the
            # fault is visible from the very first cycle.
            original = mutant.signals[fault.signal]
            mutant.signals[fault.signal] = type(original)(
                original.name, original.width, original.kind, constant.value
            )

    mutant.validate()
    return mutant


def enumerate_faults(module: Module, signals: Iterable[str] | None = None) -> list[StuckAtFault]:
    """Stuck-at-0/1 faults for the given signals (default: all non-clock signals)."""
    if signals is None:
        skip = {module.clock, module.reset}
        signals = [name for name in module.signals if name not in skip]
    faults: list[StuckAtFault] = []
    for name in signals:
        faults.append(StuckAtFault(name, 0))
        faults.append(StuckAtFault(name, 1))
    return faults
