"""Procedural synthesis: one next-value expression per assigned signal.

The simulator executes processes statement-by-statement (which is what
the coverage probes need), but several other subsystems want a purely
functional view of the design:

* cone-of-influence analysis needs the exact support of each driven signal,
* the symbolic engines (SAT/BMC, BDD reachability) need word-level
  transition and output functions to bit-blast,
* the design unroller needs to compose cycle ``t`` functions into cycle
  ``t+1`` expressions.

:func:`synthesize` walks every process symbolically and produces a
:class:`SynthesizedModule` holding, for each driven signal, a single
expression over module signals:

* combinational targets (continuous assigns and ``always @*`` targets) get
  an expression over inputs/registers/other combinational signals,
* sequential targets (registers) get a *next-state* expression evaluated
  at the clock edge over current-cycle values.

Signals that are not assigned on some path keep their previous value,
expressed as a self-reference for registers (hold) and as a latch for
combinational targets (the bundled designs never rely on latches, and
:meth:`SynthesizedModule.check_no_latches` lets callers enforce that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import Mapping

from repro.hdl.ast import BinaryOp, Const, Expr, Ref, Ternary, disjoin
from repro.hdl.errors import ElaborationError
from repro.hdl.module import AlwaysBlock, Module, ProcessKind
from repro.hdl.stmt import Assign, Block, Case, If, Statement


@dataclass
class SynthesizedModule:
    """Functional view of a module produced by :func:`synthesize`."""

    module: Module
    #: Expression for each combinational target, keyed by signal name.
    comb: dict[str, Expr] = field(default_factory=dict)
    #: Next-state expression for each register, keyed by signal name.
    next_state: dict[str, Expr] = field(default_factory=dict)
    #: Combinational targets sorted in dependency (evaluation) order.
    comb_order: list[str] = field(default_factory=list)

    @property
    def registers(self) -> list[str]:
        return sorted(self.next_state)

    @property
    def combinational(self) -> list[str]:
        return list(self.comb_order)

    def expression_for(self, name: str) -> Expr:
        """Return the driving expression of ``name`` (comb or next-state)."""
        if name in self.comb:
            return self.comb[name]
        if name in self.next_state:
            return self.next_state[name]
        raise KeyError(f"signal '{name}' is not driven in module '{self.module.name}'")

    def flattened_comb(self, name: str) -> Expr:
        """Return ``name``'s expression with combinational signals inlined.

        The result only references inputs and registers, which is the form
        the symbolic engines and the logic-cone analysis want.
        """
        if name in self.next_state:
            expr = self.next_state[name]
        elif name in self.comb:
            expr = self.comb[name]
        else:
            return Ref(name)
        return self.inline_combinational(expr)

    def inline_combinational(self, expr: Expr) -> Expr:
        """Inline combinational definitions until only inputs/registers remain."""
        # Iterate in reverse evaluation order so one substitution pass is
        # enough for acyclic combinational networks.
        current = expr
        for _ in range(len(self.comb_order) + 1):
            referenced = current.signals() & set(self.comb)
            if not referenced:
                return current
            current = current.substitute({name: self.comb[name] for name in referenced})
        raise ElaborationError(
            f"combinational loop while inlining expression in module '{self.module.name}'"
        )

    def support_of(self, name: str) -> set[str]:
        """Return the inputs/registers the signal ``name`` depends on (one cycle)."""
        return self.flattened_comb(name).signals()

    def check_no_latches(self) -> None:
        """Raise if any combinational target can hold its previous value."""
        for name, expr in self.comb.items():
            if name in expr.signals():
                raise ElaborationError(
                    f"combinational signal '{name}' depends on itself (inferred latch)"
                )


def synthesize(module: Module) -> SynthesizedModule:
    """Convert ``module``'s processes into per-signal expressions."""
    result = SynthesizedModule(module)

    for assign in module.assigns:
        result.comb[assign.target] = _truncate(module, assign.target, assign.expr)

    for process in module.processes:
        targets = sorted(process.assigned_signals())
        if process.kind is ProcessKind.SEQUENTIAL:
            defaults: dict[str, Expr] = {name: Ref(name) for name in targets}
            final = _walk_block(process.body, defaults, blocking_visible=False)
            for name in targets:
                result.next_state[name] = _truncate(module, name, final[name])
        else:
            defaults = {name: Ref(name) for name in targets}
            final = _walk_block(process.body, defaults, blocking_visible=True)
            for name in targets:
                result.comb[name] = _truncate(module, name, final[name])

    result.comb_order = _order_combinational(module, result.comb)
    return result


class _WidthOnlyContext:
    """Adapter exposing only declared widths to :meth:`Expr.width`."""

    def __init__(self, module: Module):
        self._module = module

    def read(self, name: str) -> int:  # pragma: no cover - never used
        raise ElaborationError("width context cannot read values")

    def width_of(self, name: str) -> int:
        return self._module.width_of(name)


def _truncate(module: Module, target: str, expr: Expr) -> Expr:
    """Mask ``expr`` to ``target``'s declared width when it could be wider.

    The simulator masks every assignment to the target's declared width;
    without the same truncation a synthesized next-state function such as
    ``pc + 1`` (whose unsized literal is 32 bits wide) disagrees with the
    simulator whenever the arithmetic overflows the register.
    """
    width = module.width_of(target)
    if expr.width(_WidthOnlyContext(module)) <= width:
        return expr
    return BinaryOp("&", expr, Const((1 << width) - 1, width))


def _walk_block(block: Block, env: Mapping[str, Expr], blocking_visible: bool) -> dict[str, Expr]:
    """Symbolically execute ``block`` starting from ``env``.

    ``blocking_visible`` controls whether assignments become visible to
    later reads inside the same process (true for blocking assignments in
    combinational processes, false for non-blocking register updates).
    """
    current = dict(env)
    for stmt in block.statements:
        current = _walk_statement(stmt, current, blocking_visible)
    return current


def _walk_statement(stmt: Statement, env: dict[str, Expr], blocking_visible: bool) -> dict[str, Expr]:
    if isinstance(stmt, Block):
        return _walk_block(stmt, env, blocking_visible)
    if isinstance(stmt, Assign):
        updated = dict(env)
        rhs = stmt.expr
        if blocking_visible:
            rhs = rhs.substitute({name: expr for name, expr in env.items()
                                  if not (isinstance(expr, Ref) and expr.name == name)})
        updated[stmt.target] = rhs
        return updated
    if isinstance(stmt, If):
        cond = stmt.cond
        if blocking_visible:
            cond = cond.substitute({name: expr for name, expr in env.items()
                                    if not (isinstance(expr, Ref) and expr.name == name)})
        then_env = _walk_block(stmt.then, env, blocking_visible)
        else_env = _walk_block(stmt.otherwise, env, blocking_visible) if stmt.otherwise else dict(env)
        return _merge(cond, then_env, else_env, env)
    if isinstance(stmt, Case):
        return _walk_case(stmt, env, blocking_visible)
    raise ElaborationError(f"unsupported statement type {type(stmt).__name__}")


def _walk_case(stmt: Case, env: dict[str, Expr], blocking_visible: bool) -> dict[str, Expr]:
    subject = stmt.subject
    if blocking_visible:
        subject = subject.substitute({name: expr for name, expr in env.items()
                                      if not (isinstance(expr, Ref) and expr.name == name)})
    # Desugar into a chain of if/else from the last arm backwards.
    result = _walk_block(stmt.default, env, blocking_visible) if stmt.default else dict(env)
    for item in reversed(stmt.items):
        label_terms = [BinaryOp("==", subject, Const(label, max(label.bit_length(), 1)))
                       for label in item.labels]
        cond = disjoin(label_terms)
        arm_env = _walk_block(item.body, env, blocking_visible)
        result = _merge(cond, arm_env, result, env)
    return result


def _merge(cond: Expr, then_env: Mapping[str, Expr], else_env: Mapping[str, Expr],
           base_env: Mapping[str, Expr]) -> dict[str, Expr]:
    merged: dict[str, Expr] = {}
    for name in base_env:
        then_value = then_env.get(name, base_env[name])
        else_value = else_env.get(name, base_env[name])
        if then_value == else_value:
            merged[name] = then_value
        else:
            merged[name] = Ternary(cond, then_value, else_value)
    return merged


def _order_combinational(module: Module, comb: Mapping[str, Expr]) -> list[str]:
    """Topologically order combinational targets; raise on true cycles."""
    sorter = TopologicalSorter()
    for name in comb:
        sorter.add(name)
    for name, expr in comb.items():
        for dependency in expr.signals():
            if dependency in comb and dependency != name:
                sorter.add(name, dependency)
    try:
        return list(sorter.static_order())
    except CycleError as exc:
        raise ElaborationError(
            f"combinational cycle in module '{module.name}': {' -> '.join(exc.args[1])}"
        ) from exc
