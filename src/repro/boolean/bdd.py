"""Reduced Ordered Binary Decision Diagrams.

A small but complete BDD package: hash-consed nodes, memoised ``ite``,
Boolean connectives, cofactoring, existential quantification, variable
substitution (rename), satisfying-assignment extraction and model
counting.  It backs the symbolic-reachability formal engine and the
ablation study comparing formal back ends.

Nodes are integers: ``0`` and ``1`` are the terminals, larger integers
index into the manager's node table.  Every node is a triple
``(level, low, high)`` where ``level`` is the variable's position in the
global ordering, ``low`` is the cofactor for the variable = 0 and ``high``
for the variable = 1.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.boolean.expr import (
    BAnd,
    BConst,
    BIte,
    BNot,
    BOr,
    BVar,
    BXor,
    BoolExpr,
)


class BDD:
    """A BDD manager with a fixed-on-first-use variable ordering."""

    ZERO = 0
    ONE = 1

    def __init__(self, variable_order: Sequence[str] = ()):
        # node id -> (level, low, high); ids 0/1 are terminals.
        self._nodes: list[tuple[int, int, int] | None] = [None, None]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        self._var_levels: dict[str, int] = {}
        self._level_vars: list[str] = []
        for name in variable_order:
            self.declare(name)

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def declare(self, name: str) -> int:
        """Declare variable ``name`` (idempotent) and return its node."""
        if name not in self._var_levels:
            self._var_levels[name] = len(self._level_vars)
            self._level_vars.append(name)
        return self.var(name)

    def var(self, name: str) -> int:
        """Return the BDD for variable ``name`` (declaring it if needed)."""
        if name not in self._var_levels:
            self.declare(name)
        level = self._var_levels[name]
        return self._make(level, self.ZERO, self.ONE)

    @property
    def variables(self) -> list[str]:
        return list(self._level_vars)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------
    def _make(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._nodes)
            self._nodes.append(key)
            self._unique[key] = node
        return node

    def _level(self, node: int) -> int:
        if node in (self.ZERO, self.ONE):
            return len(self._level_vars)  # terminals sort after all variables
        return self._nodes[node][0]

    def _cofactors(self, node: int, level: int) -> tuple[int, int]:
        if node in (self.ZERO, self.ONE):
            return node, node
        node_level, low, high = self._nodes[node]
        if node_level == level:
            return low, high
        return node, node

    # ------------------------------------------------------------------
    # core operation: if-then-else
    # ------------------------------------------------------------------
    def ite(self, cond: int, then: int, other: int) -> int:
        if cond == self.ONE:
            return then
        if cond == self.ZERO:
            return other
        if then == other:
            return then
        if then == self.ONE and other == self.ZERO:
            return cond
        key = (cond, then, other)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        level = min(self._level(cond), self._level(then), self._level(other))
        cond_low, cond_high = self._cofactors(cond, level)
        then_low, then_high = self._cofactors(then, level)
        other_low, other_high = self._cofactors(other, level)
        low = self.ite(cond_low, then_low, other_low)
        high = self.ite(cond_high, then_high, other_high)
        result = self._make(level, low, high)
        self._ite_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------
    def not_(self, node: int) -> int:
        return self.ite(node, self.ZERO, self.ONE)

    def and_(self, *nodes: int) -> int:
        result = self.ONE
        for node in nodes:
            result = self.ite(result, node, self.ZERO)
        return result

    def or_(self, *nodes: int) -> int:
        result = self.ZERO
        for node in nodes:
            result = self.ite(result, self.ONE, node)
        return result

    def xor_(self, left: int, right: int) -> int:
        return self.ite(left, self.not_(right), right)

    def implies(self, left: int, right: int) -> int:
        return self.ite(left, right, self.ONE)

    def iff(self, left: int, right: int) -> int:
        return self.ite(left, right, self.not_(right))

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------
    def restrict(self, node: int, assignment: Mapping[str, bool]) -> int:
        """Cofactor ``node`` with respect to a partial variable assignment."""
        levels = {self._var_levels[name]: value for name, value in assignment.items()
                  if name in self._var_levels}
        cache: dict[int, int] = {}

        def walk(current: int) -> int:
            if current in (self.ZERO, self.ONE):
                return current
            if current in cache:
                return cache[current]
            level, low, high = self._nodes[current]
            if level in levels:
                result = walk(high if levels[level] else low)
            else:
                result = self._make(level, walk(low), walk(high))
            cache[current] = result
            return result

        return walk(node)

    def exists(self, names: Iterable[str], node: int) -> int:
        """Existentially quantify the given variables out of ``node``."""
        levels = {self._var_levels[name] for name in names if name in self._var_levels}
        if not levels:
            return node
        cache: dict[int, int] = {}

        def walk(current: int) -> int:
            if current in (self.ZERO, self.ONE):
                return current
            if current in cache:
                return cache[current]
            level, low, high = self._nodes[current]
            new_low = walk(low)
            new_high = walk(high)
            if level in levels:
                result = self.or_(new_low, new_high)
            else:
                result = self._make(level, new_low, new_high)
            cache[current] = result
            return result

        return walk(node)

    def rename(self, node: int, mapping: Mapping[str, str]) -> int:
        """Substitute variables per ``mapping`` (must preserve ordering levels).

        Implemented via compose-with-variable so it is correct even when the
        substituted variables are not adjacent in the order.
        """
        result = node
        # Substituting one variable at a time with ite keeps this simple and
        # correct; renames in this code base are small (state <-> next-state).
        for old, new in mapping.items():
            if old not in self._var_levels:
                continue
            new_var = self.var(new)
            high = self.restrict(result, {old: True})
            low = self.restrict(result, {old: False})
            result = self.ite(new_var, high, low)
        return result

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def evaluate(self, node: int, assignment: Mapping[str, bool]) -> bool:
        current = node
        while current not in (self.ZERO, self.ONE):
            level, low, high = self._nodes[current]
            name = self._level_vars[level]
            current = high if assignment.get(name, False) else low
        return current == self.ONE

    def is_tautology(self, node: int) -> bool:
        return node == self.ONE

    def is_contradiction(self, node: int) -> bool:
        return node == self.ZERO

    def pick_assignment(self, node: int) -> dict[str, bool] | None:
        """Return one satisfying assignment of ``node`` (or None)."""
        if node == self.ZERO:
            return None
        assignment: dict[str, bool] = {}
        current = node
        while current != self.ONE:
            level, low, high = self._nodes[current]
            name = self._level_vars[level]
            if high != self.ZERO:
                assignment[name] = True
                current = high
            else:
                assignment[name] = False
                current = low
        return assignment

    def count_solutions(self, node: int, variable_count: int | None = None) -> int:
        """Count satisfying assignments over ``variable_count`` variables."""
        total_vars = variable_count if variable_count is not None else len(self._level_vars)
        cache: dict[int, int] = {}

        def walk(current: int) -> int:
            # Returns the count over variables from the current level down,
            # normalised afterwards by the level gap to the root.
            if current == self.ZERO:
                return 0
            if current == self.ONE:
                return 1
            if current in cache:
                return cache[current]
            level, low, high = self._nodes[current]
            low_count = walk(low) * (1 << (self._level(low) - level - 1))
            high_count = walk(high) * (1 << (self._level(high) - level - 1))
            result = low_count + high_count
            cache[current] = result
            return result

        if node in (self.ZERO, self.ONE):
            return 0 if node == self.ZERO else (1 << total_vars)
        root_level = self._level(node)
        count = walk(node) * (1 << root_level)
        extra = total_vars - len(self._level_vars)
        if extra > 0:
            count <<= extra
        return count

    def support(self, node: int) -> set[str]:
        """Return the variables the function actually depends on."""
        result: set[str] = set()
        seen: set[int] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current in (self.ZERO, self.ONE) or current in seen:
                continue
            seen.add(current)
            level, low, high = self._nodes[current]
            result.add(self._level_vars[level])
            stack.append(low)
            stack.append(high)
        return result

    # ------------------------------------------------------------------
    # conversion from Boolean expressions
    # ------------------------------------------------------------------
    def from_expr(self, expr: BoolExpr) -> int:
        """Build the BDD of a :class:`~repro.boolean.expr.BoolExpr`."""
        if isinstance(expr, BConst):
            return self.ONE if expr.value else self.ZERO
        if isinstance(expr, BVar):
            return self.var(expr.name)
        if isinstance(expr, BNot):
            return self.not_(self.from_expr(expr.operand))
        if isinstance(expr, BAnd):
            return self.and_(*(self.from_expr(op) for op in expr.operands))
        if isinstance(expr, BOr):
            return self.or_(*(self.from_expr(op) for op in expr.operands))
        if isinstance(expr, BXor):
            return self.xor_(self.from_expr(expr.left), self.from_expr(expr.right))
        if isinstance(expr, BIte):
            return self.ite(
                self.from_expr(expr.cond),
                self.from_expr(expr.then),
                self.from_expr(expr.other),
            )
        raise TypeError(f"cannot convert {type(expr).__name__} to a BDD")
