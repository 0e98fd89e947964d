"""Clause databases and Tseitin transformation of Boolean expressions.

Literals follow the DIMACS convention: variables are positive integers and
a negative literal denotes negation.  :class:`CnfBuilder` assigns solver
variables to named Boolean variables on demand and introduces fresh
auxiliary variables for internal expression nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

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

Clause = tuple[int, ...]


def canonical_clause(literals: Iterable[int]) -> Clause | None:
    """Canonicalise a clause at the solver/arena boundary.

    Duplicate literals collapse (first occurrence wins the position),
    tautologies — a literal together with its negation — return ``None``,
    and literal 0 (the DIMACS terminator, meaningless as a literal) is
    rejected.  The empty clause canonicalises to ``()``; what that means
    (trivial unsatisfiability) is the caller's decision, since
    :class:`CnfBuilder` treats it as an error while the solver records
    it as an unsatisfiable database.

    Every clause enters :class:`repro.boolean.sat.SatSolver` through this
    single function, so watch setup downstream can assume at least two
    distinct, non-complementary literals for any clause of length >= 2.
    """
    if not isinstance(literals, tuple):
        literals = tuple(literals)
    # Hand-rolled paths for the Tseitin-dominant sizes: no set building.
    size = len(literals)
    if size == 2:
        a, b = literals
        if a == 0 or b == 0:
            raise ValueError("literal 0 is not allowed")
        if a == b:
            return (a,)
        if a == -b:
            return None  # tautology
        return literals
    if size == 3:
        a, b, c = literals
        if a == 0 or b == 0 or c == 0:
            raise ValueError("literal 0 is not allowed")
        if a == -b or a == -c or b == -c:
            return None  # tautology
        if a == b:
            return (a,) if b == c else (a, c)
        if a == c or b == c:
            return (a, b)
        return literals
    if size == 1:
        if literals[0] == 0:
            raise ValueError("literal 0 is not allowed")
        return literals
    unique: list[int] = []
    present: set[int] = set()
    for literal in literals:
        if literal == 0:
            raise ValueError("literal 0 is not allowed")
        if -literal in present:
            return None  # tautology
        if literal not in present:
            present.add(literal)
            unique.append(literal)
    return tuple(unique) if len(unique) < size else literals


@dataclass
class CnfBuilder:
    """Accumulates clauses and maps named variables to DIMACS indices.

    A builder may live for many queries: :meth:`encode` memoizes the
    Tseitin literal of every composite node it has seen (keyed by node
    identity, which hash-consing makes structural), so a subexpression
    shared across unrolling cycles or across candidate assertions is
    encoded exactly once.  ``encode_calls``/``encode_cache_hits`` expose
    the reuse rate to the incremental formal layer's statistics.
    """

    clauses: list[Clause] = field(default_factory=list)
    _name_to_var: dict[str, int] = field(default_factory=dict)
    _var_to_name: dict[int, str] = field(default_factory=dict)
    _next_var: int = 1
    #: Composite node -> Tseitin output literal.  Keying by the node itself
    #: (identity hash) pins the expression alive, so the entry can never be
    #: confused with a recycled object id.
    _cache: dict[BoolExpr, int] = field(default_factory=dict)
    _true_asserted: bool = False
    encode_calls: int = 0
    encode_cache_hits: int = 0

    # ------------------------------------------------------------------
    @property
    def variable_count(self) -> int:
        return self._next_var - 1

    @property
    def names(self) -> Mapping[str, int]:
        return dict(self._name_to_var)

    def variable(self, name: str) -> int:
        """Return the solver variable for the named Boolean variable."""
        if name not in self._name_to_var:
            index = self._allocate()
            self._name_to_var[name] = index
            self._var_to_name[index] = name
        return self._name_to_var[name]

    def lookup(self, name: str) -> int | None:
        """The solver variable for ``name`` if it has one, without
        allocating (unlike :meth:`variable`) and without copying the whole
        name table (unlike :attr:`names`)."""
        return self._name_to_var.get(name)

    def fresh(self) -> int:
        """Allocate an anonymous auxiliary variable."""
        return self._allocate()

    def _allocate(self) -> int:
        index = self._next_var
        self._next_var += 1
        return index

    # ------------------------------------------------------------------
    def add_clause(self, literals: Iterable[int]) -> None:
        clause = tuple(literals)
        if not clause:
            raise ValueError("empty clause added (formula is trivially unsatisfiable)")
        self.clauses.append(clause)

    def assert_literal(self, literal: int) -> None:
        self.add_clause((literal,))

    def assert_expr(self, expr: BoolExpr) -> None:
        """Constrain ``expr`` to be true."""
        self.assert_literal(self.encode(expr))

    # ------------------------------------------------------------------
    def encode(self, expr: BoolExpr) -> int:
        """Tseitin-encode ``expr`` and return the literal equal to it."""
        if isinstance(expr, BConst):
            # Encode constants via a dedicated always-true variable.
            true_var = self.variable("__true__")
            if not self._true_asserted:
                self.assert_literal(true_var)
                self._true_asserted = True
            return true_var if expr.value else -true_var
        if isinstance(expr, BVar):
            return self.variable(expr.name)
        if isinstance(expr, BNot):
            return -self.encode(expr.operand)

        self.encode_calls += 1
        cached = self._cache.get(expr)
        if cached is not None:
            self.encode_cache_hits += 1
            return cached

        if isinstance(expr, BAnd):
            literals = [self.encode(op) for op in expr.operands]
            output = self.fresh()
            for literal in literals:
                self.add_clause((-output, literal))
            self.add_clause(tuple(-lit for lit in literals) + (output,))
        elif isinstance(expr, BOr):
            literals = [self.encode(op) for op in expr.operands]
            output = self.fresh()
            for literal in literals:
                self.add_clause((-literal, output))
            self.add_clause(tuple(literals) + (-output,))
        elif isinstance(expr, BXor):
            left = self.encode(expr.left)
            right = self.encode(expr.right)
            output = self.fresh()
            self.add_clause((-output, left, right))
            self.add_clause((-output, -left, -right))
            self.add_clause((output, -left, right))
            self.add_clause((output, left, -right))
        elif isinstance(expr, BIte):
            cond = self.encode(expr.cond)
            then = self.encode(expr.then)
            other = self.encode(expr.other)
            output = self.fresh()
            self.add_clause((-cond, -then, output))
            self.add_clause((-cond, then, -output))
            self.add_clause((cond, -other, output))
            self.add_clause((cond, other, -output))
        else:  # pragma: no cover - exhaustive over node types
            raise TypeError(f"cannot encode expression of type {type(expr).__name__}")

        self._cache[expr] = output
        return output

    # ------------------------------------------------------------------
    def decode_model(self, model: Mapping[int, bool]) -> dict[str, bool]:
        """Translate a solver model back to named variable values."""
        result: dict[str, bool] = {}
        for name, variable in self._name_to_var.items():
            if name == "__true__":
                continue
            result[name] = bool(model.get(variable, False))
        return result
