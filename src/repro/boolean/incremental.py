"""Persistent CNF context: one encoder + one solver across many queries.

:class:`IncrementalSolver` pairs a long-lived :class:`CnfBuilder` with a
long-lived :class:`SatSolver` and exposes the assumption-based query
protocol the incremental BMC engine is built on:

* *Permanent* facts (``assert_expr``) are asserted once and hold for every
  later query.
* *Queries* (``solve_query``) encode a goal expression, guard it behind a
  fresh activation literal ``act`` with the single clause ``act → goal``
  and solve under ``assumptions=[act]``.  Because Tseitin clauses are
  definitional (they only constrain auxiliary variables to equal their
  subformula), the accumulated encodings of past queries can never change
  the verdict of a new one; the activation literal is the only assertive
  part, and :meth:`retire` turns it off permanently with the unit clause
  ``¬act``.

Hash-consed expressions make the builder's memo table structural: a
subformula shared between two queries — two candidate assertions over the
same unrolled design, or the same assertion at two window offsets — is
encoded exactly once, and the solver keeps its clauses, learned clauses,
variable activities and saved phases warm across the whole sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.boolean.cnf import CnfBuilder
from repro.boolean.expr import BoolExpr
from repro.boolean.sat import SatBudgetExceeded, SatResult, SatSolver


@dataclass
class ReuseCounters:
    """How much work the persistent context saved, over its lifetime."""

    queries: int = 0
    #: Solver clauses already present when a query started (re-used
    #: encodings + carried learned clauses), summed over queries.
    clauses_reused: int = 0
    #: Learned clauses alive at the start of a query, summed over queries.
    learned_carried: int = 0
    #: Tseitin encode calls answered from the builder's memo table.
    encode_cache_hits: int = 0
    encode_calls: int = 0

    def to_json(self) -> dict[str, int]:
        return {
            "queries": self.queries,
            "clauses_reused": self.clauses_reused,
            "learned_carried": self.learned_carried,
            "encode_cache_hits": self.encode_cache_hits,
            "encode_calls": self.encode_calls,
        }

    def merge(self, other: "ReuseCounters") -> None:
        self.queries += other.queries
        self.clauses_reused += other.clauses_reused
        self.learned_carried += other.learned_carried
        self.encode_cache_hits += other.encode_cache_hits
        self.encode_calls += other.encode_calls


class IncrementalSolver:
    """A :class:`CnfBuilder`/:class:`SatSolver` pair that outlives queries."""

    def __init__(self, max_learned: int = 4000):
        self.builder = CnfBuilder()
        self.solver = SatSolver(max_learned=max_learned)
        self.counters = ReuseCounters()
        self._flushed = 0

    # ------------------------------------------------------------------
    def _flush(self) -> None:
        """Feed clauses the builder produced since the last flush."""
        clauses = self.builder.clauses
        for index in range(self._flushed, len(clauses)):
            self.solver.add_clause(clauses[index])
        self._flushed = len(clauses)

    # ------------------------------------------------------------------
    def assert_expr(self, expr: BoolExpr) -> None:
        """Permanently constrain ``expr`` to hold in every later query."""
        self.builder.assert_expr(expr)

    def solve_query(self, goal: BoolExpr,
                    assumptions: tuple[int, ...] = ()) -> tuple[SatResult, int]:
        """Solve for ``goal`` under a fresh activation literal.

        ``assumptions`` are extra literals assumed for this query only —
        typically guards from :meth:`guard_expr`, which lets a set of
        strengthening constraints (e.g. k-induction's simple-path
        uniqueness clauses) be encoded once and switched on per query
        without ever becoming permanent.

        Returns the solver result and the activation literal; pass the
        literal to :meth:`retire` once the query's outcome has been
        consumed (whether or not it was satisfiable).
        """
        hits_before = self.builder.encode_cache_hits
        calls_before = self.builder.encode_calls
        goal_literal = self.builder.encode(goal)
        activation = self.builder.fresh()
        self.builder.add_clause((-activation, goal_literal))
        self.counters.queries += 1
        self.counters.clauses_reused += self._flushed
        self.counters.learned_carried += self.solver.learned_count
        self.counters.encode_cache_hits += self.builder.encode_cache_hits - hits_before
        self.counters.encode_calls += self.builder.encode_calls - calls_before
        self._flush()
        try:
            result = self.solver.solve(assumptions=[activation, *assumptions])
        except SatBudgetExceeded:
            # Deadline expired mid-query: retire the activation literal so
            # the context stays clean for the queries that follow, then let
            # the engine translate the interrupt into a timed-out UNKNOWN.
            self.retire(activation)
            raise
        return result, activation

    def guard_expr(self, expr: BoolExpr) -> int:
        """Encode ``expr`` behind a reusable guard literal.

        Adds the single clause ``guard → expr`` and returns ``guard``
        without asserting it: pass the literal in ``solve_query``'s
        ``assumptions`` to enable the constraint for that query only.
        Unlike :meth:`solve_query`'s activation literal, a guard is never
        retired — the same literal can switch the constraint on across
        arbitrarily many later queries.
        """
        guard_literal = self.builder.encode(expr)
        guard = self.builder.fresh()
        self.builder.add_clause((-guard, guard_literal))
        self._flush()
        return guard

    def retire(self, activation: int) -> None:
        """Permanently deactivate a query's guard (unit ``¬activation``)."""
        self.builder.add_clause((-activation,))
        self._flush()

    # ------------------------------------------------------------------
    def decode_model(self, result: SatResult) -> dict[str, bool]:
        return self.builder.decode_model(result.model)
