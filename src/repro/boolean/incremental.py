"""Persistent CNF context: one encoder + one solver across many queries.

:class:`IncrementalSolver` pairs a long-lived :class:`CnfBuilder` with a
long-lived :class:`SatSolver` and exposes the assumption-based query
protocol the incremental BMC engine is built on:

* *Permanent* facts (``assert_expr``) are asserted once and hold for every
  later query.
* *Queries* (``solve_query``) encode, then assume the goal's literals:
  each conjunct of a top-level AND (or the goal itself) is Tseitin-encoded
  and the solve runs under ``assumptions=[*literals]``.  Tseitin clauses
  are definitional (they only constrain auxiliary variables to equal their
  subformula), so a query adds no assertive clause at all: the encodings
  of past queries can never change the verdict of a new one, and nothing
  needs retiring afterwards — not even after an interrupted solve.  No
  top-level AND variable is encoded either, so no dead query cone is
  re-derived by every later solve.

Hash-consed expressions make the builder's memo table structural: a
subformula shared between two queries — two candidate assertions over the
same unrolled design, or the same assertion at two window offsets — is
encoded exactly once, and the solver keeps its clauses, learned clauses,
variable activities and saved phases warm across the whole sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.boolean.cnf import CnfBuilder
from repro.boolean.expr import BAnd, BoolExpr
from repro.boolean.sat import SatResult, SatSolver


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

    def __init__(self):
        self.builder = CnfBuilder()
        self.solver = SatSolver()
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

    def solve_query(self, goal: BoolExpr, assumptions: tuple[int, ...] = ()
                    ) -> tuple[SatResult, list[int]]:
        """Solve for ``goal`` by assuming its encoded conjunct literals.

        ``assumptions`` are extra literals assumed for this query only —
        typically guards from :meth:`guard_expr`, which lets a set of
        strengthening constraints (e.g. k-induction's simple-path
        uniqueness clauses) be encoded once and switched on per query
        without ever becoming permanent.

        Returns the solver result and the goal's literals; assume them
        again (e.g. as the fixed prefix of follow-up solves) to stay
        inside the query.
        """
        hits_before = self.builder.encode_cache_hits
        calls_before = self.builder.encode_calls
        conjuncts = goal.operands if isinstance(goal, BAnd) else (goal,)
        literals = [self.builder.encode(conjunct) for conjunct in conjuncts]
        self.counters.queries += 1
        self.counters.clauses_reused += self._flushed
        self.counters.learned_carried += self.solver.learned_count
        self.counters.encode_cache_hits += self.builder.encode_cache_hits - hits_before
        self.counters.encode_calls += self.builder.encode_calls - calls_before
        self._flush()
        result = self.solver.solve(assumptions=[*literals, *assumptions])
        return result, literals

    def guard_expr(self, expr: BoolExpr) -> int:
        """Encode ``expr`` and return its literal as a reusable guard.

        The literal is not asserted: pass it in ``solve_query``'s
        ``assumptions`` to enable the constraint for that query only.  The
        Tseitin encoding makes the literal equivalent to ``expr``, so the
        same literal switches the constraint on across arbitrarily many
        later queries.
        """
        guard = self.builder.encode(expr)
        self._flush()
        return guard

    # ------------------------------------------------------------------
    def decode_model(self, result: SatResult) -> dict[str, bool]:
        return self.builder.decode_model(result.model)
