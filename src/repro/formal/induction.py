"""The ``tiered`` engine: k-induction around BMC, with an exact tier.

:class:`KInductionModelChecker` upgrades the BMC engine's one-step
inductive argument to full strengthened k-induction (Sheeran/Singh/
Stålmarck).  For a candidate assertion ``A`` with window *span* ``s``
(``consequent.cycle + 1``) and an induction depth ``k``:

* **Base case** — no violation window starts at cycles ``0 .. k-1`` from
  reset.  These are exactly the BMC engine's from-reset window queries,
  re-used verbatim (:meth:`BmcModelChecker._window_violation`) on the same
  per-design persistent from-reset :class:`IncrementalSolver` context, so
  the base case costs nothing beyond the bounded search the engine runs
  anyway and counterexamples stay canonical — byte-identical to what plain
  BMC reports.  Depth 0 has no base case.
* **Inductive step** — there is no path ``s_0 .. s_{k+s-1}`` from an
  *arbitrary* (not necessarily reachable) starting state on which ``A``
  holds at window offsets ``0 .. k-1`` yet is violated at offset ``k``.
  The step runs on the second long-lived context (the free-initial-state
  unrolling the one-step induction already uses): each query encodes its
  goal's conjuncts, then assumes their literals.

Both UNSAT together prove ``A`` on every reachable state at every cycle:
a hypothetical earliest violation either starts within the first ``k``
cycles (excluded by the base case) or has a ``k``-window prefix of
satisfied instances reachable from reset (excluded by the step).

**Simple-path strengthening.**  The step is additionally constrained to
*loop-free* paths: the register states at cycles ``0 .. k`` are pairwise
distinct.  This is sound by the shortest-counterexample argument — a
shortest reset-to-violation trace never repeats a state (excising the
loop would shorten it), and its length-``(k+s)`` suffix is a step
counterexample, so if no loop-free step counterexample exists none exists
at all.  It is what makes the method complete in practice: properties
that fail plain induction only because unreachable states violate them
become provable once those states cannot be revisited forever.  The
pairwise-distinctness expressions are built **once per slice and cycle
pair**.  A step whose goal, with them conjoined, fits
:data:`~repro.formal.bmc.TRUTH_TABLE_BITS` support variables is decided
by its truth table and never touches the solver.  Only a step that does
reach the solver encodes them, lazily and once per cycle pair, behind
reusable guard literals (:meth:`IncrementalSolver.guard_expr`) switched
on per query as extra assumptions, so escalating k and checking many
candidates on one warm context never re-encodes them.  A design
with no registers makes every distinctness disjunction ``FALSE`` —
correctly so: with no state there are no distinct-state paths of length
≥ 1, every behaviour is covered by the base case, and the step at
``k ≥ 1`` is vacuously unsatisfiable.

The engine is the ``tiered`` SAT engine, the only one
:class:`~repro.formal.checker.FormalVerifier` offers.  Its tiers, in
order:

1. The depth-0 step.  Most candidates that hold are proved there, and a
   proof on every state leaves no from-reset window to scan.
2. The full bounded search.  Every miner-shaped candidate that is wrong
   is wrong early.
3. The depth-1 step.
4. The **exact tier**.  When the depth-1 step fails (and did not time
   out), the module's window table — reachable states ×
   ``|input vectors| ** window`` rows — is weighed against
   :data:`EXACT_TIER_ROWS`.  If it fits, the explicit-state engine
   (:class:`~repro.formal.explicit.ExplicitModelChecker`, built once per
   checker on the same module, so its window tables serve every later
   check) decides the assertion exactly: a TRUE is an unbounded proof
   with ``details["proof"] == "explicit"``, a FALSE carries the explicit
   engine's counterexample.  The properties this catches are the ones
   simple-path induction needs a deep k for, or never proves, and the
   ones whose violations lie past the bound.
5. Otherwise the step escalates from depth 2 to ``induction_k``.

Exploration for the exact tier is capped at
``EXACT_TIER_ROWS // |input vectors| ** window`` states, so a module
over the budget stops exploring at the cap, and the checker remembers
the largest cap it saw exceeded.  Whether the tier runs is therefore a
function of the module and the window alone, and the explicit engine's
verdicts and counterexamples are functions of the assertion alone, so
results stay independent of check order, worker count and the proof
cache.  The tier is not interrupted by ``query_timeout``: its cost is
bounded by the row budget instead.

Depth 0 is plain BMC's one-step induction and the exact tier never runs
there, so ``induction_k=0`` gives :class:`BmcModelChecker`'s verdicts
and counterexamples (Eén & Sörensson's view of BMC as the base case of
one incremental induction procedure); only the order of the queries
differs.

With a ``query_timeout``, step 0 runs under one budget and the bounded
search and the escalation under a fresh one, so a check takes at most
two budgets plus the exact tier.  A timed-out step degrades the check to
BMC: the bounded search still finishes, and what it does not refute
comes back as the degraded UNKNOWN.
"""

from __future__ import annotations

import time

from repro.assertions.assertion import Assertion
from repro.boolean.expr import BoolExpr, or_, xor_
from repro.boolean.sat import SatBudgetExceeded
from repro.formal.bmc import BmcModelChecker
from repro.formal.explicit import RETAINED_ROWS, ExplicitModelChecker
from repro.formal.result import (
    CheckResult,
    FormalEngineError,
    false_result,
    timeout_result,
    true_result,
    unknown_result,
)
from repro.hdl.module import Module

#: Window-table rows (reachable states × input sequences of the window)
#: up to which a check the depth-1 step cannot prove goes to the explicit
#: engine.  Equal to the explicit engine's retained-rows budget, so a
#: table that fits is built once and kept for every later check.
EXACT_TIER_ROWS = RETAINED_ROWS


def state_distinct_expr(design, registers, i: int, j: int):
    """``state(i) != state(j)`` over an unrolled design's register bits.

    ``FALSE`` when the design has no registers: two empty states are never
    distinct, which is exactly the semantics simple-path strengthening
    needs (see the module docstring).
    """
    terms = []
    for name in registers:
        for bit_i, bit_j in zip(design.bits[(name, i)], design.bits[(name, j)]):
            terms.append(xor_(bit_i, bit_j))
    return or_(*terms)


class KInductionModelChecker(BmcModelChecker):
    """Strengthened k-induction around :class:`BmcModelChecker`'s search,
    with the explicit engine as an exact tier.

    Tries the inductive step at depth 0, then runs the bounded search,
    then the simple-path step at depth 1, then the exact tier (for a
    module whose window table fits :data:`EXACT_TIER_ROWS`), then the step
    at ``k = 2 .. induction_k``.  Returns TRUE with
    ``proof_strength="unbounded"`` when a step query is unsatisfiable (at
    depth 0 without any from-reset query) or the exact tier proves the
    assertion, FALSE with the canonical counterexample the moment a
    from-reset window is violated (ascending window starts — the same
    earliest witness plain BMC reports) or with the explicit engine's
    counterexample when the exact tier refutes it, and otherwise UNKNOWN
    (``proof_strength="bounded"``).  Step 0 holding means no state
    violates the assertion, so it never hides a refutation.  The worst
    case under ``query_timeout`` is two budgets (one for step 0, a fresh
    one for the rest) plus the exact tier, which the row budget bounds.

    A proof at depth k is sound only once base windows ``0 .. k-1`` hold
    from reset, so once k passes the bounded search's last window start
    the engine scans window ``k-1`` before the step.  When
    ``induction_k + span - 1`` exceeds ``bound`` it therefore examines
    window starts plain BMC never reaches and may falsify assertions BMC
    reports UNKNOWN on.  The exact tier falsifies violations at any
    depth.  Both are strict (and sound — every witness replays)
    improvements: FALSE(bmc) ⊆ FALSE(tiered), with byte-identical
    counterexamples wherever both falsify, since the exact tier only runs
    after the bounded search found nothing.
    """

    name = "tiered"

    def __init__(self, module: Module, bound: int = 10, induction_k: int = 8,
                 query_timeout: float | None = None):
        super().__init__(module, bound=bound, query_timeout=query_timeout)
        self.induction_k = induction_k
        #: ``(slice key, i, j)`` -> ``state(i) != state(j)`` over the
        #: slice's free-initial-state unrolling.  The distinctness
        #: constraints range over the slice's registers only — sound
        #: because the sliced transition system is an exact abstraction
        #: for cone properties (cone bits' next-states read only cone bits
        #: and inputs, and every reachable full state projects to a
        #: reachable slice state), and strictly smaller: fewer register
        #: bits per cycle pair.
        self._distinct_exprs: dict[tuple[tuple[str, ...], int, int], BoolExpr] = {}
        #: ``(slice key, i, j)`` -> guard literal of that expression in the
        #: slice's step context, encoded once a step reaches the solver.
        self._distinct_guards: dict[tuple[tuple[str, ...], int, int], int] = {}
        self._induction_counters = {
            "induction_step_queries": 0,
            "induction_proofs": 0,
            "exact_tier_checks": 0,
        }
        #: The exact tier's explicit engine, explored in full the first
        #: time a window's table fits the budget.
        self._exact: ExplicitModelChecker | None = None
        #: Largest exploration cap known to be exceeded: the module has
        #: more reachable states than this (0 says nothing).
        self._exact_exceeded = 0

    # ------------------------------------------------------------------
    def reuse_stats(self) -> dict[str, int]:
        stats = super().reuse_stats()
        # Plain additive ints, so the worker pool's sum-merge applies.
        stats.update(self._induction_counters)
        stats["induction_guards_encoded"] = len(self._distinct_guards)
        return stats

    # ------------------------------------------------------------------
    def check(self, assertion: Assertion) -> CheckResult:
        start = time.perf_counter()
        self._activate_slice(assertion)
        span = assertion.consequent.cycle + 1
        depth = max(self.bound, span)
        #: The bounded search scans window starts [0, scanned).
        scanned = depth - span + 2
        self._start_deadline()
        try:
            # Step 0 holding proves the assertion on every state, so no
            # from-reset window can violate it: skip the bounded search.
            holds = self._try_step(assertion, 0)
            if holds:
                return self._proved(assertion, start, depth, 0)
            #: Degradation ladder: a timed-out inductive step abandons the
            #: proof tier but the base-case scan still runs to the end
            #: (k-induction -> BMC before giving up).
            degraded = holds is None
            # A fresh budget, so step 0's cost cannot starve the search.
            self._start_deadline()
            counterexample = self._bounded_search(assertion, depth)
            k = 0
            while counterexample is None and k < self.induction_k:
                k += 1
                if k > scanned:
                    # A proof at depth k is only sound once base windows
                    # 0..k-1 hold, so window k-1 is scanned before the step.
                    design = self._unroller.unroll(max(self.bound, k + span - 2),
                                                   from_reset=True)
                    counterexample = self._window_violation(design, assertion, k - 1)
                    if counterexample is not None:
                        break
                if not degraded:
                    holds = self._try_step(assertion, k)
                    if holds:
                        return self._proved(assertion, start, depth, k)
                    degraded = holds is None
                    if k == 1 and not degraded:
                        exact = self._exact_check(assertion, start, depth)
                        if exact is not None:
                            return exact
            if counterexample is not None:
                return false_result(assertion, counterexample, self.name,
                                    time.perf_counter() - start, bound=depth)
            if degraded:
                # The proof tier timed out but the bounded search finished:
                # report BMC's survived-the-search answer, marked timed-out
                # so it is never cached as a proof-tier verdict (a later
                # run with more budget may still prove the assertion).
                self._count_timeout()
                return unknown_result(assertion, self.name,
                                      time.perf_counter() - start,
                                      timed_out=True, bound=depth,
                                      induction_k=self.induction_k,
                                      degraded="bmc")
            return unknown_result(assertion, self.name, time.perf_counter() - start,
                                  bound=depth, induction_k=self.induction_k)
        except SatBudgetExceeded:
            self._count_timeout()
            return timeout_result(assertion, self.name,
                                  time.perf_counter() - start, bound=depth)
        finally:
            self._clear_deadline()

    def _try_step(self, assertion: Assertion, k: int) -> bool | None:
        """:meth:`_step_holds` at depth ``k``; ``None`` when it timed out."""
        self._induction_counters["induction_step_queries"] += 1
        try:
            return self._step_holds(assertion, k)
        except SatBudgetExceeded:
            self._count_timeout("induction_step_timeouts")
            return None

    def _proved(self, assertion: Assertion, start: float, depth: int,
                k: int) -> CheckResult:
        self._induction_counters["induction_proofs"] += 1
        return true_result(assertion, self.name, time.perf_counter() - start,
                           bound=depth, proof="k-induction", induction_k=k)

    # ------------------------------------------------------------------
    def _exact_check(self, assertion: Assertion, start: float,
                     depth: int) -> CheckResult | None:
        """The exact tier's verdict; ``None`` when the table is over budget."""
        engine = self._exact_engine(assertion.window)
        if engine is None:
            return None
        self._induction_counters["exact_tier_checks"] += 1
        result = engine.check(assertion)
        elapsed = time.perf_counter() - start
        if result.counterexample is not None:
            return false_result(assertion, result.counterexample, self.name,
                                elapsed, bound=depth, refuted_by="explicit")
        return true_result(assertion, self.name, elapsed, bound=depth,
                           proof="explicit")

    def _exact_engine(self, window: int) -> ExplicitModelChecker | None:
        """The explicit engine, if the module's ``window`` table fits
        :data:`EXACT_TIER_ROWS`; exploration stops at the state cap."""
        inputs = 1 << sum(self.module.width_of(name)
                          for name in self.module.data_input_names)
        cap = EXACT_TIER_ROWS // inputs ** window
        engine = self._exact
        if engine is not None:
            return engine if len(engine.state_space.reachable) <= cap else None
        if cap <= self._exact_exceeded:
            return None
        try:
            engine = ExplicitModelChecker(self.module, max_states=cap)
        except FormalEngineError:
            # Too many input vectors to enumerate: over every budget.
            self._exact_exceeded = EXACT_TIER_ROWS
            return None
        try:
            engine.state_space.explore()
        except FormalEngineError:
            self._exact_exceeded = cap
            return None
        self._exact = engine
        return engine

    # ------------------------------------------------------------------
    def _step_constraints(self, design, k: int) -> tuple[BoolExpr, ...]:
        """Simple path: states at cycles ``0 .. k`` pairwise distinct."""
        return tuple(self._distinct_expr(design, i, j)
                     for i in range(k + 1) for j in range(i + 1, k + 1))

    def _step_assumptions(self, design, k: int) -> tuple[int, ...]:
        """Guard literals switching :meth:`_step_constraints` on."""
        return tuple(self._distinct_guard(design, i, j)
                     for i in range(k + 1) for j in range(i + 1, k + 1))

    def _distinct_expr(self, design, i: int, j: int) -> BoolExpr:
        """``state(i) != state(j)`` over the active slice, built once."""
        key = (self._active_slice, i, j)
        expr = self._distinct_exprs.get(key)
        if expr is None:
            expr = state_distinct_expr(design, self._slice_registers(), i, j)
            self._distinct_exprs[key] = expr
        return expr

    def _distinct_guard(self, design, i: int, j: int) -> int:
        """Guard literal enabling ``state(i) != state(j)`` in the step context."""
        key = (self._active_slice, i, j)
        guard = self._distinct_guards.get(key)
        if guard is None:
            guard = self._context(False).guard_expr(self._distinct_expr(design, i, j))
            self._distinct_guards[key] = guard
        return guard
