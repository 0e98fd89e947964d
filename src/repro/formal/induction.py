"""k-induction on the persistent incremental contexts, plus a tiered portfolio.

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
  BMC reports.
* **Inductive step** — there is no path ``s_0 .. s_{k+s-1}`` from an
  *arbitrary* (not necessarily reachable) starting state on which ``A``
  holds at window offsets ``0 .. k-1`` yet is violated at offset ``k``.
  The step runs on the second long-lived context (the free-initial-state
  unrolling the one-step induction already uses), guarded by a fresh
  activation literal per query.

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
pairwise-distinctness constraints are encoded **once per cycle pair**
behind reusable guard literals (:meth:`IncrementalSolver.guard_expr`) and
switched on per query as extra assumptions, so escalating k and checking
many candidates on one warm context never re-encodes them.  A design
with no registers makes every distinctness disjunction ``FALSE`` —
correctly so: with no state there are no distinct-state paths of length
≥ 1, every behaviour is covered by the base case, and the step at
``k ≥ 1`` is vacuously unsatisfiable.

:class:`TieredModelChecker` is the portfolio the refinement loop wants:
run the full bounded search first (BMC is the falsification tier — every
miner-shaped candidate that is wrong is wrong early), then escalate the
induction depth for proof.  Its verdicts — and counterexamples — are
identical to :class:`KInductionModelChecker`'s; only the query order
differs, which is invisible because verdicts are semantic and witnesses
are canonical.
"""

from __future__ import annotations

import time

from repro.assertions.assertion import Assertion
from repro.boolean.expr import and_, or_, xor_
from repro.boolean.sat import SatBudgetExceeded
from repro.formal.bmc import BmcModelChecker, _shift
from repro.formal.result import (
    CheckResult,
    false_result,
    timeout_result,
    true_result,
    unknown_result,
)
from repro.hdl.module import Module


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
    """Strengthened k-induction interleaved with the bounded search.

    Iterates ``k = 0 .. induction_k``: extend the from-reset base case to
    window start ``k-1``, then try the simple-path inductive step at depth
    ``k``.  Returns FALSE with the canonical counterexample the moment a
    base window is violated (ascending window starts — the same earliest
    witness plain BMC reports), TRUE with ``proof_strength="unbounded"``
    when a step query is unsatisfiable, and otherwise finishes the bounded
    search to the configured bound before conceding UNKNOWN
    (``proof_strength="bounded"``).

    The base case is itself a bounded search whose depth grows with k, so
    when ``induction_k + span - 1`` exceeds ``bound`` the engine examines
    window starts plain BMC never reaches and may falsify assertions BMC
    reports UNKNOWN on.  That is a strict (and sound — every witness is
    canonical and replays) improvement: FALSE(bmc) ⊆ FALSE(k-induction),
    with byte-identical counterexamples wherever both falsify.
    """

    name = "k-induction"
    #: Subclass hook: run the whole bounded search before any step query.
    _bmc_first = False

    def __init__(self, module: Module, bound: int = 10, induction_k: int = 8,
                 max_learned: int = 4000,
                 query_timeout: float | None = None):
        super().__init__(module, bound=bound, use_induction=True,
                         max_learned=max_learned, query_timeout=query_timeout)
        self.induction_k = induction_k
        #: ``(slice key, i, j)`` -> guard literal in that slice's step
        #: context.  The distinctness constraints range over the slice's
        #: registers only — sound because the sliced
        #: transition system is an exact abstraction for cone properties
        #: (cone bits' next-states read only cone bits and inputs, and
        #: every reachable full state projects to a reachable slice state),
        #: and strictly smaller: fewer register bits per cycle pair.
        self._distinct_guards: dict[tuple[tuple[str, ...], int, int], int] = {}
        self._induction_counters = {
            "induction_step_queries": 0,
            "induction_proofs": 0,
            "induction_base_windows": 0,
            "induction_guards_encoded": 0,
        }

    # ------------------------------------------------------------------
    def reuse_stats(self) -> dict[str, int]:
        stats = super().reuse_stats()
        # Plain additive ints, so the worker pool's sum-merge applies.
        stats.update(self._induction_counters)
        return stats

    # ------------------------------------------------------------------
    def check(self, assertion: Assertion) -> CheckResult:
        start = time.perf_counter()
        self._activate_slice(assertion)
        span = assertion.consequent.cycle + 1
        depth = max(self.bound, span)
        #: Window starts the plain bounded search would scan: [0, base_limit).
        base_limit = depth - span + 2
        state = _BaseScan(self, assertion, span)
        self._start_deadline()
        #: Degradation ladder: a timed-out inductive step abandons the
        #: proof tier but keeps the bounded falsification search running
        #: on the remaining budget (k-induction -> BMC before giving up).
        degraded = False
        try:
            if self._bmc_first:
                counterexample = state.extend(base_limit)
                if counterexample is not None:
                    return false_result(assertion, counterexample, self.name,
                                        time.perf_counter() - start, bound=depth)

            for k in range(self.induction_k + 1):
                # A proof at depth k is only sound once base windows 0..k-1
                # are verified, so the base scan is extended eagerly first.
                counterexample = state.extend(k)
                if counterexample is not None:
                    return false_result(assertion, counterexample, self.name,
                                        time.perf_counter() - start, bound=depth)
                if degraded:
                    continue
                try:
                    step_holds = self._step_holds(assertion, k)
                except SatBudgetExceeded:
                    self._count_timeout("induction_step_timeouts")
                    degraded = True
                    continue
                if step_holds:
                    self._induction_counters["induction_proofs"] += 1
                    return true_result(assertion, self.name,
                                       time.perf_counter() - start,
                                       bound=depth, proof="k-induction",
                                       induction_k=k)

            counterexample = state.extend(base_limit)
            if counterexample is not None:
                return false_result(assertion, counterexample, self.name,
                                    time.perf_counter() - start, bound=depth)
            if degraded:
                # The proof tier timed out but the bounded search finished:
                # report BMC's survived-the-search answer, marked timed-out
                # so it is never cached as a k-induction verdict (a later
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

    # ------------------------------------------------------------------
    def _step_holds(self, assertion: Assertion, k: int) -> bool:
        """UNSAT check of the simple-path inductive step at depth ``k``."""
        max_cycle = max([assertion.consequent.cycle]
                        + [lit.cycle for lit in assertion.antecedent])
        design = self._unroller.unroll(max(k + max_cycle, k), from_reset=False)
        hypothesis = [design.assertion_expr(_shift(assertion, t)) for t in range(k)]
        violation = design.assertion_violation(_shift(assertion, k))
        goal = and_(*hypothesis, violation)
        self._induction_counters["induction_step_queries"] += 1
        context = self._context(False)
        guards = tuple(self._distinct_guard(design, i, j)
                       for i in range(k + 1) for j in range(i + 1, k + 1))
        result, activation = context.solve_query(goal, assumptions=guards)
        context.retire(activation)
        return not result.satisfiable

    def _distinct_guard(self, design, i: int, j: int) -> int:
        """Guard literal enabling ``state(i) != state(j)`` in the step context."""
        key = (self._active_slice, i, j)
        guard = self._distinct_guards.get(key)
        if guard is None:
            context = self._context(False)
            guard = context.guard_expr(
                state_distinct_expr(design, self._slice_registers(), i, j))
            self._distinct_guards[key] = guard
            self._induction_counters["induction_guards_encoded"] += 1
        return guard


class _BaseScan:
    """Ascending from-reset window scan, shared by base case and tail search."""

    def __init__(self, engine: KInductionModelChecker, assertion: Assertion,
                 span: int):
        self._engine = engine
        self._assertion = assertion
        self._span = span
        self._next_start = 0

    def extend(self, target: int):
        """Verify window starts up to ``target`` (exclusive); first witness wins."""
        engine = self._engine
        while self._next_start < target:
            start = self._next_start
            design = engine._unroller.unroll(
                max(engine.bound, start + self._span - 1), from_reset=True)
            self._next_start += 1
            engine._induction_counters["induction_base_windows"] += 1
            counterexample = engine._window_violation(design, self._assertion, start)
            if counterexample is not None:
                return counterexample
        return None


class TieredModelChecker(KInductionModelChecker):
    """Falsification tier first (full BMC scan), then induction for proof.

    Observationally identical to :class:`KInductionModelChecker` — same
    verdicts, same canonical counterexamples, same minimal proving k —
    but front-loads the bounded search, which is the cheap tier on
    miner-shaped candidate batches where most wrong candidates fail
    within a few cycles of reset.
    """

    name = "tiered"
    _bmc_first = True
