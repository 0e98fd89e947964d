"""SAT-based bounded model checking and simple induction.

The engine unrolls the design from reset for a configurable number of
cycles and asks the CDCL solver for an input sequence that makes the
candidate assertion's antecedent hold while its consequent fails at some
window position.  A satisfying assignment is translated back into a
counterexample input sequence.

For *proving* assertions the engine uses a one-step inductive argument:
if no assignment of an arbitrary (not necessarily reachable) starting
state and window inputs violates the assertion, it certainly holds on all
reachable states.  When the inductive check is inconclusive (the only
violations start from unreachable states) and no bounded counterexample
exists, the result is *unknown*.  :class:`repro.formal.checker.FormalVerifier`
reports that verdict as is (no engine falls back to another), and the
refinement loop treats it conservatively: not proven, no counterexample.
The ``k-induction`` and ``tiered`` engines are the ones that prove such
assertions unbounded.

Every check runs on the assertion's cone-of-influence slice
(:class:`~repro.ir.netlist.OptimizedDesign`): the unrolling, the Tseitin
encoding and the solver context only ever see the registers and inputs
the assertion's signals transitively depend on, with registers the IR
fold proved stuck at reset read as constants from reset.

Each (from-reset or free-initial-state, slice) pair owns one persistent
:class:`~repro.boolean.incremental.IncrementalSolver`.  The unrolled
design is extended monotonically and its hash-consed bit functions are
Tseitin-encoded exactly once; each (assertion, window) violation is
guarded by a fresh activation literal, solved under ``assumptions=[act]``
and retired with the unit ``¬act``, so learned clauses and variable
activities carry across the whole candidate batch.

Counterexamples are **canonical**: when a violation query is
satisfiable, the engine does not report whatever model the CDCL search
happened to land on (which depends on learned clauses, saved phases and
variable activities, i.e. on solver history).  It binds the free input
bits to the lexicographically smallest satisfying assignment —
cycle-major, then input declaration order, preferring 0 — via
assumption-based minimisation solves.  The reported counterexample is
therefore a pure function of (design, assertion, bound): identical
whatever queries the engine answered before, identical whichever worker
of a parallel pool answers the query (:mod:`repro.formal.parallel`), and
stable enough to be served from a cross-run proof cache
(:mod:`repro.formal.proofcache`).
"""

from __future__ import annotations

import time
from typing import Mapping

from repro.assertions.assertion import Assertion, Literal
from repro.analysis.unroll import Unroller, bit_variable
from repro.boolean.cnf import CnfBuilder
from repro.boolean.expr import BoolExpr, support_of
from repro.boolean.incremental import IncrementalSolver, ReuseCounters
from repro.boolean.sat import SatBudgetExceeded, SatSolver
from repro.formal.result import (
    CheckResult,
    Counterexample,
    false_result,
    timeout_result,
    true_result,
    unknown_result,
)
from repro.hdl.module import Module
from repro.hdl.synth import synthesize
from repro.ir import OptimizedDesign


def _evaluate(expr: BoolExpr, assignment: Mapping[str, bool]) -> bool:
    """Evaluate a hash-consed expression under a total assignment.

    Iterative post-order with per-call memoisation keyed by node identity:
    the built-in recursive ``BoolExpr.evaluate`` revisits shared subgraphs
    (exponential on unrolled designs) and overflows the recursion limit on
    deep ones.  Variables absent from ``assignment`` read as 0 — callers
    pass the full input support of the expression, so this only applies
    to don't-cares.
    """
    from repro.boolean.expr import BAnd, BConst, BIte, BNot, BOr, BVar, BXor

    memo: dict[BoolExpr, bool] = {}
    stack = [expr]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        if isinstance(node, BConst):
            memo[node] = node.value
            stack.pop()
            continue
        if isinstance(node, BVar):
            memo[node] = bool(assignment.get(node.name, False))
            stack.pop()
            continue
        children = node.children()
        unresolved = [child for child in children if child not in memo]
        if unresolved:
            stack.extend(unresolved)
            continue
        stack.pop()
        if isinstance(node, BNot):
            memo[node] = not memo[node.operand]
        elif isinstance(node, BAnd):
            memo[node] = all(memo[operand] for operand in node.operands)
        elif isinstance(node, BOr):
            memo[node] = any(memo[operand] for operand in node.operands)
        elif isinstance(node, BXor):
            memo[node] = memo[node.left] != memo[node.right]
        elif isinstance(node, BIte):
            memo[node] = memo[node.then] if memo[node.cond] else memo[node.other]
        else:  # pragma: no cover - future node types
            memo[node] = node.evaluate(assignment)
    return memo[expr]


def _shift(assertion: Assertion, offset: int) -> Assertion:
    """Shift every cycle reference of ``assertion`` by ``offset`` cycles."""
    if offset == 0:
        return assertion
    antecedent = tuple(
        Literal(lit.signal, lit.value, lit.cycle + offset, lit.bit)
        for lit in assertion.antecedent
    )
    consequent = Literal(
        assertion.consequent.signal,
        assertion.consequent.value,
        assertion.consequent.cycle + offset,
        assertion.consequent.bit,
    )
    return Assertion(antecedent, consequent, assertion.window + offset, assertion.name)


class BmcModelChecker:
    """Bounded model checking + one-step induction on the in-house SAT solver."""

    name = "bmc"

    def __init__(self, module: Module, bound: int = 10, use_induction: bool = True,
                 max_learned: int = 4000,
                 query_timeout: float | None = None):
        self.module = module
        self.bound = bound
        self.use_induction = use_induction
        self._max_learned = max_learned
        #: Wall-clock budget per :meth:`check` call; ``None`` disables the
        #: deadline entirely (no interrupt callback is even installed).
        self.query_timeout = query_timeout
        #: Monotonic-clock instant the current check must finish by.
        self._deadline: float | None = None
        self._timeout_counters: dict[str, int] = {}
        self._synth = synthesize(module)
        #: IR pipeline (:mod:`repro.ir`): per-assertion COI slicing plus
        #: reset-constant register folding.
        self._opt = OptimizedDesign(self._synth)
        #: Slice key (sorted signal tuple) of the assertion being checked.
        self._active_slice: tuple[str, ...] = ()
        #: Slice key -> persistent unroller of that slice.
        self._unrollers: dict[tuple[str, ...], Unroller] = {}
        #: ``(from_reset, slice key)`` -> persistent solver context.
        #: Per-slice contexts are where COI reduction pays at the solver:
        #: each query's clause database holds only its cone's encoding
        #: instead of the union of every cone seen so far.
        self._contexts: dict[tuple[bool, tuple[str, ...]],
                             IncrementalSolver] = {}
        #: Expression node -> frozenset of variable names, for the canonical
        #: counterexample extraction.  Keyed by node identity (hash-consing
        #: makes that structural); unrolled bit functions are shared across
        #: queries, so the walk is amortised over the engine's lifetime.
        self._support_memo: dict[BoolExpr, frozenset[str]] = {}

    # ------------------------------------------------------------------
    @property
    def _unroller(self) -> Unroller:
        """The persistent unroller of the active slice (lazily built)."""
        unroller = self._unrollers.get(self._active_slice)
        if unroller is None:
            unroller = Unroller(
                self.module, self._synth, slice_signals=self._active_slice,
                constant_registers=self._opt.constant_registers)
            self._unrollers[self._active_slice] = unroller
        return unroller

    def _activate_slice(self, assertion: Assertion) -> None:
        """Select the COI slice for ``assertion``."""
        signals = {literal.signal for literal in assertion.antecedent}
        signals.add(assertion.consequent.signal)
        self._active_slice = self._opt.slice_for(signals)

    def _slice_registers(self) -> list[str]:
        """Registers of the active slice."""
        return self._opt.slice_registers(self._active_slice)

    def _context(self, from_reset: bool) -> IncrementalSolver:
        key = (from_reset, self._active_slice)
        context = self._contexts.get(key)
        if context is None:
            context = IncrementalSolver(max_learned=self._max_learned)
            self._arm(context.solver)
            self._contexts[key] = context
        return context

    # ------------------------------------------------------------------
    # per-query wall-clock deadline
    # ------------------------------------------------------------------
    def _arm(self, solver) -> None:
        """Install the deadline interrupt on a solver, when configured.

        The callback reads :attr:`_deadline` on every poll, so one
        installation covers every later check; a check with no deadline
        armed (``_deadline is None``) costs a single attribute load per
        poll.
        """
        if self.query_timeout is not None:
            solver.set_interrupt(self._deadline_expired)

    def _deadline_expired(self) -> bool:
        deadline = self._deadline
        return deadline is not None and time.monotonic() >= deadline

    def _start_deadline(self) -> None:
        if self.query_timeout is not None:
            self._deadline = time.monotonic() + self.query_timeout

    def _clear_deadline(self) -> None:
        self._deadline = None

    def _count_timeout(self, key: str = "query_timeouts") -> None:
        self._timeout_counters[key] = self._timeout_counters.get(key, 0) + 1

    def reuse_stats(self) -> dict[str, int]:
        """Aggregate reuse counters over both persistent contexts.

        Alongside the encoder-reuse counters, the arena solver's own
        lifetime counters are surfaced under ``sat_*`` keys (propagations,
        conflicts, blocker hits, ...).  All values are plain ints so the
        parallel pool's per-worker sum-merge applies to them unchanged.
        """
        merged = ReuseCounters()
        for context in self._contexts.values():
            merged.merge(context.counters)
        stats = merged.to_json()
        stats["solver_clauses"] = sum(
            context.solver.clause_count for context in self._contexts.values())
        stats["encoded_variables"] = sum(
            context.builder.variable_count
            for context in self._contexts.values())
        stats["learned_kept"] = sum(
            context.solver.learned_count for context in self._contexts.values())
        stats["learned_dropped"] = sum(
            context.solver.learned_dropped for context in self._contexts.values())
        for context in self._contexts.values():
            for key, value in context.solver.stats_total().items():
                key = f"sat_{key}"
                stats[key] = stats.get(key, 0) + int(value)
        for key, value in self._timeout_counters.items():
            stats[key] = stats.get(key, 0) + value
        stats["ir_slices"] = len(self._unrollers)
        stats["ir_folded_registers"] = len(self._opt.constant_registers)
        return stats

    # ------------------------------------------------------------------
    def check(self, assertion: Assertion) -> CheckResult:
        start = time.perf_counter()
        self._activate_slice(assertion)
        span = assertion.consequent.cycle + 1
        depth = max(self.bound, span)
        self._start_deadline()
        try:
            falsified = self._bounded_search(assertion, depth)
            if falsified is not None:
                elapsed = time.perf_counter() - start
                return false_result(assertion, falsified, self.name, elapsed, bound=depth)

            if self.use_induction and self._inductive_proof(assertion):
                elapsed = time.perf_counter() - start
                return true_result(assertion, self.name, elapsed, bound=depth,
                                   proof="induction")

            elapsed = time.perf_counter() - start
            return unknown_result(assertion, self.name, elapsed, bound=depth)
        except SatBudgetExceeded:
            self._count_timeout()
            elapsed = time.perf_counter() - start
            return timeout_result(assertion, self.name, elapsed, bound=depth)
        finally:
            self._clear_deadline()

    def check_all(self, assertions: list[Assertion]) -> list[CheckResult]:
        """Check a batch of candidates against one warm solver context.

        Every check after the first re-uses the already-encoded
        unrolling, the learned clauses and the decision heuristics'
        state, so the amortised cost per assertion drops sharply — this
        is the entry point the refinement loop's batch verification goes
        through.
        """
        return [self.check(assertion) for assertion in assertions]

    # ------------------------------------------------------------------
    def _bounded_search(self, assertion: Assertion, depth: int) -> Counterexample | None:
        """Look for a violation with the window starting anywhere below ``depth``."""
        span = assertion.consequent.cycle + 1
        design = self._unroller.unroll(depth, from_reset=True)
        for window_start in range(depth - span + 2):
            counterexample = self._window_violation(design, assertion, window_start)
            if counterexample is not None:
                return counterexample
        return None

    def _window_violation(self, design, assertion: Assertion,
                          window_start: int) -> Counterexample | None:
        """One from-reset violation query: window anchored at ``window_start``.

        The violation expression only references cycles up to
        ``window_start + span - 1``, and the canonical counterexample is
        truncated to the cycles the window needs, so the outcome — verdict
        and witness alike — is independent of how deep ``design`` happens
        to be unrolled.  The k-induction engine relies on this to extend
        the base case window by window on the same persistent context.
        """
        span = assertion.consequent.cycle + 1
        shifted = _shift(assertion, window_start)
        violation = design.assertion_violation(shifted)
        needed = window_start + span
        context = self._context(True)
        result, activation = context.solve_query(violation)
        model = None
        if result.satisfiable:
            model = self._canonical_model(
                context.builder, context.solver, design, needed,
                shifted, violation, result.model, [activation])
        context.retire(activation)
        if model is not None:
            vectors = design.model_to_vectors(model)
            return Counterexample(
                input_vectors=tuple(vectors[:max(needed, 1)]),
                window_start=window_start,
                assertion=assertion,
            )
        return None

    # ------------------------------------------------------------------
    # canonical counterexample extraction
    # ------------------------------------------------------------------
    def _canonical_model(self, builder: CnfBuilder, solver: SatSolver, design,
                         needed_cycles: int, shifted: Assertion,
                         violation: BoolExpr, witness: Mapping[int, bool],
                         assumptions: list[int]) -> dict[str, bool]:
        """Lexicographically minimal satisfying input assignment.

        The target is the smallest assignment of the violation's free
        input bits (cycle-major, input declaration order, 0 < 1) that
        still satisfies the query.  Two phases keep this cheap:

        1. *Guess.*  Every satisfying assignment pins the input bits the
           (shifted) antecedent literals name; the global minimum is
           therefore "forced bits at their forced values, everything else
           0" whenever that is satisfiable — one assumption solve decides
           it, and on miner-shaped candidates it almost always is (or is
           the witness itself, which costs nothing to confirm).
        2. *Greedy walk* (fallback).  Keep the witness as the running
           upper bound; 0-bits are fixed for free, each 1-bit costs one
           assumption solve that either flips it (yielding a strictly
           smaller witness for the rest) or proves the 1 necessary.

        Bits outside the violation's support are never touched — they
        decode to 0, the value minimisation would pick.  The result
        depends only on the query's formula — not on learned clauses,
        phases, activities or which witness the search happened to find
        first — which is the property the parallel dispatcher and the
        proof cache rely on.
        """
        support = support_of(violation, self._support_memo)
        ordered: list[tuple[str, int]] = []
        for cycle in range(needed_cycles):
            for name in design.input_bit_names.get(cycle, ()):
                if name in support:
                    variable = builder.lookup(name)
                    if variable is not None:
                        ordered.append((name, variable))
        if not ordered:
            return {}
        fixed = list(assumptions)
        values = [bool(witness.get(variable, False)) for _, variable in ordered]

        forced = self._forced_input_bits(shifted)
        guess = [forced.get(name, False) for name, _ in ordered]
        if guess == values:
            return dict(zip((name for name, _ in ordered), values))
        # From reset the violation is a pure function of its input bits
        # (cycle-0 registers are constants), and ``ordered`` covers its
        # whole input support — so the guess is decided by direct DAG
        # evaluation, no solver involved.
        assignment = {name: value for (name, _), value in zip(ordered, guess)}
        if _evaluate(violation, assignment):
            return assignment

        names = [name for name, _ in ordered]
        for index, (name, variable) in enumerate(ordered):
            if not values[index]:
                fixed.append(-variable)
                continue
            # Try to zero this bit by *evaluating* two cheap completions of
            # the suffix — the guess tail (mostly zeros), then the current
            # witness tail — before paying a warm solver call; only a bit
            # whose 1 is genuinely necessary needs the solver's refutation.
            flipped = None
            for tail in (guess, values):
                candidate = dict(zip(names[:index], values[:index]))
                candidate[name] = False
                candidate.update(zip(names[index + 1:], tail[index + 1:]))
                if _evaluate(violation, candidate):
                    flipped = candidate
                    break
            if flipped is not None:
                values[index] = False
                for later in range(index + 1, len(ordered)):
                    values[later] = flipped[names[later]]
                fixed.append(-variable)
                continue
            trial = solver.solve(assumptions=fixed + [-variable])
            if trial.satisfiable:
                values[index] = False
                for later in range(index + 1, len(ordered)):
                    values[later] = bool(trial.model.get(ordered[later][1], False))
                fixed.append(-variable)
            else:
                fixed.append(variable)
        return dict(zip(names, values))

    def _forced_input_bits(self, shifted: Assertion) -> dict[str, bool]:
        """Input-bit values every model of the violation must agree on:
        the (shifted) antecedent literals over primary data inputs."""
        forced: dict[str, bool] = {}
        inputs = set(self.module.data_input_names)
        for literal in shifted.antecedent:
            if literal.signal not in inputs:
                continue
            if literal.bit is not None:
                forced[bit_variable(literal.signal, literal.bit, literal.cycle)] = \
                    bool(literal.value)
            else:
                for bit in range(self.module.width_of(literal.signal)):
                    forced[bit_variable(literal.signal, bit, literal.cycle)] = \
                        bool((literal.value >> bit) & 1)
        return forced

    def _inductive_proof(self, assertion: Assertion) -> bool:
        """True when no arbitrary-state violation exists (sound, incomplete)."""
        span = assertion.consequent.cycle + 1
        design = self._unroller.unroll(span - 1 if span > 1 else 0, from_reset=False)
        # The consequent may live one cycle past the antecedent window for
        # sequential targets, so make sure that cycle exists in the unrolling.
        if (assertion.consequent.signal, assertion.consequent.cycle) not in design.bits:
            design = self._unroller.unroll(assertion.consequent.cycle, from_reset=False)
        violation = design.assertion_violation(assertion)
        context = self._context(False)
        result, activation = context.solve_query(violation)
        context.retire(activation)
        return not result.satisfiable
