"""SAT-based bounded model checking and simple induction.

The engine unrolls the design from reset for a configurable number of
cycles and asks the CDCL solver for an input sequence that makes the
candidate assertion's antecedent hold while its consequent fails at some
window position.  A satisfying assignment is translated back into a
counterexample input sequence.

For *proving* assertions the engine uses a one-step inductive argument
(the depth-0 inductive step, :meth:`BmcModelChecker._step_holds`): if no
assignment of an arbitrary (not necessarily reachable) starting state and
window inputs violates the assertion, it certainly holds on all reachable
states.  When the inductive check is inconclusive (the only violations
start from unreachable states) and no bounded counterexample exists, the
result is *unknown*.  The refinement loop treats that conservatively: not
proven, no counterexample.

This class is the plain-BMC baseline the engine ablation and the
induction benchmark construct directly, and it searches before it asks
the step.  The ``tiered`` engine
(:class:`~repro.formal.induction.KInductionModelChecker`) asks the same
depth-0 step first, runs the same bounded search only when the step
fails, and escalates the step to depth ``induction_k``; at
``induction_k=0`` it gives this engine's verdicts and witnesses.

Every check runs on the assertion's cone-of-influence slice
(:class:`~repro.ir.netlist.OptimizedDesign`): the unrolling, the Tseitin
encoding and the solver context only ever see the registers and inputs
the assertion's signals transitively depend on, with registers the IR
fold proved stuck at reset read as constants from reset.

Each (from-reset or free-initial-state, slice) pair owns one persistent
:class:`~repro.boolean.incremental.IncrementalSolver`.  Each slice's
:class:`~repro.analysis.unroll.Unroller` is kept on the module and shared
by every checker of it.  The unrolled design is extended monotonically
and its hash-consed bit functions are Tseitin-encoded exactly once per
context; each (assertion, window) violation query
encodes its conjuncts, then assumes their literals.  A query adds no
assertive clause and leaves nothing to retire, so learned clauses and
variable activities carry across the whole candidate batch, and a batch
checked a second time adds no clause or variable at all.

Counterexamples are **canonical**: when a violation query is
satisfiable, the engine does not report whatever model the CDCL search
happened to land on (which depends on learned clauses, saved phases and
variable activities, i.e. on solver history).  It binds the free input
bits to the lexicographically smallest satisfying assignment —
cycle-major, then input declaration order, preferring 0.  From reset the
violation is a pure function of those bits, so the last
:data:`TRUTH_TABLE_BITS` of them are settled by one bit-parallel
evaluation of its truth table (the lowest satisfying lane); only bits
before those take assumption-based minimisation solves, one per witness
bit of 1.  The reported counterexample is
therefore a pure function of (design, assertion, bound): identical
whatever queries the engine answered before, identical whichever worker
of a parallel pool answers the query (:mod:`repro.formal.parallel`), and
stable enough to be served from a cross-run proof cache
(:mod:`repro.formal.proofcache`).
"""

from __future__ import annotations

import functools
import time
from typing import Mapping

from repro.assertions.assertion import Assertion, Literal
from repro.analysis.unroll import Unroller
from repro.boolean.cnf import CnfBuilder
from repro.boolean.expr import BoolExpr, and_, support_of
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


#: Free input bits a canonical witness settles with one truth-table
#: evaluation (the last ones in the witness order); any bits before them
#: take the solver-backed prefix walk.  ``2**16`` lanes make each DAG
#: node's value an 8 KiB int.
TRUTH_TABLE_BITS = 16


@functools.lru_cache(maxsize=None)
def _lane_patterns(width: int) -> tuple[int, ...]:
    """Truth-table columns of ``width`` variables over ``2**width`` lanes.

    Lane ``L`` assigns the variables the bits of ``L``, first variable
    most significant, so the lowest lane of a truth table is its
    lexicographically least assignment.  Each column is one period
    (zeros, then ones) repeated by doubling shifts.
    """
    lanes = 1 << width
    columns = []
    for bit in range(width - 1, -1, -1):
        block = 1 << bit
        column = ((1 << block) - 1) << block
        period = block << 1
        while period < lanes:
            column |= column << period
            period <<= 1
        columns.append(column)
    return tuple(columns)


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

    def __init__(self, module: Module, bound: int = 10, max_learned: int = 4000,
                 query_timeout: float | None = None):
        self.module = module
        self.bound = bound
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
        """The persistent unroller of the active slice.

        Kept on the module (:meth:`~repro.hdl.module.Module.derived`):
        synthesis, the slice and the fold's constant registers depend on
        the module alone, so every checker of the module extends and
        reads one unrolling per slice.
        """
        key = self._active_slice
        unroller = self._unrollers.get(key)
        if unroller is None:
            unroller = self.module.derived(("unroller", key), lambda: Unroller(
                self.module, self._synth, slice_signals=key,
                constant_registers=self._opt.constant_registers))
            self._unrollers[key] = unroller
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

            if self._step_holds(assertion, 0):
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
        to be unrolled.  The tiered engine relies on this to extend the
        base case window by window on the same persistent context.
        """
        span = assertion.consequent.cycle + 1
        shifted = _shift(assertion, window_start)
        violation = design.assertion_violation(shifted)
        needed = window_start + span
        context = self._context(True)
        result, literals = context.solve_query(violation)
        if result.satisfiable:
            model = self._canonical_model(
                context.builder, context.solver, design, needed,
                violation, result.model, literals)
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
                         needed_cycles: int, violation: BoolExpr,
                         witness: Mapping[int, bool],
                         assumptions: list[int]) -> dict[str, bool]:
        """Lexicographically minimal satisfying input assignment.

        The target is the smallest assignment of the violation's free
        input bits (cycle-major, input declaration order, 0 < 1) that
        still satisfies the query.  From reset the violation is a pure
        function of those bits (cycle-0 registers are constants), so:

        1. *Prefix walk.*  All bits but the last :data:`TRUTH_TABLE_BITS`
           are settled greedily against the solver, keeping the witness as
           the running upper bound: a witness bit of 0 is fixed for free,
           and a 1 costs one assumption solve that either flips it
           (yielding a strictly smaller witness for the rest) or proves
           the 1 necessary.
        2. *Truth table.*  The remaining bits get the standard
           ``2**w``-lane patterns (first bit most significant) and the
           prefix its settled values in every lane; one
           :meth:`~repro.boolean.expr.BoolExpr.evaluate_lanes` pass gives
           the violation's truth table over the tail, whose lowest set bit
           is the lexicographically least tail.

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
        names = [name for name, _ in ordered]
        values = [bool(witness.get(variable, False)) for _, variable in ordered]
        width = min(len(ordered), TRUTH_TABLE_BITS)
        prefix = len(ordered) - width

        fixed = list(assumptions)
        for index in range(prefix):
            variable = ordered[index][1]
            if values[index]:
                trial = solver.solve(assumptions=fixed + [-variable])
                if not trial.satisfiable:
                    fixed.append(variable)
                    continue
                values[index] = False
                for later in range(index + 1, prefix):
                    values[later] = bool(trial.model.get(ordered[later][1], False))
            fixed.append(-variable)

        mask = (1 << (1 << width)) - 1
        lanes = {name: mask if value else 0
                 for name, value in zip(names[:prefix], values[:prefix])}
        lanes.update(zip(names[prefix:], _lane_patterns(width)))
        table = violation.evaluate_lanes(lanes, mask)
        if not table:
            raise RuntimeError(
                "canonical witness: the violation is false on every tail "
                "of its satisfiable prefix")
        lane = (table & -table).bit_length() - 1
        tail = [bool((lane >> shift) & 1) for shift in range(width - 1, -1, -1)]
        return dict(zip(names, values[:prefix] + tail))

    def _step_holds(self, assertion: Assertion, k: int) -> bool:
        """True when the inductive step at depth ``k`` is unsatisfiable.

        That is, no path from an arbitrary (not necessarily reachable)
        starting state satisfies the assertion at window offsets
        ``0 .. k-1`` and violates it at offset ``k`` (sound, incomplete).
        Depth 0 is this engine's one-step induction.  The query runs on
        the free-initial-state context under :meth:`_step_assumptions`.
        """
        max_cycle = max([assertion.consequent.cycle]
                        + [lit.cycle for lit in assertion.antecedent])
        design = self._unroller.unroll(k + max_cycle, from_reset=False)
        hypothesis = [design.assertion_expr(_shift(assertion, t)) for t in range(k)]
        violation = design.assertion_violation(_shift(assertion, k))
        result, _ = self._context(False).solve_query(
            and_(*hypothesis, violation),
            assumptions=self._step_assumptions(design, k))
        return not result.satisfiable

    def _step_assumptions(self, design, k: int) -> tuple[int, ...]:
        """Extra literals the depth-``k`` step assumes: none for plain BMC."""
        return ()
