"""BDD-based symbolic model checking.

The third formal back end: symbolic reachability over the design's
transition relation followed by a symbolic check of the assertion's
violation condition, with ring-by-ring counterexample reconstruction so a
failing assertion still yields a concrete input sequence from reset.

Variable naming convention (shared with :mod:`repro.analysis.unroll`):
``sig[bit]@cycle`` for unrolled signals; next-state copies of the state
variables use the ``@next`` suffix.
"""

from __future__ import annotations

import time
from typing import Mapping

from repro.analysis.unroll import Unroller, bit_variable
from repro.assertions.assertion import Assertion
from repro.boolean.bdd import BDD
from repro.formal.result import (
    CheckResult,
    Counterexample,
    false_result,
    true_result,
)
from repro.formal.statespace import latch_free_synthesis
from repro.hdl.module import Module


def _next_variable(signal: str, bit: int) -> str:
    return f"{signal}[{bit}]@next"


class BddModelChecker:
    """Symbolic reachability + violation checking with ROBDDs."""

    name = "bdd"

    def __init__(self, module: Module):
        self.module = module
        self._synth = latch_free_synthesis(module)
        self._unroller = Unroller(module, self._synth)
        self._bdd: BDD | None = None
        self._rings: list[int] = []
        self._reachable: int | None = None
        self._transition: int | None = None
        self._state_bits: list[tuple[str, int]] = [
            (name, bit)
            for name in module.state_names
            for bit in range(module.width_of(name))
        ]
        self._input_bit_names_cycle0: list[str] = []

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------
    def _ensure_reachability(self) -> None:
        if self._reachable is not None:
            return
        module = self.module
        # The cycle-1 register bits of the free-initial-state unrolling
        # are the next-state functions over cycle-0 state and input bits.
        step = self._unroller.unroll(1, from_reset=False)

        # Declare a sensible variable order: current/next state interleaved,
        # then the cycle-0 input bits.
        bdd = BDD()
        for name, bit in self._state_bits:
            bdd.declare(bit_variable(name, bit, 0))
            bdd.declare(_next_variable(name, bit))
        for name in module.data_input_names:
            for bit in range(module.width_of(name)):
                variable = bit_variable(name, bit, 0)
                bdd.declare(variable)
                self._input_bit_names_cycle0.append(variable)

        # Transition relation: /\ (next_bit <-> f_bit(state, inputs)).
        transition = bdd.ONE
        for name in module.state_names:
            for bit_index, function in enumerate(step.signal_bits(name, 1)):
                function_bdd = bdd.from_expr(function)
                next_var = bdd.var(_next_variable(name, bit_index))
                transition = bdd.and_(transition, bdd.iff(next_var, function_bdd))

        # Initial (reset) state.
        initial = bdd.ONE
        for name, bit in self._state_bits:
            value = (self.module.signal(name).reset_value >> bit) & 1
            variable = bdd.var(bit_variable(name, bit, 0))
            initial = bdd.and_(initial, variable if value else bdd.not_(variable))

        # Breadth-first image computation, retaining the onion rings for
        # counterexample reconstruction.
        rename_next_to_current = {
            _next_variable(name, bit): bit_variable(name, bit, 0)
            for name, bit in self._state_bits
        }
        quantified = [bit_variable(name, bit, 0) for name, bit in self._state_bits]
        quantified += self._input_bit_names_cycle0

        reachable = initial
        rings = [initial]
        frontier = initial
        while frontier != bdd.ZERO:
            image = bdd.exists(quantified, bdd.and_(frontier, transition))
            image = bdd.rename(image, rename_next_to_current)
            new_states = bdd.and_(image, bdd.not_(reachable))
            if new_states == bdd.ZERO:
                break
            reachable = bdd.or_(reachable, new_states)
            rings.append(new_states)
            frontier = new_states

        self._bdd = bdd
        self._rings = rings
        self._reachable = reachable
        self._transition = transition

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def check(self, assertion: Assertion) -> CheckResult:
        start = time.perf_counter()
        self._ensure_reachability()
        bdd = self._bdd
        span = assertion.consequent.cycle

        design = self._unroller.unroll(max(span, 0), from_reset=False)
        violation_expr = design.assertion_violation(assertion)
        violation = bdd.from_expr(violation_expr)

        bad = bdd.and_(violation, self._reachable)
        if bad == bdd.ZERO:
            elapsed = time.perf_counter() - start
            return true_result(assertion, self.name, elapsed,
                               bdd_nodes=bdd.node_count)

        counterexample = self._build_counterexample(assertion, design, violation)
        elapsed = time.perf_counter() - start
        return false_result(assertion, counterexample, self.name, elapsed,
                            bdd_nodes=bdd.node_count)

    # ------------------------------------------------------------------
    def _build_counterexample(self, assertion: Assertion, design,
                              violation: int) -> Counterexample:
        bdd = self._bdd
        window_input_vars = [name for names in design.input_bit_names.values() for name in names]

        # States from which the violating window can start.
        bad_states = bdd.exists(window_input_vars, violation)

        # Find the earliest onion ring containing such a state.
        ring_index = None
        for index, ring in enumerate(self._rings):
            if bdd.and_(ring, bad_states) != bdd.ZERO:
                ring_index = index
                break
        if ring_index is None:  # pragma: no cover - guarded by caller
            raise RuntimeError("violating state not found in any reachability ring")

        # Pick a concrete violating state from that ring.
        state_assignment = self._pick_state(bdd.and_(self._rings[ring_index], bad_states))

        # Walk backwards through the rings to the reset state.
        prefix: list[dict[str, int]] = []
        current = state_assignment
        for index in range(ring_index, 0, -1):
            constraint = bdd.ONE
            for (name, bit) in self._state_bits:
                value = current.get((name, bit), 0)
                variable = bdd.var(_next_variable(name, bit))
                constraint = bdd.and_(constraint, variable if value else bdd.not_(variable))
            predecessor_set = bdd.and_(self._rings[index - 1],
                                       bdd.and_(self._transition, constraint))
            assignment = bdd.pick_assignment(predecessor_set)
            if assignment is None:  # pragma: no cover - rings guarantee a predecessor
                raise RuntimeError("failed to reconstruct counterexample path")
            prefix.append(design.model_to_vectors(assignment, 1)[0])
            current = self._state_from_assignment(assignment)
        prefix.reverse()

        # Window inputs: constrain the violation to the chosen start state.
        constraint = bdd.ONE
        for (name, bit), value in state_assignment.items():
            variable = bdd.var(bit_variable(name, bit, 0))
            constraint = bdd.and_(constraint, variable if value else bdd.not_(variable))
        window_assignment = bdd.pick_assignment(bdd.and_(violation, constraint)) or {}
        vectors = prefix + design.model_to_vectors(window_assignment,
                                                   design.last_cycle + 1)
        return Counterexample(
            input_vectors=tuple(vectors),
            window_start=len(prefix),
            assertion=assertion,
            initial_state={name: self._value_of(state_assignment, name)
                           for name in self.module.state_names},
        )

    # ------------------------------------------------------------------
    # assignment decoding helpers
    # ------------------------------------------------------------------
    def _pick_state(self, node: int) -> dict[tuple[str, int], int]:
        assignment = self._bdd.pick_assignment(node) or {}
        return self._state_from_assignment(assignment)

    def _state_from_assignment(self, assignment: Mapping[str, bool]) -> dict[tuple[str, int], int]:
        state: dict[tuple[str, int], int] = {}
        for name, bit in self._state_bits:
            # Current-state value may be encoded on either the @0 or the
            # @next variable depending on which set the assignment constrains.
            current_var = bit_variable(name, bit, 0)
            state[(name, bit)] = 1 if assignment.get(current_var, False) else 0
        return state

    def _value_of(self, state: Mapping[tuple[str, int], int], name: str) -> int:
        value = 0
        for bit in range(self.module.width_of(name)):
            if state.get((name, bit), 0):
                value |= 1 << bit
        return value
