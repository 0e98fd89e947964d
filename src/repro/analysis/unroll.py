"""Time-unrolling of a design into per-cycle Boolean bit functions.

The SAT-based bounded model checker and the BDD engine both work on an
unrolled view of the design: every signal bit at every cycle offset is a
Boolean function of

* the primary-input bits at cycles ``0 .. k`` (free variables), and
* the register bits at cycle ``0`` (constants when unrolling from reset,
  free variables when reasoning about an arbitrary starting state, as the
  inductive engine does).

Variable naming follows ``signal[bit]@cycle`` so models translate directly
back into per-cycle input vectors for counterexample replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.assertions.assertion import Assertion, Literal
from repro.boolean.bitblast import BitBlaster
from repro.boolean.expr import FALSE, TRUE, BoolExpr, and_, iff, not_, var
from repro.hdl.module import Module
from repro.hdl.synth import SynthesizedModule, synthesize


def bit_variable(signal: str, bit: int, cycle: int) -> str:
    """Canonical Boolean-variable name of one signal bit at one cycle."""
    return f"{signal}[{bit}]@{cycle}"


@dataclass
class UnrolledDesign:
    """Result of :meth:`Unroller.unroll`: bit functions for every time point."""

    module: Module
    last_cycle: int
    from_reset: bool
    #: ``(signal, cycle) -> LSB-first bit functions``.
    bits: dict[tuple[str, int], list[BoolExpr]] = field(default_factory=dict)
    #: Names of the free input-bit variables, per cycle.
    input_bit_names: dict[int, list[str]] = field(default_factory=dict)
    #: Names of the free initial-state bit variables (empty when from reset).
    state_bit_names: list[str] = field(default_factory=list)
    #: ``(signal, value, cycle, bit) ->`` :meth:`literal_expr`, shared like
    #: ``bits`` by every view of one unrolling.
    literals: dict[tuple[str, int, int, int | None], BoolExpr] = field(
        default_factory=dict)

    # ------------------------------------------------------------------
    def view(self, last_cycle: int) -> "UnrolledDesign":
        """A shallow view of this unrolling truncated to ``last_cycle``.

        The bit-function table is shared (the same interned ``BoolExpr``
        objects, which is what lets a persistent CNF encoder reuse work
        across queries of different depths); only the per-cycle metadata is
        filtered, to what a fresh unrolling of ``last_cycle`` would hold.
        Always returns a new wrapper — the caller's ``last_cycle`` must not
        change when the backing unrolling is later extended.
        """
        if last_cycle > self.last_cycle:
            raise ValueError(
                f"cannot view cycle {last_cycle} of an unrolling that stops "
                f"at {self.last_cycle}"
            )
        return UnrolledDesign(
            self.module, last_cycle, self.from_reset,
            bits=self.bits,
            input_bit_names={cycle: names
                             for cycle, names in self.input_bit_names.items()
                             if cycle <= last_cycle},
            state_bit_names=self.state_bit_names,
            literals=self.literals,
        )

    def signal_bits(self, name: str, cycle: int) -> list[BoolExpr]:
        try:
            return self.bits[(name, cycle)]
        except KeyError as exc:
            raise KeyError(
                f"signal '{name}' at cycle {cycle} is not part of the unrolling "
                f"(last cycle {self.last_cycle})"
            ) from exc

    def literal_expr(self, literal: Literal) -> BoolExpr:
        """Boolean function stating that ``literal`` holds on the unrolling.

        Memoised per ``(signal, value, cycle, bit)``: a cycle's bit
        functions never change once built, so every view of the unrolling
        shares one entry.
        """
        key = (literal.signal, literal.value, literal.cycle, literal.bit)
        expr = self.literals.get(key)
        if expr is not None:
            return expr
        bits = self.signal_bits(literal.signal, literal.cycle)
        if literal.bit is not None:
            bit = bits[literal.bit] if literal.bit < len(bits) else FALSE
            expr = bit if literal.value else not_(bit)
        else:
            expr = and_(*[bit if (literal.value >> index) & 1 else not_(bit)
                          for index, bit in enumerate(bits)])
        self.literals[key] = expr
        return expr

    def assertion_expr(self, assertion: Assertion) -> BoolExpr:
        """The assertion (antecedent -> consequent) as a Boolean function."""
        antecedent = and_(*[self.literal_expr(lit) for lit in assertion.antecedent])
        consequent = self.literal_expr(assertion.consequent)
        return not_(and_(antecedent, not_(consequent)))

    def assertion_violation(self, assertion: Assertion) -> BoolExpr:
        """The violation condition: antecedent holds but consequent fails."""
        antecedent = and_(*[self.literal_expr(lit) for lit in assertion.antecedent])
        consequent = self.literal_expr(assertion.consequent)
        return and_(antecedent, not_(consequent))

    # ------------------------------------------------------------------
    def model_to_vectors(self, model: Mapping[str, bool],
                         cycles: int) -> list[dict[str, int]]:
        """Decode the input vectors of cycles ``0 .. cycles-1`` from a
        satisfying assignment; an input bit absent from it reads 0."""
        vectors: list[dict[str, int]] = []
        inputs = self.module.data_input_names
        for cycle in range(cycles):
            vector: dict[str, int] = {}
            for name in inputs:
                width = self.module.width_of(name)
                value = 0
                for bit in range(width):
                    if model.get(bit_variable(name, bit, cycle), False):
                        value |= 1 << bit
                vector[name] = value
            if self.module.reset is not None:
                vector[self.module.reset] = 0
            vectors.append(vector)
        return vectors


class Unroller:
    """Unrolls a module's synthesized functions over a bounded window.

    The reset input is held low at every cycle.  The unroller keeps one
    master :class:`UnrolledDesign` per ``from_reset`` flag and extends it
    monotonically: asking for a depth already covered is a dictionary
    lookup, asking for a deeper one only builds the missing cycles.
    Callers receive a truncated :meth:`UnrolledDesign.view` when they ask
    for less than the master's depth, so results are indistinguishable
    from a fresh unrolling — except that the bit functions are the *same*
    interned objects across calls, which downstream encoders exploit.
    """

    def __init__(self, module: Module, synth: SynthesizedModule | None = None,
                 slice_signals: Iterable[str] | None = None,
                 constant_registers: Mapping[str, int] | None = None):
        self.module = module
        self.synth = synth or synthesize(module)
        #: COI slice (from :meth:`repro.ir.netlist.OptimizedDesign.slice_for`):
        #: only these signals are built.  The slice must be closed under
        #: bit-level use-def reachability — signals outside it are read as
        #: constant zero by the blaster fallback, which is only correct when
        #: nothing in the slice's cone actually depends on them.
        self.slice_signals = (frozenset(slice_signals)
                              if slice_signals is not None else None)
        #: Registers the IR constant-folding pass proved stuck at their
        #: reset values.  Applied in the *from-reset* unrolling only: their
        #: bits become constants at every cycle instead of blasted
        #: next-state functions.  The free-initial-state unrolling keeps
        #: them as ordinary registers (an arbitrary state need not respect
        #: the fold's induction-from-reset argument).
        self.constant_registers = dict(constant_registers or {})
        if self.slice_signals is None:
            self._registers = list(self.synth.registers)
            self._comb_order = list(self.synth.comb_order)
        else:
            self._registers = [name for name in self.synth.registers
                               if name in self.slice_signals]
            self._comb_order = [name for name in self.synth.comb_order
                                if name in self.slice_signals]
        self._cache: dict[bool, UnrolledDesign] = {}

    # ------------------------------------------------------------------
    def unroll(self, last_cycle: int, from_reset: bool = True) -> UnrolledDesign:
        """Build bit functions for every signal at cycles ``0 .. last_cycle``."""
        master = self._cache.get(from_reset)
        if master is None:
            master = UnrolledDesign(self.module, -1, from_reset)
            self._cache[from_reset] = master
        if master.last_cycle < last_cycle:
            self._extend(master, last_cycle)
        return master.view(last_cycle)

    def _extend(self, design: UnrolledDesign, last_cycle: int) -> None:
        """Grow ``design`` in place to cover cycles up to ``last_cycle``."""
        from_reset = design.from_reset
        module = self.module
        skip_inputs = {module.clock}

        for cycle in range(design.last_cycle + 1, last_cycle + 1):
            # 1. Primary inputs: free variables (reset optionally forced low).
            cycle_input_bits: list[str] = []
            for name in module.input_names:
                if name in skip_inputs:
                    continue
                if self.slice_signals is not None and name not in self.slice_signals:
                    continue
                width = module.width_of(name)
                if name == module.reset:
                    design.bits[(name, cycle)] = [FALSE] * width
                    continue
                variables = [var(bit_variable(name, bit, cycle)) for bit in range(width)]
                design.bits[(name, cycle)] = list(variables)
                cycle_input_bits.extend(bit_variable(name, bit, cycle) for bit in range(width))
            design.input_bit_names[cycle] = cycle_input_bits

            # 2. Registers: reset constants / free variables at cycle 0,
            #    next-state functions of the previous cycle afterwards.
            # One blaster serves every register of the cycle so next-state
            # expressions sharing HDL subtrees blast them once.
            previous_blaster = (self._blaster_for_cycle(design, cycle - 1)
                                if cycle > 0 else None)
            for name in self._registers:
                width = module.width_of(name)
                if from_reset and name in self.constant_registers:
                    value = self.constant_registers[name]
                    design.bits[(name, cycle)] = [
                        TRUE if (value >> bit) & 1 else FALSE for bit in range(width)
                    ]
                    continue
                if cycle == 0:
                    if from_reset:
                        reset_value = module.signal(name).reset_value
                        design.bits[(name, 0)] = [
                            TRUE if (reset_value >> bit) & 1 else FALSE for bit in range(width)
                        ]
                    else:
                        design.bits[(name, 0)] = [
                            var(bit_variable(name, bit, 0)) for bit in range(width)
                        ]
                        design.state_bit_names.extend(
                            bit_variable(name, bit, 0) for bit in range(width)
                        )
                else:
                    expr = self.synth.next_state[name]
                    design.bits[(name, cycle)] = previous_blaster.blast(expr, width)

            # 3. Combinational signals in dependency order.
            blaster = self._blaster_for_cycle(design, cycle)
            for name in self._comb_order:
                width = module.width_of(name)
                design.bits[(name, cycle)] = blaster.blast(self.synth.comb[name], width)

        design.last_cycle = max(design.last_cycle, last_cycle)

    # ------------------------------------------------------------------
    def _blaster_for_cycle(self, design: UnrolledDesign, cycle: int) -> BitBlaster:
        module = self.module

        def signal_bits(name: str) -> list[BoolExpr]:
            if (name, cycle) in design.bits:
                return design.bits[(name, cycle)]
            # Undriven non-port wires default to constant zero.
            return [FALSE] * module.width_of(name)

        return BitBlaster(module.width_of, signal_bits)
