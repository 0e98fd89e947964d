"""The bit-level netlist and the facade the SAT engine slices through.

A :class:`NetlistIR` is built once per design from the synthesized
word-level view.  Every *driven bit* of the design becomes one
:class:`BitNode`:

* each primary-input bit other than the clock, with no function;
* each register bit, carrying the bit's *next-state* Boolean function
  (over current-cycle bit variables) and its reset constant;
* each combinational-target bit, carrying the bit's Boolean function.

Functions are the hash-consed :class:`~repro.boolean.expr.BoolExpr` DAG
produced by :class:`~repro.boolean.bitblast.BitBlaster` over canonical
per-bit variables (``sig[i]``, :func:`~repro.boolean.bitblast
.default_bit_name`), so logic shared between two bits is one object.
A node's ``operands`` are the support of its function: the bits it
reads, which is all the cone-of-influence walk needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.boolean.bitblast import BitBlaster, default_bit_name
from repro.boolean.expr import BoolExpr, support_of
from repro.hdl.synth import SynthesizedModule
from repro.ir.passes import fold_constants


@dataclass
class BitNode:
    """One driven bit of the design.

    ``function`` is the bit's Boolean function over current-cycle bit
    variables (``None`` for inputs, which are free); for register nodes
    it is the *next-state* function and ``reset`` the bit's value at
    reset.  ``operands`` names the bits the function reads, sorted.
    """

    name: str                      # canonical bit name, e.g. "state[2]"
    signal: str
    function: BoolExpr | None = None
    reset: bool = False
    operands: tuple[str, ...] = ()


class NetlistIR:
    """Bit-level graph of one synthesized module."""

    def __init__(self, synth: SynthesizedModule):
        self.synth = synth
        self.module = module = synth.module
        blaster = BitBlaster(module.width_of)
        #: canonical bit name -> node, in deterministic construction order
        #: (inputs, then registers, then combinational targets in
        #: evaluation order; bits LSB first within a signal).
        self.nodes: dict[str, BitNode] = {}
        support: dict[BoolExpr, frozenset[str]] = {}
        for name in module.input_names:
            if name != module.clock:
                self._add(support, name, [None] * module.width_of(name))
        for name in synth.registers:
            self._add(support, name,
                      blaster.blast(synth.next_state[name], module.width_of(name)),
                      module.signal(name).reset_value)
        for name in synth.comb_order:
            self._add(support, name,
                      blaster.blast(synth.comb[name], module.width_of(name)))

    def _add(self, support: dict[BoolExpr, frozenset[str]], signal: str,
             functions: Sequence[BoolExpr | None], reset_value: int = 0) -> None:
        for bit, function in enumerate(functions):
            name = default_bit_name(signal, bit)
            operands = (() if function is None
                        else tuple(sorted(support_of(function, support))))
            self.nodes[name] = BitNode(name, signal, function,
                                       bool((reset_value >> bit) & 1), operands)

    def bits_of(self, signal: str) -> list[BitNode]:
        return [self.nodes[default_bit_name(signal, bit)]
                for bit in range(self.module.width_of(signal))]


class OptimizedDesign:
    """The netlist, its constant fold and its cone-of-influence slices.

    Built once per module (the SAT engine keeps it on
    :meth:`~repro.hdl.module.Module.derived`); exposes

    * :attr:`constant_registers` — registers the constant-folding pass
      proved stuck at their reset values (mapping name -> value),
      assuming the reset input is held low (the unroller constrains it);
    * :meth:`slice_for` — the per-assertion bit-level cone-of-influence
      slice lifted to signal granularity (the unroller builds whole
      signals), as a canonical hashable key for context sharing.
    """

    def __init__(self, synth: SynthesizedModule):
        self.synth = synth
        self.netlist = NetlistIR(synth)
        self.constant_registers: dict[str, int] = fold_constants(self.netlist)
        #: seed bit -> signals of its transitive cone (cones are highly
        #: shared between assertions over the same outputs).
        self._cone_memo: dict[str, frozenset[str]] = {}
        self._slice_memo: dict[frozenset[str], tuple[str, ...]] = {}

    def slice_for(self, signals: Iterable[str]) -> tuple[str, ...]:
        """Signals in the transitive bit-level cone of ``signals``.

        The result is a sorted tuple (a canonical, hashable slice key)
        containing every signal any cone bit belongs to — a superset of
        the requested signals, closed under use-def reachability, so an
        unrolling restricted to it can build every requested signal.
        Signals without nodes (the clock, undriven wires, which the
        unroller reads as constant zero) contribute no bits.  Soundness
        is classical COI: bits outside the cone cannot affect the
        assertion on any trace, so verdicts and canonical witnesses are
        those of the whole design (absent input bits decode to 0, the
        value witness minimisation picks).  The cone does NOT stop at
        folded registers: the free-initial-state unrolling keeps them as
        ordinary registers (the fold's induction-from-reset argument
        says nothing about arbitrary states), so their full fan-in must
        stay in the slice.
        """
        request = frozenset(signals)
        cached = self._slice_memo.get(request)
        if cached is not None:
            return cached
        module = self.synth.module
        nodes = self.netlist.nodes
        lifted = set(request)
        for signal in request:
            if not module.has_signal(signal):
                continue
            for bit in range(module.width_of(signal)):
                seed = default_bit_name(signal, bit)
                if seed not in nodes:
                    continue
                cone = self._cone_memo.get(seed)
                if cone is None:
                    reached: set[str] = set()
                    stack = [seed]
                    while stack:
                        name = stack.pop()
                        if name not in reached and name in nodes:
                            reached.add(name)
                            stack.extend(nodes[name].operands)
                    cone = self._cone_memo[seed] = frozenset(
                        nodes[name].signal for name in reached)
                lifted |= cone
        cached = self._slice_memo[request] = tuple(sorted(lifted))
        return cached

    def slice_registers(self, slice_key: Sequence[str]) -> list[str]:
        """Registers of a slice, in canonical (sorted) order."""
        next_state = self.synth.next_state
        return [name for name in slice_key if name in next_state]
