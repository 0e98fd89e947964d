"""The bit-level use-def netlist: nodes, back-edges, and the facade.

A :class:`NetlistIR` is built once per design from the synthesized
word-level view.  Every *driven bit* of the design becomes one
:class:`BitNode`:

* ``input`` nodes — one per primary-input bit, no function;
* ``register`` nodes — one per register bit, carrying the bit's
  *next-state* Boolean function (over current-cycle bit variables) and
  its reset constant;
* ``comb`` nodes — one per combinational-target bit, carrying the bit's
  Boolean function.

Functions are the hash-consed :class:`~repro.boolean.expr.BoolExpr` DAG
produced by :class:`~repro.boolean.bitblast.BitBlaster` over canonical
per-bit variables (``sig[i]``, :func:`~repro.boolean.bitblast
.default_bit_name`) — the exact objects the batched simulator compiles
and the unroller instantiates per cycle, so the IR describes precisely
what both consumers execute.  Structural hashing is inherited from the
expression layer's interning: logic shared between two bits (or two
signals) is one object, and :func:`~repro.ir.passes
.structural_hash_stats` quantifies the sharing.

The use-def direction (``operands``: which bits a node reads) comes from
the Boolean support of the function; the def-use back-edges (``users``:
which nodes read this bit) are materialised explicitly, following the
``Expr``/``Operand`` operand-user graph design — they are what makes the
cone-of-influence pass a plain graph traversal in either direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.boolean.bitblast import BitBlaster, default_bit_name
from repro.boolean.expr import BoolExpr, support_of
from repro.hdl.synth import SynthesizedModule


@dataclass
class BitNode:
    """One driven bit of the design.

    ``function`` is the bit's Boolean function over current-cycle bit
    variables (``None`` for inputs, which are free).  ``operands`` names
    the bits the function reads; ``users`` is the def-use back-edge set —
    every bit whose function reads this one.  For register nodes the
    function is the *next-state* function and ``reset`` the bit's value
    at reset.
    """

    name: str                      # canonical bit name, e.g. "state[2]"
    signal: str
    bit: int
    kind: str                      # "input" | "register" | "comb"
    function: BoolExpr | None = None
    reset: bool = False
    operands: tuple[str, ...] = ()
    users: list[str] = field(default_factory=list)


class NetlistIR:
    """Bit-level use-def graph of one synthesized module."""

    def __init__(self, synth: SynthesizedModule):
        self.synth = synth
        self.module = synth.module
        module = synth.module
        blaster = BitBlaster(module.width_of)
        #: canonical bit name -> node, in deterministic construction order
        #: (inputs, then registers, then combinational targets in
        #: evaluation order; bits LSB first within a signal).
        self.nodes: dict[str, BitNode] = {}

        for name in module.input_names:
            if name == module.clock:
                continue
            for bit in range(module.width_of(name)):
                self._add(BitNode(default_bit_name(name, bit), name, bit, "input"))
        for name in synth.registers:
            width = module.width_of(name)
            reset_value = module.signal(name).reset_value
            functions = blaster.blast(synth.next_state[name], width)
            for bit in range(width):
                self._add(BitNode(
                    default_bit_name(name, bit), name, bit, "register",
                    function=functions[bit],
                    reset=bool((reset_value >> bit) & 1),
                    operands=tuple(sorted(support_of(functions[bit]))),
                ))
        for name in synth.comb_order:
            width = module.width_of(name)
            functions = blaster.blast(synth.comb[name], width)
            for bit in range(width):
                self._add(BitNode(
                    default_bit_name(name, bit), name, bit, "comb",
                    function=functions[bit],
                    operands=tuple(sorted(support_of(functions[bit]))),
                ))

        # Def-use back-edges: invert the operand lists.  Operands outside
        # ``nodes`` (undriven wires, which the unroller reads as constant
        # zero) get no node and therefore no user list.
        for node in self.nodes.values():
            for operand in node.operands:
                used = self.nodes.get(operand)
                if used is not None:
                    used.users.append(node.name)

    def _add(self, node: BitNode) -> None:
        self.nodes[node.name] = node

    # ------------------------------------------------------------------
    def node(self, signal: str, bit: int) -> BitNode:
        return self.nodes[default_bit_name(signal, bit)]

    def bits_of(self, signal: str) -> list[BitNode]:
        width = self.module.width_of(signal)
        return [self.node(signal, bit) for bit in range(width)]

    @property
    def register_bits(self) -> list[BitNode]:
        return [node for node in self.nodes.values() if node.kind == "register"]

    @property
    def input_bits(self) -> list[BitNode]:
        return [node for node in self.nodes.values() if node.kind == "input"]


class OptimizedDesign:
    """Facade bundling the IR and its passes for the consumers.

    Built once per SAT engine from a synthesized module; exposes

    * :attr:`constant_registers` — registers the constant-folding pass
      proved stuck at their reset values (mapping name -> value),
      assuming the reset input is held low (the unroller constrains it);
    * :meth:`slice_for` — the per-assertion bit-level cone-of-influence
      slice lifted to signal granularity (the unroller builds whole
      signals), with a canonical hashable key for context sharing;
    * :meth:`stats` — pass telemetry for benchmarks.
    """

    def __init__(self, synth: SynthesizedModule):
        from repro.ir.coi import BitCone
        from repro.ir.passes import fold_constants, structural_hash_stats

        self.synth = synth
        self.netlist = NetlistIR(synth)
        self.fold = fold_constants(self.netlist)
        self.cone = BitCone(self.netlist)
        self._hash_stats = structural_hash_stats(self.netlist)
        self._slice_memo: dict[frozenset[str], tuple[str, ...]] = {}

    @property
    def constant_registers(self) -> dict[str, int]:
        return dict(self.fold.constant_registers)

    # ------------------------------------------------------------------
    def slice_for(self, signals: Iterable[str]) -> tuple[str, ...]:
        """Signals in the transitive bit-level cone of ``signals``.

        The result is a sorted tuple (a canonical, hashable slice key)
        containing every signal any cone bit belongs to — a superset of
        the requested signals, closed under use-def reachability, so an
        unrolling restricted to it can build every requested signal.  The
        cone does NOT stop at folded registers: the free-initial-state
        unrolling keeps them as ordinary registers (the fold's
        induction-from-reset argument says nothing about arbitrary
        states), so their full fan-in must stay in the slice.
        """
        request = frozenset(signals)
        cached = self._slice_memo.get(request)
        if cached is None:
            cone_bits = self.cone.cone_of(request)
            lifted = {self.netlist.nodes[bit].signal for bit in cone_bits}
            lifted.update(request)
            cached = self._slice_memo[request] = tuple(sorted(lifted))
        return cached

    def slice_registers(self, slice_key: Sequence[str]) -> list[str]:
        """Registers of a slice, in canonical (sorted) order."""
        next_state = self.synth.next_state
        return [name for name in slice_key if name in next_state]

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        registers = self.synth.registers
        return {
            "bit_nodes": len(self.netlist.nodes),
            "register_bits": len(self.netlist.register_bits),
            "input_bits": len(self.netlist.input_bits),
            "folded_registers": len(self.fold.constant_registers),
            "folded_register_bits": len(self.fold.constant_register_bits),
            "registers": len(registers),
            **self._hash_stats,
        }
