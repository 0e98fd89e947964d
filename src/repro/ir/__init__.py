"""Bit-level netlist IR with optimization passes.

The HDL front end synthesizes word-level expressions
(:mod:`repro.hdl.synth`) and every consumer used to bit-blast them
independently and whole: each BMC/k-induction query encoded every
register of the design even when the assertion's cone touched a handful.
This package puts a proper netlist layer between synthesis and the
consumers:

* :class:`~repro.ir.netlist.NetlistIR` — a bit-level use-def graph built
  from a :class:`~repro.hdl.synth.SynthesizedModule`: one node per
  signal bit (input / register / combinational), each carrying its
  driving Boolean function plus operand→user back-edges, structurally
  hashed so shared logic exists once (the ``Expr``/``Operand`` graph
  idiom).
* :func:`~repro.ir.passes.fold_constants` — registers whose next-state
  functions can never leave their reset values (and inputs tied by the
  reset convention) are swept to constants through the graph.
* :class:`~repro.ir.coi.BitCone` / cone-of-influence reduction — for
  each candidate assertion, the transition system is sliced to the
  registers/inputs its support transitively reaches, so the
  :class:`~repro.analysis.unroll.Unroller` and the Tseitin encoder build
  only the slice.  This is the formal-side, bit-level analogue of the
  paper's Definition 8 mining cone (:mod:`repro.analysis.cone`).

:class:`~repro.ir.netlist.OptimizedDesign` bundles the three passes into
the facade the SAT engine (:mod:`repro.formal.induction`, on the
bounded search of :mod:`repro.formal.bmc`) checks through.  The passes preserve
bounded verdicts and canonical counterexamples; the sliced simple-path
constraints can only strengthen k-induction (more unbounded proofs).
"""

from repro.ir.coi import BitCone
from repro.ir.netlist import BitNode, NetlistIR, OptimizedDesign
from repro.ir.passes import FoldResult, fold_constants, structural_hash_stats

__all__ = [
    "BitCone",
    "BitNode",
    "FoldResult",
    "NetlistIR",
    "OptimizedDesign",
    "fold_constants",
    "structural_hash_stats",
]
