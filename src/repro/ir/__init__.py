"""Bit-level netlist IR: what the SAT engine checks each assertion on.

The HDL front end synthesizes word-level expressions
(:mod:`repro.hdl.synth`).  This package bit-blasts them once per design
and gives the tiered SAT engine (:mod:`repro.formal.bmc`,
:mod:`repro.formal.induction`) the two facts it reads:

* :class:`~repro.ir.netlist.NetlistIR` — one
  :class:`~repro.ir.netlist.BitNode` per driven bit (input / register /
  combinational), holding its Boolean function, its reset constant and
  the sorted bits the function reads.
* :func:`~repro.ir.passes.fold_constants` — registers whose next-state
  functions can never leave their reset values, with the reset input
  held low.

:class:`~repro.ir.netlist.OptimizedDesign` bundles both and adds the
per-assertion cone-of-influence slice (:meth:`~repro.ir.netlist
.OptimizedDesign.slice_for`): the registers and inputs the assertion's
signals transitively read, so the :class:`~repro.analysis.unroll.Unroller`
and the Tseitin encoder build only the slice.  This is the formal-side,
bit-level analogue of the paper's Definition 8 mining cone
(:mod:`repro.analysis.cone`).  One ``OptimizedDesign`` is kept per
module (:meth:`~repro.hdl.module.Module.derived`) and shared by every
checker of it.  Slicing and folding preserve bounded verdicts and
canonical counterexamples; the sliced simple-path constraints can only
strengthen k-induction (more unbounded proofs).
"""

from repro.ir.netlist import BitNode, NetlistIR, OptimizedDesign
from repro.ir.passes import fold_constants

__all__ = [
    "BitNode",
    "NetlistIR",
    "OptimizedDesign",
    "fold_constants",
]
