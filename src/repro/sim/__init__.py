"""Cycle-accurate simulation of the Verilog-subset designs.

* :mod:`repro.sim.base` — the :class:`SimulatorBase` interface both
  engines implement.
* :mod:`repro.sim.simulator` — the scalar two-phase simulator
  (combinational settle, clock edge); it runs each design as one
  generated Python function with the coverage collectors compiled in as
  probes.  It is the one engine that replays sequences and measures
  coverage.
* :mod:`repro.sim.codegen` — the code generator behind it, with the
  process-wide cache of compiled code objects.
* :mod:`repro.sim.batched` — bit-parallel batched engine: ``W``
  independent trials packed into big-int lanes, advanced by compiled
  next-state functions one cycle at a time.  Its
  :class:`~repro.sim.batched.CompiledNetlist` steps every frontier state
  of the explicit engine's state-space search at once.
* :mod:`repro.sim.trace` — per-cycle value tables produced by simulation.
* :mod:`repro.sim.stimulus` — random, directed, constant and replay
  stimulus generators (the paper's "data generator").
"""

from repro.sim.base import SimulatorBase
from repro.sim.batched import (
    BatchedSimulator,
    BatchSample,
    CompiledNetlist,
    pack_lanes,
    unpack_lanes,
)
from repro.sim.simulator import SimulationError, Simulator
from repro.sim.stimulus import (
    ConstantStimulus,
    DirectedStimulus,
    RandomStimulus,
    ReplayStimulus,
    Stimulus,
)
from repro.sim.trace import Trace

__all__ = [
    "BatchSample",
    "BatchedSimulator",
    "CompiledNetlist",
    "ConstantStimulus",
    "DirectedStimulus",
    "RandomStimulus",
    "ReplayStimulus",
    "SimulationError",
    "Simulator",
    "SimulatorBase",
    "Stimulus",
    "Trace",
    "pack_lanes",
    "unpack_lanes",
]
