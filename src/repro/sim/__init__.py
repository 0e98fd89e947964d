"""Cycle-accurate simulation of the Verilog-subset designs.

* :mod:`repro.sim.base` — the :class:`SimulatorBase` interface both
  engines implement, plus the :func:`create_simulator` engine factory.
* :mod:`repro.sim.simulator` — the scalar two-phase simulator
  (combinational settle, clock edge); it runs each design as one
  generated Python function with the coverage collectors compiled in as
  probes.
* :mod:`repro.sim.codegen` — the code generator behind it, with the
  process-wide cache of compiled code objects.
* :mod:`repro.sim.batched` — bit-parallel batched engine: ``W``
  independent trials packed into big-int lanes, advanced by compiled
  next-state functions one cycle at a time.
* :mod:`repro.sim.trace` — per-cycle value tables produced by simulation.
* :mod:`repro.sim.stimulus` — random, directed, constant and replay
  stimulus generators (the paper's "data generator").
* :mod:`repro.sim.vcd` — minimal VCD dumping for waveform inspection.
"""

from repro.sim.base import SIM_ENGINES, SimulatorBase, create_simulator
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
    concatenate,
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
    "SIM_ENGINES",
    "SimulationError",
    "Simulator",
    "SimulatorBase",
    "Stimulus",
    "Trace",
    "concatenate",
    "create_simulator",
    "pack_lanes",
    "unpack_lanes",
]
