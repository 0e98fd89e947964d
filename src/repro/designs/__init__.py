"""Benchmark designs used by the experiments.

Every design is written in the Verilog subset and parsed through
:mod:`repro.hdl.parser`, so the designs double as end-to-end tests of the
HDL front end.  A registry maps design names to factories plus the
metadata the experiments need (recommended mining window, FSM state
signals, a directed seed test where the paper used one).

Substitutions relative to the paper (see DESIGN.md):

* the Rigel fetch/decode/writeback stages are reduced-but-structurally
  faithful stand-ins (the Rigel RTL is not public);
* the ITC'99 entries are re-expressed small controllers in the same spirit
  (b01/b02/b06/b09) plus a reduced game-controller FSM standing in for the
  b12 class; the huge hierarchical b17/b18 are out of scope for a pure
  Python simulator and are replaced by the deeper `b12`-class design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.designs.arbiters import arbiter2, arbiter2_directed_test, arbiter4
from repro.designs.itc99 import b01, b02, b06, b09, b12_class
from repro.designs.rigel import decode_stage, fetch_stage, wb_stage
from repro.designs.simple import cex_small, counter_block, handshake_block
from repro.hdl.module import Module


@dataclass(frozen=True)
class DesignInfo:
    """Registry entry describing one benchmark design."""

    name: str
    factory: Callable[[], Module]
    description: str
    window: int = 1
    mining_outputs: tuple[str, ...] = ()
    fsm_signals: tuple[str, ...] = ()
    directed_test: Callable[[], list[dict[str, int]]] | None = None
    origin: str = "synthetic"

    def build(self) -> Module:
        """The design's module; every bundled factory parses a constant
        source, so repeated builds return the same read-only module."""
        return self.factory()

    def seed_vectors(self) -> list[dict[str, int]] | None:
        if self.directed_test is None:
            return None
        return self.directed_test()


DESIGNS: dict[str, DesignInfo] = {}


def _register(info: DesignInfo) -> None:
    DESIGNS[info.name] = info


_register(DesignInfo(
    name="cex_small",
    factory=cex_small,
    description="Small combinational example block (paper's cex_small).",
    window=1,
    mining_outputs=("z", "y"),
    origin="paper synthetic block",
))
_register(DesignInfo(
    name="counter_block",
    factory=counter_block,
    description="Loadable saturating counter with threshold flag.",
    window=1,
    mining_outputs=("at_max", "rollover"),
))
_register(DesignInfo(
    name="handshake_block",
    factory=handshake_block,
    description="Valid/ready handshake buffer with occupancy flag.",
    window=1,
    mining_outputs=("out_valid", "busy"),
))
_register(DesignInfo(
    name="arbiter2",
    factory=arbiter2,
    description="2-port round-robin arbiter with priority on port 0 (Section 6 RTL).",
    window=2,
    mining_outputs=("gnt0", "gnt1"),
    directed_test=arbiter2_directed_test,
    origin="paper Section 6",
))
_register(DesignInfo(
    name="arbiter4",
    factory=arbiter4,
    description="4-port arbiter with rotating-priority internal state.",
    window=1,
    mining_outputs=("gnt0", "gnt1", "gnt2", "gnt3"),
    origin="paper synthetic block",
))
_register(DesignInfo(
    name="fetch",
    factory=fetch_stage,
    description="Rigel-like instruction fetch stage (stall/branch/icache handshake).",
    window=1,
    mining_outputs=("valid", "fetch_req"),
    origin="Rigel stand-in",
))
_register(DesignInfo(
    name="decode",
    factory=decode_stage,
    description="Rigel-like instruction decode stage.",
    window=1,
    mining_outputs=("is_alu", "is_branch", "is_mem", "illegal"),
    origin="Rigel stand-in",
))
_register(DesignInfo(
    name="wbstage",
    factory=wb_stage,
    description="Rigel-like writeback select stage.",
    window=1,
    mining_outputs=("wb_valid", "wb_from_mem"),
    origin="Rigel stand-in",
))
_register(DesignInfo(
    name="b01",
    factory=b01,
    description="ITC'99 b01-style FSM comparing two serial flows.",
    window=1,
    mining_outputs=("outp", "overflw"),
    fsm_signals=("state",),
    origin="ITC'99 re-expression",
))
_register(DesignInfo(
    name="b02",
    factory=b02,
    description="ITC'99 b02-style BCD serial recogniser.",
    window=1,
    mining_outputs=("u",),
    fsm_signals=("state",),
    origin="ITC'99 re-expression",
))
_register(DesignInfo(
    name="b06",
    factory=b06,
    description="ITC'99 b06-style interrupt handler.",
    window=1,
    mining_outputs=("cc_mux_high", "uscite_high"),
    fsm_signals=("state",),
    origin="ITC'99 re-expression",
))
_register(DesignInfo(
    name="b09",
    factory=b09,
    description="ITC'99 b09-style serial-to-serial converter (reduced width).",
    window=1,
    mining_outputs=("d_out",),
    fsm_signals=("state",),
    origin="ITC'99 re-expression (4-bit datapath)",
))
_register(DesignInfo(
    name="b12",
    factory=b12_class,
    description="b12-class sequence-game controller FSM (reduced).",
    window=1,
    mining_outputs=("win", "lose", "play"),
    fsm_signals=("state",),
    origin="ITC'99 class stand-in",
))


def design_names() -> list[str]:
    return sorted(DESIGNS)


def load(name: str) -> Module:
    """The named benchmark design: one shared, read-only module per process
    (see :func:`repro.hdl.parser.parse_modules`)."""
    try:
        return DESIGNS[name].build()
    except KeyError as exc:
        raise KeyError(f"unknown design '{name}'; available: {design_names()}") from exc


def info(name: str) -> DesignInfo:
    try:
        return DESIGNS[name]
    except KeyError as exc:
        raise KeyError(f"unknown design '{name}'; available: {design_names()}") from exc


__all__ = [
    "DESIGNS",
    "DesignInfo",
    "arbiter2",
    "arbiter2_directed_test",
    "arbiter4",
    "b01",
    "b02",
    "b06",
    "b09",
    "b12_class",
    "cex_small",
    "counter_block",
    "decode_stage",
    "design_names",
    "fetch_stage",
    "handshake_block",
    "info",
    "load",
    "wb_stage",
]
