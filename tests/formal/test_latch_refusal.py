"""Every formal engine refuses a design with an inferred latch.

An engine models a design's state as its register tuple.  A latched
combinational signal holds state outside that tuple, so an engine that
accepted one would check the wrong model: on :data:`LATCH_SOURCE` the SAT
and BDD engines used to prove ``en@0=0 |-> q@1=0`` with an unbounded
proof, although ``en=1, d=1`` followed by ``en=0`` gives ``q=1``.  All
engines share one check (:func:`repro.formal.statespace.
latch_free_synthesis`); the same design with the latch closed off is
accepted by every engine and decided TRUE.
"""

from __future__ import annotations

import pytest

from repro.assertions.assertion import Assertion, Literal, Verdict
from repro.formal.checker import FormalVerifier, build_engine
from repro.formal.result import FormalEngineError
from repro.hdl.parser import parse_module
from repro.sim.simulator import Simulator

from test_statespace_lanes import LATCH_SOURCE

#: ``LATCH_SOURCE`` with ``y`` assigned on every path: no latch.
LATCH_FREE_SOURCE = LATCH_SOURCE.replace(
    "module latch(", "module nolatch(").replace(
    "if (en) y = d;", "if (en) y = d; else y = 1'b0;")

#: ``en@0=0 |-> q@1=0``: false on the latch, true without it.
CANDIDATE = Assertion((Literal("en", 0, 0),), Literal("q", 0, 1), window=1)

#: (engine name, induction depth) for every engine :func:`build_engine` knows.
ENGINES = [("explicit", 8), ("bdd", 8), ("tiered", 0), ("tiered", 4)]


def test_candidate_is_false_on_the_latch():
    module = parse_module(LATCH_SOURCE)
    trace = Simulator(module).run_vectors([
        {"rst": 0, "en": 1, "d": 1},
        {"rst": 0, "en": 0, "d": 0},
        {"rst": 0, "en": 0, "d": 0},
    ])
    assert not CANDIDATE.holds({0: trace.cycle(1), 1: trace.cycle(2)})


@pytest.mark.parametrize("engine,induction_k", ENGINES)
def test_build_engine_refuses_latch(engine, induction_k):
    module = parse_module(LATCH_SOURCE)
    with pytest.raises(FormalEngineError,
                       match="module 'latch'.*'y'.*inferred latch"):
        build_engine(module, engine, induction_k=induction_k)
    # Refused again on the next build: a refusal is never cached as a model.
    with pytest.raises(FormalEngineError, match="'y'"):
        FormalVerifier(module, engine=engine,
                       induction_k=induction_k).check(CANDIDATE)


@pytest.mark.parametrize("engine,induction_k", ENGINES)
def test_latch_free_design_is_accepted(engine, induction_k):
    module = parse_module(LATCH_FREE_SOURCE)
    result = build_engine(module, engine, induction_k=induction_k).check(CANDIDATE)
    assert result.verdict is Verdict.TRUE
