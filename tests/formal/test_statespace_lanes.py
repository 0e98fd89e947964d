"""Differential battery: lane-batched state exploration ≡ scalar stepping.

:meth:`StateSpace.explore` simulates each BFS level as lanes of the
design's compiled netlist.  The reference here is a plain BFS that steps
every (state, input vector) pair through the scalar simulator
(``load_state`` + ``step``).  The two must agree on the reachable order,
on every reset path and on every successor list — next state, sampled
valuation and the valuation's key order — on every bundled design, on
random FSMs and with levels split into tiny batches.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.assertions.assertion import Assertion, Literal
from repro.designs import DESIGNS, load
from repro.formal import statespace
from repro.formal.explicit import ExplicitModelChecker
from repro.formal.result import FormalEngineError
from repro.formal.statespace import StateSpace
from repro.hdl.parser import parse_module

# Sibling test modules (pytest puts this directory on sys.path).
from explicit_reference import ScalarTransitions
from test_induction import random_fsm

SRC = Path(__file__).resolve().parents[2] / "src"

LATCH_SOURCE = """
module latch(clk, rst, en, d, q);
  input clk, rst, en, d;
  output reg q;
  reg y;
  always @(*) if (en) y = d;
  always @(posedge clk) q <= y;
endmodule
"""


def scalar_bfs(space: StateSpace):
    """Reachable order, reset paths and successor lists by scalar stepping."""
    transitions = ScalarTransitions(space.module)
    vectors = space.input_vectors
    reachable = [space.reset_state]
    paths = {space.reset_state: []}
    successors = {}
    frontier = [space.reset_state]
    while frontier:
        next_frontier = []
        for state in frontier:
            successors[state] = [transitions.step(state, vector) for vector in vectors]
            for vector, (next_state, _) in zip(vectors, successors[state]):
                if next_state not in paths:
                    paths[next_state] = paths[state] + [vector]
                    reachable.append(next_state)
                    next_frontier.append(next_state)
        frontier = next_frontier
    return reachable, paths, successors


def assert_matches_scalar(space: StateSpace) -> None:
    reachable, paths, successors = scalar_bfs(space)
    assert space.explore() == reachable
    for state in reachable:
        assert space.path_from_reset(state) == paths[state]
        lanes = space.successors(state)
        assert lanes == successors[state]
        assert [list(sampled) for _, sampled in lanes] == \
            [list(sampled) for _, sampled in successors[state]]


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_bundled_design_matches_scalar(name):
    assert_matches_scalar(StateSpace(load(name)))


@pytest.mark.parametrize("seed", range(50))
def test_random_fsm_matches_scalar(seed):
    assert_matches_scalar(StateSpace(random_fsm(seed)))


@pytest.mark.parametrize("name", ["arbiter4", "b09", "decode"])
def test_levels_split_mid_state(name, monkeypatch):
    monkeypatch.setattr(statespace, "LANE_CAP", 3)
    space = StateSpace(load(name))
    assert_matches_scalar(space)
    assert space.simulated_batches > len(space.path_from_reset(space.reachable[-1])) + 1
    assert space.simulated_transitions == len(space.reachable) * len(space.input_vectors)


def test_state_limit_message_unchanged():
    module = load("b01")
    with pytest.raises(FormalEngineError) as error:
        StateSpace(module, max_states=3).explore()
    assert str(error.value) == f"module '{module.name}' exceeded the 3-state exploration limit"


def test_latch_design_refused():
    module = parse_module(LATCH_SOURCE)
    # Scalar stepping shows why: state (1,) under en=0 depends on history.
    fresh, primed = ScalarTransitions(module), ScalarTransitions(module)
    primed.step((0,), {"en": 1, "d": 1, "rst": 0})
    idle = {"en": 0, "d": 0, "rst": 0}
    assert fresh.step((1,), idle)[0] != primed.step((1,), idle)[0]
    with pytest.raises(FormalEngineError, match="'y'.*inferred latch"):
        StateSpace(module)
    with pytest.raises(FormalEngineError, match="'y'"):
        ExplicitModelChecker(module)


def test_runtime_imports_no_third_party_packages():
    """CLI import, a tiered closure, coverage replay and lane exploration
    all run on the standard library alone."""
    script = ("import sys\n"
              "import repro.runner.cli\n"
              "from repro.core.config import GoldMineConfig\n"
              "from repro.coverage.runner import CoverageRunner\n"
              "from repro.designs import load\n"
              "from repro.experiments.common import closure_for_design\n"
              "from repro.formal.statespace import StateSpace\n"
              "config = GoldMineConfig(engine='tiered')\n"
              "_, result = closure_for_design('b01', config, window=2)\n"
              "runner = CoverageRunner(load('b01'))\n"
              "runner.run_suite(result.test_suite)\n"
              "StateSpace(load('decode')).explore()\n"
              "print(sorted({'numpy', 'networkx'} & sys.modules.keys()))\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("name", ["arbiter2", "b09", "decode", "wbstage"])
def test_work_counters(name):
    def run():
        module = load(name)
        checker = ExplicitModelChecker(module)
        checker.check(Assertion((), Literal(module.output_names[0], 0, 1), 1))
        return checker

    first, second = run(), run()
    stats = first.reuse_stats()
    space = first.state_space
    assert stats["explicit_transitions"] == len(space.reachable) * len(space.input_vectors)
    depth = max(len(space.path_from_reset(state)) for state in space.reachable)
    assert stats["explicit_levels"] == depth + 1
    assert second.reuse_stats() == stats
