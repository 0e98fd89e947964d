"""Differential contract of the IR slicing the SAT engine checks through.

The ``tiered`` engine (and the plain-BMC baseline it extends) checks
each assertion on its cone-of-influence slice, with reset-stuck
registers folded to constants.  That must never change anything the
exact oracle can observe:

* every decided verdict — ``tiered`` at ``induction_k=0`` (plain BMC)
  and at depth ``INDUCTION_K`` — equals the explicit-state engine's, and
  every counterexample replays to a violation;
* counterexamples are canonical — the full witness, input vectors
  included, does not depend on which queries the engine answered first;
* every ``unbounded`` proof found on a slice survives the explicit oracle
  (slicing can only add proofs, never wrong ones);
* an end-to-end coverage-closure run has byte-identical
  ``deterministic_json`` across serial, process-parallel, and
  proof-cached formal back ends.
"""

from __future__ import annotations

import json

import pytest

from repro.assertions.assertion import Verdict
from repro.core.config import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.designs import DESIGNS
from repro.formal.bmc import BmcModelChecker
from repro.formal.explicit import ExplicitModelChecker
from repro.formal.induction import KInductionModelChecker
from repro.formal.result import PROOF_UNBOUNDED
from repro.hdl.parser import parse_module
from repro.sim.stimulus import RandomStimulus

# Sibling formal suite (tests/ir/conftest.py puts tests/formal on sys.path).
from test_incremental_bmc import random_assertions, replay_violates
from test_netlist import FOLDABLE_SOURCE

DIFFERENTIAL_DESIGNS = ("arbiter2", "arbiter4", "counter_block",
                        "handshake_block", "b01", "b06", "b12")
BOUND = 6
INDUCTION_K = 6


def corpus(module):
    """Proof-rich + falsification-skewed miner-shaped corpora."""
    return (random_assertions(module, 12, seed=101)
            + random_assertions(module, 8, seed=11))


def assert_oracle_agrees(module, engine_cls, context, **kwargs):
    """Decided verdicts match the explicit oracle, witnesses replay, and a
    warm engine's witnesses equal those of one that saw the corpus in
    the reverse order (a different solver history).  Returns the
    forward engine."""
    assertions = corpus(module)
    oracle = ExplicitModelChecker(module)
    engine = engine_cls(module, bound=BOUND, **kwargs)
    forward = engine.check_all(assertions)
    backward = engine_cls(module, bound=BOUND, **kwargs).check_all(assertions[::-1])
    for assertion, got, other in zip(assertions, forward, backward[::-1]):
        label = f"{context}: {assertion.describe()}"
        assert got.verdict is other.verdict, label
        if got.verdict is Verdict.UNKNOWN:
            continue
        assert got.verdict is oracle.check(assertion).verdict, label
        if got.counterexample is not None:
            assert got.counterexample.window_start \
                == other.counterexample.window_start, label
            assert got.counterexample.input_vectors \
                == other.counterexample.input_vectors, label
            assert replay_violates(module, assertion, got.counterexample), label
    return engine


class TestEngineIdentity:
    @pytest.mark.parametrize("design_name", DIFFERENTIAL_DESIGNS)
    def test_bmc_verdicts_and_witnesses_identical(self, design_name):
        module = DESIGNS[design_name].build()
        engine = assert_oracle_agrees(module, KInductionModelChecker,
                                      f"[{design_name}] tiered k=0",
                                      induction_k=0)
        assert engine.reuse_stats()["ir_slices"] >= 1

    @pytest.mark.parametrize("design_name", DIFFERENTIAL_DESIGNS)
    def test_k_induction_verdicts_and_witnesses_identical(self, design_name):
        module = DESIGNS[design_name].build()
        assert_oracle_agrees(module, KInductionModelChecker,
                             f"[{design_name}] tiered",
                             induction_k=INDUCTION_K)

    @pytest.mark.parametrize("engine_cls", [BmcModelChecker,
                                            KInductionModelChecker])
    def test_folded_register_design_matches_oracle(self, engine_cls):
        """A design with a reset-stuck register exercises the fold: its
        bits enter the from-reset unrolling as constants."""
        module = parse_module(FOLDABLE_SOURCE)
        assert engine_cls(module).reuse_stats()["ir_folded_registers"] == 1
        assert_oracle_agrees(module, engine_cls, f"[foldable] {engine_cls.name}")


class TestSlicedProofSoundness:
    """The explicit oracle confirms every unbounded proof found on slices."""

    ORACLE_DESIGNS = ("arbiter2", "arbiter4", "counter_block",
                      "handshake_block", "b01")

    def test_explicit_oracle_confirms_sliced_proofs(self):
        proofs = 0
        for design_name in self.ORACLE_DESIGNS:
            module = DESIGNS[design_name].build()
            oracle = ExplicitModelChecker(module)
            engine = KInductionModelChecker(module, bound=BOUND,
                                            induction_k=INDUCTION_K)
            for assertion in corpus(module):
                result = engine.check(assertion)
                if result.proof_strength != PROOF_UNBOUNDED:
                    continue
                proofs += 1
                confirmed = oracle.check(assertion)
                assert confirmed.verdict is Verdict.TRUE, (
                    f"REFUTED SLICED PROOF [{design_name}] "
                    f"{assertion.describe()}")
        # Guard the oracle's strength: no proofs would make it vacuous.
        assert proofs > 0


def closure_json(design_name, **overrides):
    meta = DESIGNS[design_name]
    module = meta.build()
    config = GoldMineConfig(window=meta.window, max_iterations=5,
                            engine="tiered", bound=BOUND, induction_k=4,
                            **overrides)
    closure = CoverageClosure(module,
                              outputs=list(meta.mining_outputs) or None,
                              config=config)
    result = closure.run(RandomStimulus(8, seed=3))
    return json.dumps(result.deterministic_json(), sort_keys=True)


class TestClosureByteIdentity:
    """End-to-end closure runs: the execution mode is unobservable."""

    @pytest.mark.parametrize("design_name", ("arbiter2", "counter_block", "b01"))
    def test_serial_parallel_cached_all_match_baseline(self, design_name):
        baseline = closure_json(design_name)
        assert closure_json(design_name, formal_workers=2) == baseline
        # Twice with a shared in-memory proof cache: the second run's
        # verdicts come from cache hits keyed with the ":ir" suffix.
        assert closure_json(design_name, formal_proof_cache=True) == baseline
        assert closure_json(design_name, formal_proof_cache=True) == baseline
