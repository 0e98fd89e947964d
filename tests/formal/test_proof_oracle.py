"""Cross-engine proof-oracle battery for the unbounded proof tier.

The tiered engine's inductive step claims something qualitatively
stronger than a bounded search: ``proof_strength="unbounded"`` asserts
the property holds on **every** reachable state at **every** cycle, not
just within a bound.  That claim is falsifiable — the explicit-state and
BDD engines are exact on the bundled designs — so this battery checks it
the hard way: every small design × a seeded miner-shaped corpus, every
``tiered`` verdict — at the default depth and at ``induction_k=0``, the
configuration that plain BMC is — cross-examined against both exact
oracles.

Any refutable ``unbounded`` proof is a soundness bug and fails loudly,
naming the design, the assertion and both engines' verdicts.  The
battery also pins the depth-0 identity (``tiered`` at ``induction_k=0``
≡ :class:`BmcModelChecker`, field for field, and ``tiered`` ≡ BMC on
falsification, with byte-identical canonical counterexamples) and guards
its own strength: a corpus drift that stopped producing proofs would turn
the oracle vacuous, so the battery asserts proofs actually occur.
"""

from __future__ import annotations

import pytest

from repro.assertions.assertion import Verdict
from repro.designs import DESIGNS
from repro.formal.bdd_engine import BddModelChecker
from repro.formal.bmc import BmcModelChecker
from repro.formal.explicit import ExplicitModelChecker
from repro.formal.induction import KInductionModelChecker
from repro.formal.result import PROOF_BOUNDED, PROOF_UNBOUNDED

# Sibling test module (pytest puts this directory on sys.path).
from test_incremental_bmc import random_assertions, replay_violates

#: Every bundled design small enough for the exact oracles — the full
#: registry minus the Rigel pipeline stages (whose input spaces exceed
#: the explicit engine's enumeration budget in a unit-test time box).
ORACLE_DESIGNS = (
    "arbiter2", "arbiter4", "counter_block", "handshake_block",
    "cex_small", "b01", "b02", "b06", "b09", "b12",
)

#: (count, seed) corpora per design.  Seed 101 is proof-rich (bounded
#: passes that the inductive step upgrades on most designs); seed 11
#: matches the incremental-BMC differential suite and skews falsifiable.
CORPORA = ((18, 101), (12, 11))

BOUND = 8
INDUCTION_K = 8


def corpus(module):
    assertions = []
    for count, seed in CORPORA:
        assertions.extend(random_assertions(module, count, seed=seed))
    return assertions


def describe(design_name, assertion, **verdicts):
    parts = ", ".join(f"{engine}={verdict}" for engine, verdict in verdicts.items())
    return f"[{design_name}] {assertion.describe()}: {parts}"


@pytest.fixture(scope="module", params=ORACLE_DESIGNS)
def battery(request):
    """Every engine configuration's results over the corpus of one design."""
    design_name = request.param
    module = DESIGNS[design_name].build()
    assertions = corpus(module)
    explicit = ExplicitModelChecker(module)
    bdd = BddModelChecker(module)
    bmc = BmcModelChecker(module, bound=BOUND)
    depth0 = KInductionModelChecker(module, bound=BOUND, induction_k=0)
    tiered = KInductionModelChecker(module, bound=BOUND, induction_k=INDUCTION_K)
    results = [
        {
            "assertion": assertion,
            "explicit": explicit.check(assertion),
            "bdd": bdd.check(assertion),
            "bmc": bmc.check(assertion),
            "tiered-k0": depth0.check(assertion),
            "tiered": tiered.check(assertion),
        }
        for assertion in assertions
    ]
    return design_name, module, results


class TestUnboundedProofSoundness:
    """No exact oracle may ever refute an ``unbounded`` verdict."""

    @pytest.mark.parametrize("engine", ["tiered-k0", "tiered"])
    def test_explicit_oracle_confirms_every_proof(self, battery, engine):
        design_name, _, results = battery
        for row in results:
            check = row[engine]
            if check.proof_strength != PROOF_UNBOUNDED:
                continue
            oracle = row["explicit"]
            assert oracle.verdict is Verdict.TRUE, (
                "REFUTED UNBOUNDED PROOF: "
                + describe(design_name, row["assertion"],
                           **{engine: check.verdict.name,
                              "explicit": oracle.verdict.name})
            )

    @pytest.mark.parametrize("engine", ["tiered-k0", "tiered"])
    def test_bdd_oracle_confirms_every_proof(self, battery, engine):
        design_name, _, results = battery
        for row in results:
            check = row[engine]
            if check.proof_strength != PROOF_UNBOUNDED:
                continue
            oracle = row["bdd"]
            assert oracle.verdict is Verdict.TRUE, (
                "REFUTED UNBOUNDED PROOF: "
                + describe(design_name, row["assertion"],
                           **{engine: check.verdict.name,
                              "bdd": oracle.verdict.name})
            )

    @pytest.mark.parametrize("engine", ["tiered-k0", "tiered"])
    def test_proof_strength_matches_verdict_shape(self, battery, engine):
        """TRUE ⇒ unbounded, UNKNOWN ⇒ bounded, FALSE ⇒ no strength."""
        _, _, results = battery
        for row in results:
            check = row[engine]
            if check.verdict is Verdict.TRUE:
                assert check.proof_strength == PROOF_UNBOUNDED
                assert check.details["proof"] == "k-induction"
                assert 0 <= check.details["induction_k"] <= INDUCTION_K
            elif check.verdict is Verdict.UNKNOWN:
                assert check.proof_strength == PROOF_BOUNDED
            else:
                assert check.proof_strength is None


class TestFalsificationAgreement:
    """The falsification tier must be exactly plain BMC."""

    @pytest.mark.parametrize("engine", ["tiered-k0", "tiered"])
    def test_false_verdicts_contain_bmc_with_identical_witness(self, battery, engine):
        """FALSE(bmc) ⊆ FALSE(engine), byte-identical witnesses on the
        overlap.  The containment can be strict: the base case of a depth-k
        proof attempt scans window starts up to ``induction_k + span - 1``,
        slightly past the plain bound — a sound extra falsification."""
        design_name, module, results = battery
        for row in results:
            check, bmc = row[engine], row["bmc"]
            if bmc.verdict is Verdict.FALSE:
                assert check.verdict is Verdict.FALSE, \
                    describe(design_name, row["assertion"],
                             **{engine: check.verdict.name, "bmc": "FALSE"})
                assert check.counterexample.window_start \
                    == bmc.counterexample.window_start
                assert check.counterexample.input_vectors \
                    == bmc.counterexample.input_vectors
            if check.verdict is Verdict.FALSE:
                assert replay_violates(module, row["assertion"],
                                       check.counterexample)
                assert row["explicit"].verdict is Verdict.FALSE

    def test_tiered_k0_identical_to_bmc(self, battery):
        """``tiered`` at ``induction_k=0`` is plain BMC: same verdict, proof
        strength and witness for every assertion."""
        design_name, _, results = battery
        for row in results:
            depth0, bmc = row["tiered-k0"], row["bmc"]
            assert depth0.verdict is bmc.verdict, \
                describe(design_name, row["assertion"],
                         **{"tiered-k0": depth0.verdict.name,
                            "bmc": bmc.verdict.name})
            assert depth0.proof_strength == bmc.proof_strength
            assert (depth0.counterexample is None) == (bmc.counterexample is None)
            if bmc.counterexample is not None:
                assert depth0.counterexample.window_start \
                    == bmc.counterexample.window_start
                assert depth0.counterexample.input_vectors \
                    == bmc.counterexample.input_vectors

    def test_never_weaker_than_bmc(self, battery):
        """Everything BMC proves, ``tiered`` proves at every depth."""
        _, _, results = battery
        for row in results:
            if row["bmc"].verdict is Verdict.TRUE:
                assert row["tiered"].verdict is Verdict.TRUE
                assert row["tiered-k0"].verdict is Verdict.TRUE


class TestBatteryStrength:
    """The battery must actually exercise the proof path."""

    def test_corpus_produces_unbounded_proofs(self, battery):
        design_name, _, results = battery
        proofs = sum(1 for row in results
                     if row["tiered"].proof_strength == PROOF_UNBOUNDED)
        upgrades = sum(1 for row in results
                       if row["tiered"].verdict is Verdict.TRUE
                       and row["bmc"].verdict is Verdict.UNKNOWN)
        # b09's corpus is all-falsifiable (its outputs are nearly free);
        # every other design must yield real proofs, and at least one of
        # them must be an upgrade over plain BMC somewhere (asserted per
        # design where the corpus provides it).
        if design_name != "b09":
            assert proofs > 0, f"oracle battery vacuous on {design_name}"
        if design_name in ("arbiter2", "arbiter4", "b01", "b02", "b12"):
            assert upgrades > 0, (
                f"no bounded→unbounded upgrade on {design_name}; "
                "the proof tier adds nothing over BMC here"
            )

    def test_corpus_exercises_both_outcomes(self, battery):
        _, _, results = battery
        verdicts = {row["tiered"].verdict for row in results}
        assert Verdict.FALSE in verdicts  # falsification tier exercised
