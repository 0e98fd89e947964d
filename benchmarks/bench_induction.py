"""Unbounded proof tier: the tiered engine's k-induction vs plain BMC.

Plain bounded model checking leaves every true assertion at
``proof_strength="bounded"`` — "no violation within ``bound`` cycles of
reset".  The tiered engine (:class:`~repro.formal.induction.
KInductionModelChecker`) asks the depth-0 inductive step first, runs the
same bounded search for falsification when it fails, and then escalates
strengthened k-induction on the free-initial-state context, upgrading
bounded passes to genuine **unbounded** proofs.  This
benchmark measures what that tier buys and what it costs on miner-shaped
candidate corpora over the bundled designs.

Reported per design: verdict mix for both engines, bounded→unbounded
upgrades, the induction-depth histogram, and seconds per batch (the
tier's overhead is the step queries; its falsification path is the BMC
scan itself).

Shape requirements (the divergence gates; CI smoke runs them on every
push):

* **falsification identity** — every assertion plain BMC falsifies, the
  tiered engine falsifies with a byte-identical canonical
  counterexample that replays to a real violation, and every assertion
  BMC proves-to-bound stays TRUE under tiering (zero verdict
  divergences on decided assertions);
* **proof soundness** — the exact explicit-state oracle confirms every
  ``unbounded`` verdict; one refutation fails the benchmark;
* at full scale the tier must **matter**: at least one bounded→unbounded
  upgrade on arbiter4 and on at least two ITC'99-class designs.

Set ``INDUCTION_BENCH_SMOKE=1`` for the seconds-scale CI configuration;
the upgrade gate only runs at full scale (the soundness and divergence
gates always run).
"""

from __future__ import annotations

import os
import time

from _utils import miner_shaped_assertions, run_once, write_bench_json
from repro.assertions.assertion import Verdict
from repro.designs import load
from repro.experiments.common import format_table
from repro.formal.bmc import BmcModelChecker
from repro.formal.explicit import ExplicitModelChecker
from repro.formal.induction import KInductionModelChecker
from repro.formal.result import PROOF_UNBOUNDED
from repro.sim.simulator import Simulator

SMOKE = os.environ.get("INDUCTION_BENCH_SMOKE", "") not in ("", "0")

DESIGNS = ("arbiter2", "arbiter4", "b01") if SMOKE else \
    ("arbiter2", "arbiter4", "b01", "b02", "b06", "b09", "b12")
#: ITC'99-class entries for the full-scale upgrade gate.
ITC99_DESIGNS = ("b01", "b02", "b06", "b09", "b12")
ASSERTION_COUNT = 12 if SMOKE else 60
#: Seed 101 yields corpora rich in bounded passes (the tier's raison
#: d'être); seed 11 matches the other formal benchmarks' falsification mix.
SEED = 101
BOUND = 8
INDUCTION_K = 8

#: Full-scale acceptance gate: the proof tier upgrades at least one
#: bounded pass on arbiter4 and on >= 2 ITC'99-class designs.
GATE_MIN_ITC99_DESIGNS = 2


def replay_violates(module, assertion, counterexample):
    """A counterexample must replay to a real violation in simulation."""
    simulator = Simulator(module)
    trace = simulator.run_vectors([dict(vector)
                                   for vector in counterexample.input_vectors])
    span = assertion.consequent.cycle + 1
    start = counterexample.window_start
    valuations = {offset: trace.cycle(start + offset) for offset in range(span)}
    return not assertion.holds(valuations)


def check_batch(engine, assertions):
    start = time.process_time()
    results = [engine.check(assertion) for assertion in assertions]
    return time.process_time() - start, results


def test_induction_proof_tier(benchmark, print_section):
    # Harness-timed sample: one warm tiered batch on the first design.
    sample_module = load(DESIGNS[0])
    sample = miner_shaped_assertions(sample_module, ASSERTION_COUNT, seed=SEED)
    run_once(benchmark, lambda: check_batch(
        KInductionModelChecker(sample_module, bound=BOUND,
                               induction_k=INDUCTION_K), sample))

    headers = ["design", "asserts", "bmc T/F/U", "tiered T/F/U", "upgrades",
               "max k", "bmc s", "tiered s", "diverg", "refuted"]
    table_rows = []
    json_rows = []
    divergences_total = 0
    refuted_total = 0
    upgrades_by_design = {}

    for design_name in DESIGNS:
        module = load(design_name)
        assertions = miner_shaped_assertions(module, ASSERTION_COUNT, seed=SEED)
        bmc_seconds, bmc_results = check_batch(
            BmcModelChecker(module, bound=BOUND), assertions)
        tiered_seconds, tiered_results = check_batch(
            KInductionModelChecker(module, bound=BOUND, induction_k=INDUCTION_K),
            assertions)

        # Gate 1: falsification identity / zero divergences on decided
        # assertions.  (The tiered engine may additionally falsify a few
        # bmc-UNKNOWNs — its base case scans slightly past the plain
        # bound — which is a sound improvement, not a divergence.)
        divergences = 0
        for assertion, bounded, combined in zip(assertions, bmc_results,
                                                tiered_results):
            if bounded.verdict is Verdict.FALSE:
                if combined.verdict is not Verdict.FALSE or \
                        combined.counterexample.input_vectors \
                        != bounded.counterexample.input_vectors:
                    divergences += 1
            elif bounded.verdict is Verdict.TRUE and \
                    combined.verdict is not Verdict.TRUE:
                divergences += 1
            if combined.verdict is Verdict.FALSE and \
                    not replay_violates(module, assertion,
                                        combined.counterexample):
                divergences += 1
        divergences_total += divergences

        # Gate 2: every unbounded proof survives the exact oracle.
        explicit = ExplicitModelChecker(module)
        refuted = 0
        proved_ks = []
        for assertion, combined in zip(assertions, tiered_results):
            if combined.proof_strength == PROOF_UNBOUNDED:
                proved_ks.append(combined.details["induction_k"])
                if explicit.check(assertion).verdict is not Verdict.TRUE:
                    refuted += 1
        refuted_total += refuted

        upgrades = sum(
            1 for bounded, combined in zip(bmc_results, tiered_results)
            if bounded.verdict is Verdict.UNKNOWN
            and combined.verdict is Verdict.TRUE)
        upgrades_by_design[design_name] = upgrades

        def mix(results):
            verdicts = [result.verdict for result in results]
            return (f"{sum(v is Verdict.TRUE for v in verdicts)}/"
                    f"{sum(v is Verdict.FALSE for v in verdicts)}/"
                    f"{sum(v is Verdict.UNKNOWN for v in verdicts)}")

        table_rows.append([
            design_name, len(assertions), mix(bmc_results),
            mix(tiered_results), upgrades,
            max(proved_ks) if proved_ks else "-",
            f"{bmc_seconds:.3f}", f"{tiered_seconds:.3f}",
            divergences, refuted,
        ])
        json_rows.append({
            "design": design_name,
            "assertions": len(assertions),
            "bmc": {"true": sum(r.verdict is Verdict.TRUE for r in bmc_results),
                    "false": sum(r.verdict is Verdict.FALSE for r in bmc_results),
                    "unknown": sum(r.verdict is Verdict.UNKNOWN
                                   for r in bmc_results),
                    "seconds": bmc_seconds},
            "tiered": {"true": sum(r.verdict is Verdict.TRUE
                                   for r in tiered_results),
                       "false": sum(r.verdict is Verdict.FALSE
                                    for r in tiered_results),
                       "unknown": sum(r.verdict is Verdict.UNKNOWN
                                      for r in tiered_results),
                       "seconds": tiered_seconds},
            "upgrades": upgrades,
            "induction_k_histogram": {
                str(k): proved_ks.count(k) for k in sorted(set(proved_ks))},
            "divergences": divergences,
            "refuted_proofs": refuted,
        })

    payload = {
        "benchmark": "induction",
        "smoke": SMOKE,
        "config": {
            "designs": list(DESIGNS),
            "assertion_count": ASSERTION_COUNT,
            "seed": SEED,
            "bound": BOUND,
            "induction_k": INDUCTION_K,
        },
        "gate": {"arbiter4_upgrades": 1,
                 "min_itc99_designs": GATE_MIN_ITC99_DESIGNS},
        "rows": json_rows,
    }
    artifact = write_bench_json("induction", payload)

    print_section(
        "Unbounded proof tier — tiered k-induction vs plain BMC",
        format_table(headers, table_rows) + f"\nartifact: {artifact}")

    # Divergence gate (always, including CI smoke).
    assert divergences_total == 0, \
        "tiered engine diverged from plain BMC on a decided assertion"
    # Soundness gate (always): no oracle-refuted unbounded proof, ever.
    assert refuted_total == 0, \
        "explicit-state oracle refuted an 'unbounded' proof"

    # Upgrade gate (full scale only): the tier must actually prove things.
    if not SMOKE:
        assert upgrades_by_design.get("arbiter4", 0) >= 1, (
            f"no bounded→unbounded upgrade on arbiter4: {upgrades_by_design}")
        itc99_upgraded = [name for name in ITC99_DESIGNS
                          if upgrades_by_design.get(name, 0) >= 1]
        assert len(itc99_upgraded) >= GATE_MIN_ITC99_DESIGNS, (
            f"expected upgrades on >= {GATE_MIN_ITC99_DESIGNS} ITC'99 "
            f"designs, got {upgrades_by_design}")
