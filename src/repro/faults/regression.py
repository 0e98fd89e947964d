"""Assertion-based regression over fault-injected designs (Table 2).

Assertions mined on the golden design form the regression suite.  Each
fault mutant is checked against every assertion; assertions that fail on
the mutant "cover" the fault.  Two checking modes are offered:

* ``formal`` (the paper's method) — every assertion is model-checked on
  the mutant;
* ``simulation`` — assertions are evaluated over the mutant's response to
  the refined test suite, which is cheaper and mirrors using the test
  vectors as the regression vehicle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.assertions.assertion import Assertion
from repro.assertions.evaluate import assertion_holds_on_trace
from repro.core.config import GoldMineConfig
from repro.faults.mutation import StuckAtFault, inject_fault
from repro.formal.checker import FormalVerifier
from repro.formal.proofcache import ProofCache
from repro.hdl.module import Module
from repro.sim.simulator import Simulator


@dataclass
class FaultDetection:
    """Outcome of regressing one fault."""

    fault: StuckAtFault
    detecting_assertions: list[Assertion] = field(default_factory=list)
    checked_assertions: int = 0

    @property
    def detected(self) -> bool:
        return bool(self.detecting_assertions)

    @property
    def detection_count(self) -> int:
        return len(self.detecting_assertions)


@dataclass
class FaultCampaignResult:
    """Results across a whole fault campaign."""

    module_name: str
    detections: list[FaultDetection] = field(default_factory=list)

    @property
    def detected_faults(self) -> int:
        return sum(1 for detection in self.detections if detection.detected)

    @property
    def total_faults(self) -> int:
        return len(self.detections)

    @property
    def detection_rate(self) -> float:
        if not self.detections:
            return 0.0
        return self.detected_faults / self.total_faults

    def by_signal(self) -> dict[str, dict[int, int]]:
        """Table 2 layout: signal -> {stuck value -> #detecting assertions}."""
        table: dict[str, dict[int, int]] = {}
        for detection in self.detections:
            table.setdefault(detection.fault.signal, {})[detection.fault.value] = \
                detection.detection_count
        return table

    def table(self) -> str:
        lines = [f"{'Signal':<22} {'stuck at 0':>12} {'stuck at 1':>12}"]
        for signal, counts in self.by_signal().items():
            lines.append(f"{signal:<22} {counts.get(0, 0):>12} {counts.get(1, 0):>12}")
        return "\n".join(lines)


def run_fault_campaign(module: Module, assertions: Sequence[Assertion],
                       faults: Iterable[StuckAtFault],
                       mode: str = "formal",
                       config: GoldMineConfig | None = None,
                       test_suite: Sequence[Sequence[Mapping[str, int]]] | None = None) -> FaultCampaignResult:
    """Check the assertion suite against every fault mutant.

    ``mode='formal'`` model-checks each assertion on each mutant (the
    paper's method); ``mode='simulation'`` evaluates the assertions on the
    mutant's simulation of ``test_suite``.

    The formal mode checks with the verifier ``config`` selects
    (:meth:`FormalVerifier.from_config`: engine, bounds, workers, query
    timeout), sharing one proof cache across mutants.  Note the pool
    granularity: every mutant is a distinct design, so a
    worker pool lives for exactly one ``check_all`` batch and is respawned
    per mutant — worth it for large assertion suites or expensive engines,
    pure overhead for small ones (the campaign's natural parallel axis is
    the independent faults, which the experiment runner's job pool already
    covers at ``--workers`` granularity).
    """
    if mode not in ("formal", "simulation"):
        raise ValueError("mode must be 'formal' or 'simulation'")
    if mode == "simulation" and not test_suite:
        raise ValueError("simulation mode requires a test suite")
    config = config or GoldMineConfig()
    result = FaultCampaignResult(module.name)
    # One cache for the whole campaign, flushed once at the end — a
    # per-mutant flush would rewrite the backing file M times.
    proof_cache = ProofCache.resolve(config.formal_proof_cache)

    for fault in faults:
        mutant = inject_fault(module, fault)
        detection = FaultDetection(fault)
        if mode == "formal":
            # The campaign inherits the config's formal execution knobs:
            # each mutant's assertion suite is verified as one batch (one
            # warm engine context, or one sharded wave across the worker
            # pool), and verdicts may come from / feed the proof cache —
            # mutants are distinct designs, so their content fingerprints
            # keep cache entries apart, and a re-run of the same campaign
            # starts warm.
            verifier = FormalVerifier.from_config(mutant, config, proof_cache)
            try:
                checks = verifier.check_all(list(assertions))
            finally:
                verifier.close(flush_cache=False)
            detection.checked_assertions += len(checks)
            for assertion, check in zip(assertions, checks):
                if check.is_false:
                    detection.detecting_assertions.append(assertion)
        else:
            simulator = Simulator(mutant)
            traces = [simulator.run_vectors(list(sequence)) for sequence in test_suite]
            for assertion in assertions:
                detection.checked_assertions += 1
                if any(not assertion_holds_on_trace(assertion, trace) for trace in traces):
                    detection.detecting_assertions.append(assertion)
        result.detections.append(detection)
    if proof_cache is not None:
        proof_cache.flush()
    return result
