"""The GoldMine engine: one mining pass over simulation data.

This is the DATE'10 GoldMine flow the paper builds on (its Figure 1):

1. *Data generator* — simulate the design with random patterns (or a
   user-supplied directed test) and record the trace.
2. *Static analyzer* — restrict the feature space to the target output's
   logic cone.
3. *A-Miner* — build a decision tree over the windowed trace data and read
   100 %-confidence candidate assertions off its pure leaves.
4. *Formal verifier* — model-check every candidate; survivors are system
   invariants, failures produce counterexample traces.

The counterexample feedback loop that is this paper's contribution lives
in :mod:`repro.core.refinement`; :class:`GoldMine` is also used stand-alone
by the fault-injection regression experiment (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.assertions.assertion import Assertion
from repro.core.config import GoldMineConfig
from repro.core.results import MiningSummary
from repro.formal.checker import FormalVerifier
from repro.formal.proofcache import ProofCache
from repro.formal.result import CheckResult
from repro.hdl.module import Module
from repro.hdl.synth import SynthesizedModule, synthesize
from repro.mining.columnar import ColumnarDataset, ColumnarDecisionTree
from repro.sim.simulator import Simulator
from repro.sim.stimulus import RandomStimulus, Stimulus
from repro.sim.trace import Trace


@dataclass
class MiningReport:
    """Every output's mining summary for one GoldMine pass."""

    module_name: str
    summaries: dict[str, MiningSummary] = field(default_factory=dict)

    @property
    def true_assertions(self) -> list[Assertion]:
        result: list[Assertion] = []
        for summary in self.summaries.values():
            result.extend(summary.true_assertions)
        return result

    @property
    def candidate_count(self) -> int:
        return sum(len(summary.candidates) for summary in self.summaries.values())


class GoldMine:
    """Single-pass assertion mining engine."""

    def __init__(self, module: Module, config: GoldMineConfig | None = None,
                 verifier: FormalVerifier | None = None):
        module.validate()
        self.module = module
        self.config = config or GoldMineConfig()
        self.synth: SynthesizedModule = synthesize(module)
        #: Close only verifiers this engine constructed: a caller-injected
        #: verifier may be shared (warm worker pool, proof cache), and its
        #: lifecycle belongs to the caller.
        self._owns_verifier = verifier is None
        self.verifier = verifier or FormalVerifier.from_config(
            module, self.config, ProofCache.resolve(self.config.formal_proof_cache))

    # ------------------------------------------------------------------
    # data generator
    # ------------------------------------------------------------------
    def generate_data(self, stimulus: Stimulus | None = None) -> Trace:
        """Simulate the design and return the trace (GoldMine's data generator)."""
        if stimulus is None:
            cycles = self.config.random_cycles or 64
            stimulus = RandomStimulus(cycles, seed=self.config.random_seed,
                                      bias=self.config.input_bias)
        simulator = Simulator(self.module)
        return simulator.run(stimulus)

    def generate_traces(self, stimulus: Stimulus | None = None) -> list[Trace]:
        """Run the data-generator phase on the configured simulation engine.

        With ``sim_engine="scalar"`` (or an explicit ``stimulus``) this is
        one interpreted run.  With ``sim_engine="batched"`` the random
        cycle budget is split across up to ``sim_lanes`` independent
        from-reset trials simulated bit-parallel, returning one trace per
        lane; each lane must still span at least one mining window.
        """
        if stimulus is not None or self.config.sim_engine != "batched":
            return [self.generate_data(stimulus)]
        from repro.sim.batched import random_batch_traces

        per_lane, lanes = self._batch_shape()
        return random_batch_traces(
            self.module, per_lane, lanes=lanes,
            seed=self.config.random_seed, bias=self.config.input_bias,
        )

    def _batch_shape(self) -> tuple[int, int]:
        """(cycles per lane, lanes) for the batched data generator.

        A lane shorter than window+1 cycles contributes no mining rows;
        beyond that, keep lanes * per_lane within the configured cycle
        budget so engine choice does not change the amount of data.
        """
        cycles = self.config.random_cycles or 64
        min_lane_cycles = self.config.window + 1
        lanes = max(1, min(self.config.sim_lanes, cycles // min_lane_cycles))
        per_lane = max(min_lane_cycles, cycles // lanes)
        return per_lane, lanes

    def generate_mining_data(self, stimulus: Stimulus | None = None):
        """Data-generator phase in whatever form the miner consumes best.

        Returns a list of traces — except on the batched simulator's random
        phase, where it returns the :class:`~repro.sim.batched.LaneWordBlock`
        of lane-packed words so trace -> dataset -> tree never widens to
        per-row Python objects.  The block holds exactly the data
        :meth:`generate_traces` would return (same RNG stream).
        """
        if stimulus is None and self.config.sim_engine == "batched":
            from repro.sim.batched import random_batch_block

            per_lane, lanes = self._batch_shape()
            return random_batch_block(
                self.module, per_lane, lanes=lanes,
                seed=self.config.random_seed, bias=self.config.input_bias,
                synth=self.synth,
            )
        return self.generate_traces(stimulus)

    # ------------------------------------------------------------------
    # target enumeration
    # ------------------------------------------------------------------
    def target_outputs(self, outputs: Sequence[str] | None = None) -> list[tuple[str, int | None]]:
        """Expand the requested outputs into (signal, bit) mining targets."""
        names = list(outputs) if outputs is not None else list(self.module.output_names)
        targets: list[tuple[str, int | None]] = []
        for name in names:
            width = self.module.width_of(name)
            if width == 1:
                targets.append((name, None))
            else:
                targets.extend((name, bit) for bit in range(width))
        return targets

    @staticmethod
    def target_label(output: str, bit: int | None) -> str:
        return output if bit is None else f"{output}[{bit}]"

    # ------------------------------------------------------------------
    # mining
    # ------------------------------------------------------------------
    def build_dataset(self, output: str, bit: int | None = None) -> ColumnarDataset:
        """An empty columnar mining dataset for one output bit."""
        return ColumnarDataset(
            self.module,
            output,
            window=self.config.window,
            output_bit=bit,
            include_internal_state=self.config.include_internal_state,
            synth=self.synth,
        )

    def mine_output(self, output: str, data,
                    bit: int | None = None) -> MiningSummary:
        """Run A-Miner + formal verification for one output bit.

        ``data`` is an iterable of traces, or a
        :class:`~repro.sim.batched.LaneWordBlock` of lane-packed words
        (the zero-copy hand-off from the batched data generator, folded
        in directly by the columnar dataset).
        """
        dataset = self.build_dataset(output, bit)
        from repro.sim.batched import LaneWordBlock

        if isinstance(data, LaneWordBlock):
            dataset.add_lane_block(data)
        else:
            dataset.add_traces(data)
        tree = ColumnarDecisionTree(dataset, self.config.max_depth)
        tree.build()
        candidates = tree.candidate_assertions()
        summary = MiningSummary(self.module.name, self.target_label(output, bit),
                                candidates=candidates)
        # One batch through the verifier, not one cold call per candidate:
        # the incremental engine amortises its per-design encoding over the
        # whole candidate set and a parallel verifier dispatches one wave.
        results: list[CheckResult] = self.verifier.check_all(candidates)
        for candidate, result in zip(candidates, results):
            if result.is_true:
                summary.true_assertions.append(candidate)
            else:
                summary.false_assertions.append(candidate)
        return summary

    def mine(self, traces: Iterable[Trace] | None = None,
             outputs: Sequence[str] | None = None,
             stimulus: Stimulus | None = None) -> MiningReport:
        """Mine assertions for every requested output from the given traces.

        When ``traces`` is omitted, the data generator produces random
        data first on the configured simulation engine (``stimulus``
        overrides the random default); on the batched simulator the data
        stays lane-packed end to end.
        """
        if traces is None:
            data = self.generate_mining_data(stimulus)
        else:
            data = list(traces)
        report = MiningReport(self.module.name)
        try:
            for output, bit in self.target_outputs(outputs):
                label = self.target_label(output, bit)
                report.summaries[label] = self.mine_output(output, data, bit)
        finally:
            # Release formal worker processes and flush the proof cache;
            # the verifier restarts lazily if this engine mines again.
            if self._owns_verifier:
                self.verifier.close()
        return report
