"""The GoldMine engine: the per-design state every mining pass shares.

This is the DATE'10 GoldMine flow the paper builds on (its Figure 1):

1. *Data generator* — simulate the design and record the trace.
2. *Static analyzer* — restrict the feature space to the target output's
   logic cone.
3. *A-Miner* — build a decision tree over the windowed trace data and read
   100 %-confidence candidate assertions off its pure leaves.
4. *Formal verifier* — model-check every candidate; survivors are system
   invariants, failures produce counterexample traces.

One such pass is iteration 0 of the counterexample feedback loop that is
this paper's contribution (:class:`repro.core.refinement.CoverageClosure`,
which runs it as ``closure.run(seed, max_iterations=0)``).  :class:`GoldMine`
holds what that loop shares across outputs and iterations: the validated
design, its synthesis, the formal verifier, the (signal, bit) mining
targets and their empty columnar datasets.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import GoldMineConfig
from repro.formal.checker import FormalVerifier
from repro.formal.proofcache import ProofCache
from repro.hdl.module import Module
from repro.hdl.synth import SynthesizedModule, synthesize
from repro.mining.columnar import ColumnarDataset


class GoldMine:
    """Per-design mining state: synthesis, formal verifier, target datasets."""

    def __init__(self, module: Module, config: GoldMineConfig | None = None):
        module.validate()
        self.module = module
        self.config = config or GoldMineConfig()
        self.synth: SynthesizedModule = synthesize(module)
        self.verifier = FormalVerifier.from_config(
            module, self.config, ProofCache.resolve(self.config.formal_proof_cache))

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
