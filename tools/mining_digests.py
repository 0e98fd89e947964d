#!/usr/bin/env python3
"""Print one mining digest per bundled design and mining window.

For every design in :data:`repro.designs.DESIGNS` and every window in
:data:`WINDOWS`, mines every output bit on the columnar A-Miner the
closure loop runs (:class:`~repro.mining.columnar.ColumnarDataset` under
a :class:`~repro.mining.columnar.ColumnarIncrementalDecisionTree`) over
seeded random traces of :data:`LENGTHS` cycles (``"span-1"`` is one cycle
too short to hold a row; the second 2000-cycle trace, on its own seed,
grows leaves that stay pure).  The first trace is ingested before the
initial ``build()``, every later one through the incremental
``add_trace``, and the candidate list (with ``support``) is recorded
after each step.  It prints ``<design> w<window> <digest>`` lines, where
the digest is the first 16 hex characters of the SHA-256 of the JSON
list of, per output bit, the feature columns, the target bits, the row
count and every recorded candidate list::

    PYTHONPATH=src python tools/mining_digests.py > mining.txt
    diff tools/digests/mining.txt mining.txt

``tools/digests/mining.txt`` pins the expected output; CI diffs against
it.  A change that means to alter what the miner builds regenerates it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.designs import DESIGNS  # noqa: E402
from repro.hdl.synth import synthesize  # noqa: E402
from repro.mining.columnar import (  # noqa: E402
    ColumnarDataset,
    ColumnarIncrementalDecisionTree,
)
from repro.sim.simulator import Simulator  # noqa: E402
from repro.sim.stimulus import RandomStimulus  # noqa: E402

WINDOWS = (1, 2, 3)
#: Trace lengths in ingestion order; ``"span-1"`` resolves per output.
LENGTHS = (1, "span-1", 2000, 2000)
SEED = 35


def _targets(module) -> list[tuple[str, int | None]]:
    targets = []
    for name in module.output_names:
        width = module.width_of(name)
        targets.extend([(name, None)] if width == 1
                       else [(name, bit) for bit in range(width)])
    return targets


def mining_record(dataset: ColumnarDataset, traces) -> list:
    """Columns, target bits and the candidates after every ingestion."""
    tree = ColumnarIncrementalDecisionTree(dataset)
    candidates = []
    for index, trace in enumerate(traces):
        if index == 0:
            dataset.add_trace(trace)
            tree.build()
        else:
            tree.add_trace(trace)
        candidates.append([candidate.to_json()
                           for candidate in tree.candidate_assertions()])
    columns = [[feature.column, hex(bits)] for feature, bits in dataset.columns.items()]
    return [dataset.target.column, columns, hex(dataset.target_bits),
            dataset.n_rows, candidates]


def design_digests(name: str) -> list[str]:
    module = DESIGNS[name].build()
    synth = synthesize(module)
    simulator = Simulator(module)
    cache: dict[tuple[int, int], object] = {}

    def trace_of(index: int, length: int):
        if (index, length) not in cache:
            cache[index, length] = simulator.run(
                RandomStimulus(length, seed=SEED + index))
        return cache[index, length]

    lines = []
    for window in WINDOWS:
        records = []
        for output, bit in _targets(module):
            dataset = ColumnarDataset(module, output, window=window,
                                      output_bit=bit, synth=synth)
            lengths = [dataset.span - 1 if length == "span-1" else length
                       for length in LENGTHS]
            records.append(mining_record(
                dataset, [trace_of(index, n) for index, n in enumerate(lengths)]))
        text = json.dumps(records, sort_keys=True)
        lines.append(f"{name} w{window} "
                     f"{hashlib.sha256(text.encode()).hexdigest()[:16]}")
    return lines


def main() -> int:
    for name in DESIGNS:
        for line in design_digests(name):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
