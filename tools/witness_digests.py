#!/usr/bin/env python3
"""Print one canonical-witness digest per bundled design and SAT depth.

For every design in :data:`repro.designs.DESIGNS` and every induction
depth in :data:`DEPTHS` (``0`` is plain BMC with one-step induction),
runs the ``tiered`` engine over a seeded corpus of miner-shaped candidate
assertions (windows 1-3, bit-level and whole-signal literals over inputs,
registers and outputs) and prints ``<design> k<depth> <digest>`` lines.
The digest is the first 16 hex characters of the SHA-256 of the JSON list
of each check's verdict, counterexample window start and input vectors,
so it pins every canonical witness, not only the verdicts::

    PYTHONPATH=src python tools/witness_digests.py > witnesses.txt
    diff tools/digests/witnesses.txt witnesses.txt

``tools/digests/witnesses.txt`` pins the expected output; CI diffs
against it.  A change that means to alter a witness regenerates it.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.assertions.assertion import Assertion, Literal  # noqa: E402
from repro.designs import DESIGNS  # noqa: E402
from repro.formal.induction import KInductionModelChecker  # noqa: E402

#: Induction depths checked per design.
DEPTHS = (0, 4)
#: Candidates per design, and the corpus seed.
CORPUS_SIZE = 24
SEED = 30
#: The SAT engine's default search depth (``GoldMineConfig.bound``).
BOUND = 10


def _literal(module, rng: random.Random, name: str, cycle: int) -> Literal:
    width = module.width_of(name)
    if width == 1:
        return Literal(name, rng.randint(0, 1), cycle)
    if rng.random() < 0.5:
        return Literal(name, rng.randint(0, 1), cycle, rng.randrange(width))
    return Literal(name, rng.randrange(1 << width), cycle)


def corpus(module, count: int = CORPUS_SIZE, seed: int = SEED) -> list[Assertion]:
    """``count`` seeded candidates: 1-3 antecedent literals, one output
    consequent at the window's last cycle (one later for a register)."""
    rng = random.Random(f"{seed}:{module.name}")
    sources = module.data_input_names + module.state_names
    outputs = module.output_names
    registers = set(module.state_names)
    assertions = []
    for _ in range(count):
        window = rng.choice((1, 2, 3))
        names = rng.sample(sources, k=min(rng.randint(1, 3), len(sources)))
        antecedent = tuple(_literal(module, rng, name, rng.randrange(window))
                           for name in names)
        output = rng.choice(outputs)
        cycle = window if output in registers else window - 1
        assertions.append(Assertion(antecedent, _literal(module, rng, output, cycle),
                                    window))
    return assertions


def witness_record(result) -> list:
    counterexample = result.counterexample
    if counterexample is None:
        return [result.verdict.value, None, None]
    vectors = [sorted(vector.items()) for vector in counterexample.input_vectors]
    return [result.verdict.value, counterexample.window_start, vectors]


def digest(records: list) -> str:
    text = json.dumps(records, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main() -> int:
    for name in DESIGNS:
        module = DESIGNS[name].build()
        assertions = corpus(module)
        for depth in DEPTHS:
            checker = KInductionModelChecker(module, bound=BOUND, induction_k=depth)
            records = [witness_record(checker.check(assertion))
                       for assertion in assertions]
            print(f"{name} k{depth} {digest(records)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
