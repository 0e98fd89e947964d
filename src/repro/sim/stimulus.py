"""Stimulus generators — the "data generator" phase of GoldMine.

A stimulus produces, cycle by cycle, the values to drive on the design's
data inputs (clock and reset are handled by the simulator).  The paper's
experiments use three flavours:

* random input patterns (Section 2.1 — "simulated for a fixed number of
  cycles using random input patterns"),
* directed tests written by a validation engineer (Section 6's arbiter
  trace), and
* replayed counterexample sequences, which is how the refinement loop
  turns formal counterexamples back into simulation data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.hdl.module import Module


class Stimulus:
    """Base class: an iterable of per-cycle input assignments."""

    def cycles(self, module: Module) -> Iterator[dict[str, int]]:
        """Yield one dictionary of input values per cycle."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


@dataclass
class RandomStimulus(Stimulus):
    """Uniformly random values on every data input for ``length`` cycles."""

    length: int
    seed: int = 0
    #: Optional per-signal probability of driving 1 (single-bit inputs only).
    bias: Mapping[str, float] = field(default_factory=dict)

    def cycles(self, module: Module) -> Iterator[dict[str, int]]:
        rng = random.Random(self.seed)
        inputs = module.data_input_names
        for _ in range(self.length):
            values: dict[str, int] = {}
            for name in inputs:
                width = module.width_of(name)
                probability = self.bias.get(name)
                if probability is not None and width == 1:
                    values[name] = 1 if rng.random() < probability else 0
                else:
                    values[name] = rng.randrange(1 << width)
            yield values

    def __len__(self) -> int:
        return self.length


@dataclass
class DirectedStimulus(Stimulus):
    """An explicit list of per-cycle input assignments (a directed test)."""

    vectors: Sequence[Mapping[str, int]]

    def cycles(self, module: Module) -> Iterator[dict[str, int]]:
        for vector in self.vectors:
            yield {name: int(value) for name, value in vector.items()}

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass
class ConstantStimulus(Stimulus):
    """Drive the same input assignment for ``length`` cycles."""

    values: Mapping[str, int]
    length: int

    def cycles(self, module: Module) -> Iterator[dict[str, int]]:
        for _ in range(self.length):
            yield dict(self.values)

    def __len__(self) -> int:
        return self.length


@dataclass
class ReplayStimulus(Stimulus):
    """Replay the input columns of a previously recorded trace or sequence.

    Used to turn a formal counterexample (a sequence of input valuations
    from reset) back into simulation data the decision tree can observe.
    """

    vectors: Sequence[Mapping[str, int]]

    def cycles(self, module: Module) -> Iterator[dict[str, int]]:
        inputs = set(module.data_input_names)
        for vector in self.vectors:
            yield {name: int(value) for name, value in vector.items() if name in inputs}

    def __len__(self) -> int:
        return len(self.vectors)
