"""Test-only reference for the explicit engine: the per-assertion replay loop.

:class:`LoopExplicitModelChecker` checks an assertion the direct way: for
every reachable state and every input sequence of the window, it replays
the window through :meth:`StateSpace.step` and evaluates the implication
on the sampled valuations, returning the first violation in
(state, ``itertools.product`` sequence) order.  The production
:class:`~repro.formal.explicit.ExplicitModelChecker` answers the same
question from its shared window table; the two must agree on verdicts
and on every counterexample field.
"""

from __future__ import annotations

import itertools
import time
from typing import Mapping, Sequence

from repro.assertions.assertion import Assertion
from repro.formal.explicit import ExplicitModelChecker
from repro.formal.result import CheckResult, false_result, true_result
from repro.formal.statespace import State


class LoopExplicitModelChecker(ExplicitModelChecker):
    """The explicit engine with the window table replaced by a replay loop."""

    def check(self, assertion: Assertion) -> CheckResult:
        start = time.perf_counter()
        reachable = self.state_space.explore()
        window = max(assertion.window, 1)
        span = assertion.consequent.cycle + 1
        input_vectors = self.state_space.input_vectors

        for state in reachable:
            for sequence in itertools.product(input_vectors, repeat=window):
                valuations = self._window_valuations(state, sequence, span)
                if not assertion.antecedent_holds(valuations):
                    continue
                if assertion.consequent.holds(valuations):
                    continue
                counterexample = self._build_counterexample(
                    assertion, state, sequence, span
                )
                return false_result(
                    assertion, counterexample, self.name,
                    time.perf_counter() - start,
                    reachable_states=len(reachable),
                )
        return true_result(assertion, self.name, time.perf_counter() - start,
                           reachable_states=len(reachable))

    def _window_valuations(self, state: State, sequence: Sequence[Mapping[str, int]],
                           span: int) -> dict[int, dict[str, int]]:
        """Per-offset valuations for a window starting in ``state``."""
        valuations: dict[int, dict[str, int]] = {}
        current = state
        for offset in range(span):
            vector = sequence[offset] if offset < len(sequence) else self._padding_vector
            current, valuations[offset] = self.state_space.step(current, vector)
        return valuations
