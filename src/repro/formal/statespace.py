"""Explicit state-space exploration of a sequential design.

A state is the tuple of register values (ordered as
:attr:`repro.hdl.module.Module.state_names`).  The explorer performs a
breadth-first traversal from the reset state over every data-input
assignment, recording for each state the first input sequence that reaches
it so counterexample paths from reset can be reconstructed.

The traversal is exact and therefore only suitable for designs with modest
register counts and input widths — which covers every design the paper
evaluates (arbiters, small ITC'99 controllers, reduced Rigel stages).
Limits guard against accidental blow-up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.formal.result import FormalEngineError
from repro.hdl.module import Module
from repro.sim.simulator import Simulator

State = tuple[int, ...]


@dataclass
class StateSpace:
    """Reachable-state graph with reset-path reconstruction."""

    module: Module
    max_states: int = 50_000
    max_input_combinations: int = 4_096
    #: Extra constraints applied to every explored input vector (name -> value).
    pinned_inputs: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._simulator = Simulator(self.module)
        self.register_names: list[str] = list(self.module.state_names)
        self.input_names: list[str] = list(self.module.data_input_names)
        self._input_vectors = self._enumerate_inputs()
        self.reset_state: State = self._compute_reset_state()
        #: first-discovery predecessor: state -> (previous state, input vector)
        self._predecessor: dict[State, tuple[State, dict[str, int]] | None] = {}
        #: (state, input key) -> (next state, sampled valuation)
        self._transition_cache: dict[tuple[State, tuple[int, ...]], tuple[State, dict[str, int]]] = {}
        #: state -> its transitions under every input vector, in enumeration order
        self._successors: dict[State, list[tuple[State, dict[str, int]]]] = {}
        self.reachable: list[State] = []
        self._explored = False

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _enumerate_inputs(self) -> list[dict[str, int]]:
        free_inputs = [name for name in self.input_names if name not in self.pinned_inputs]
        total = 1
        for name in free_inputs:
            total *= 1 << self.module.width_of(name)
            if total > self.max_input_combinations:
                raise FormalEngineError(
                    f"module '{self.module.name}' has more than "
                    f"{self.max_input_combinations} input combinations; "
                    "use the SAT/BDD engines or pin some inputs"
                )
        ranges = [range(1 << self.module.width_of(name)) for name in free_inputs]
        vectors: list[dict[str, int]] = []
        for values in itertools.product(*ranges):
            vector = dict(zip(free_inputs, values))
            vector.update({name: int(value) for name, value in self.pinned_inputs.items()})
            if self.module.reset is not None and self.module.reset not in vector:
                vector[self.module.reset] = 0
            vectors.append(vector)
        return vectors

    def _compute_reset_state(self) -> State:
        return tuple(self.module.signal(name).reset_value for name in self.register_names)

    def _input_key(self, vector: Mapping[str, int]) -> tuple[int, ...]:
        return tuple(int(vector.get(name, 0)) for name in self.input_names)

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def step(self, state: State, inputs: Mapping[str, int]) -> tuple[State, dict[str, int]]:
        """Return ``(next_state, sampled valuation)`` for one transition.

        The sampled valuation is the full signal snapshot after combinational
        settling and before the clock edge — exactly what the simulator
        records as the trace row for that cycle.
        """
        key = (state, self._input_key(inputs))
        cached = self._transition_cache.get(key)
        if cached is not None:
            return cached
        simulator = self._simulator
        simulator.load_state(dict(zip(self.register_names, state)))
        if self.module.reset is not None and self.module.reset not in inputs:
            inputs = {**inputs, self.module.reset: 0}
        sampled = simulator.step(inputs)
        next_state = tuple(simulator.peek(name) for name in self.register_names)
        self._transition_cache[key] = (next_state, sampled)
        return next_state, sampled

    def successors(self, state: State) -> list[tuple[State, dict[str, int]]]:
        """:meth:`step` from ``state`` under each of :attr:`input_vectors`, in order.

        Input vector 0 sets every free input to 0 (pins applied).
        """
        transitions = self._successors.get(state)
        if transitions is None:
            transitions = [self.step(state, vector) for vector in self._input_vectors]
            self._successors[state] = transitions
        return transitions

    @property
    def input_vectors(self) -> list[dict[str, int]]:
        return [dict(vector) for vector in self._input_vectors]

    # ------------------------------------------------------------------
    # exploration
    # ------------------------------------------------------------------
    def explore(self) -> list[State]:
        """Breadth-first exploration from reset; returns the reachable states."""
        if self._explored:
            return self.reachable
        frontier: list[State] = [self.reset_state]
        self._predecessor[self.reset_state] = None
        self.reachable = [self.reset_state]
        seen = {self.reset_state}
        while frontier:
            next_frontier: list[State] = []
            for state in frontier:
                for vector, (next_state, _) in zip(self._input_vectors,
                                                   self.successors(state)):
                    if next_state in seen:
                        continue
                    seen.add(next_state)
                    self._predecessor[next_state] = (state, dict(vector))
                    self.reachable.append(next_state)
                    next_frontier.append(next_state)
                    if len(self.reachable) > self.max_states:
                        raise FormalEngineError(
                            f"module '{self.module.name}' exceeded the "
                            f"{self.max_states}-state exploration limit"
                        )
            frontier = next_frontier
        self._explored = True
        return self.reachable

    def path_from_reset(self, state: State) -> list[dict[str, int]]:
        """Input vectors that drive the design from reset to ``state``."""
        if not self._explored:
            self.explore()
        if state not in self._predecessor:
            raise KeyError(f"state {state} is not reachable")
        path: list[dict[str, int]] = []
        current: State = state
        while True:
            entry = self._predecessor[current]
            if entry is None:
                break
            previous, vector = entry
            path.append(dict(vector))
            current = previous
        path.reverse()
        return path

    def state_dict(self, state: State) -> dict[str, int]:
        return dict(zip(self.register_names, state))

    def __len__(self) -> int:
        if not self._explored:
            self.explore()
        return len(self.reachable)
