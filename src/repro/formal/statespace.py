"""Explicit state-space exploration of a sequential design.

A state is the tuple of register values (ordered as
:attr:`repro.hdl.module.Module.state_names`).  The explorer performs a
breadth-first traversal from the reset state over every data-input
assignment, recording for each state the first input sequence that reaches
it so counterexample paths from reset can be reconstructed.

Transitions are simulated a whole BFS level at a time on the lane-parallel
:class:`~repro.sim.batched.CompiledNetlist` of the design.  Every
(frontier state, input vector) pair is one lane, state-major and
input-minor: the input lane words of one state are built once and
replicated across the frontier by multiplying them by a repunit, the
register lane words repeat each state's bits over its block of lanes.
One ``settle`` gives the sampled (pre-edge) words and one ``edge`` the
next-state words of up to :data:`LANE_CAP` lanes; a level with more lanes
is cut into several such batches, possibly in the middle of a state.  The
words are unpacked into :meth:`StateSpace.successors` in enumeration
order, so discovery order, predecessors and counterexample paths are
those of stepping each pair through the scalar simulator.

Designs with inferred latches are refused: a latched combinational signal
is state the register tuple does not record, so a transition would depend
on history rather than on the state alone.

The traversal is exact and therefore only suitable for designs with modest
register counts and input widths — which covers every design the paper
evaluates (arbiters, small ITC'99 controllers, reduced Rigel stages).
Limits guard against accidental blow-up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

from repro.formal.result import FormalEngineError
from repro.hdl.errors import ElaborationError
from repro.hdl.module import Module
from repro.hdl.synth import synthesize
from repro.sim.batched import CompiledNetlist, pack_lanes, unpack_lanes

State = tuple[int, ...]
Transition = tuple[State, dict[str, int]]

#: Most (state, input vector) lanes one settle+edge batch simulates.
LANE_CAP = 1 << 14


@dataclass
class StateSpace:
    """Reachable-state graph with reset-path reconstruction."""

    module: Module
    max_states: int = 50_000
    max_input_combinations: int = 4_096
    #: Extra constraints applied to every explored input vector (name -> value).
    pinned_inputs: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.register_names: list[str] = list(self.module.state_names)
        self.input_names: list[str] = list(self.module.data_input_names)
        self._input_vectors = self._enumerate_inputs()
        self._synth = synthesize(self.module)
        try:
            self._synth.check_no_latches()
        except ElaborationError as error:
            raise FormalEngineError(
                f"module '{self.module.name}' cannot be explored: {error}"
            ) from error
        #: Built by the first :meth:`explore`; see :meth:`_compile`.
        self._netlist: CompiledNetlist | None = None
        self._input_words: list[tuple[int, int]] = []
        self.reset_state: State = self._compute_reset_state()
        #: first-discovery predecessor: state -> (previous state, input vector)
        self._predecessor: dict[State, tuple[State, dict[str, int]] | None] = {}
        #: state -> its transitions under every input vector, in enumeration order
        self._successors: dict[State, list[Transition]] = {}
        self.reachable: list[State] = []
        self._explored = False
        #: Work counters: lanes simulated and settle+edge batches run.
        self.simulated_transitions = 0
        self.simulated_batches = 0

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

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def successors(self, state: State) -> list[Transition]:
        """``(next_state, sampled valuation)`` of reachable ``state`` under
        each of :attr:`input_vectors`, in order.

        The sampled valuation is the full signal snapshot after combinational
        settling and before the clock edge, keyed in ``module.signals``
        order — exactly the trace row the simulator records for that cycle.
        Input vector 0 sets every free input to 0 (pins applied).
        """
        if not self._explored:
            self.explore()
        return self._successors[state]

    @property
    def input_vectors(self) -> list[dict[str, int]]:
        return [dict(vector) for vector in self._input_vectors]

    def _compile(self) -> None:
        """Build the lane netlist and one state's block of input lane words."""
        self._netlist = CompiledNetlist(self.module, self._synth)
        self._input_words = [
            (slot, word)
            for name in self._input_vectors[0]
            for slot, word in zip(
                self._netlist.slots[name],
                pack_lanes([vector[name] for vector in self._input_vectors],
                           self.module.width_of(name)))
        ]

    def _expand(self, frontier: list[State]) -> None:
        """Fill :attr:`_successors` for every state of one BFS level."""
        per_state = len(self._input_vectors)
        total = len(frontier) * per_state
        transitions: list[Transition] = []
        for start in range(0, total, LANE_CAP):
            transitions += self._simulate(frontier, start, min(start + LANE_CAP, total))
        for index, state in enumerate(frontier):
            self._successors[state] = transitions[index * per_state:(index + 1) * per_state]

    def _simulate(self, frontier: list[State], start: int, stop: int) -> list[Transition]:
        """Transitions of lanes ``start .. stop-1`` of a level, one batch."""
        netlist = self._netlist
        per_state = len(self._input_vectors)
        first, offset = divmod(start, per_state)
        states = frontier[first:(stop - 1) // per_state + 1]
        lanes = stop - start
        mask = (1 << lanes) - 1
        # Words over every lane of ``states``; the batch is a window of them.
        block_ones, block_zeros = "1" * per_state, "0" * per_state
        bits = [0] * netlist.size
        for index, name in enumerate(self.register_names):
            for bit, slot in enumerate(netlist.slots[name]):
                spelled = "".join(block_ones if (state[index] >> bit) & 1 else block_zeros
                                  for state in reversed(states))
                bits[slot] = (int(spelled, 2) >> offset) & mask
        repunit = ((1 << (len(states) * per_state)) - 1) // ((1 << per_state) - 1)
        # Inputs last, as a scalar step pokes them after ``load_state``.
        for slot, word in self._input_words:
            bits[slot] = ((word * repunit) >> offset) & mask

        netlist.settle(bits, mask)
        sampled_words = list(bits)
        netlist.edge(bits, mask)
        self.simulated_transitions += lanes
        self.simulated_batches += 1

        names = list(self.module.signals)
        columns = [unpack_lanes([sampled_words[slot] for slot in netlist.slots[name]], lanes)
                   for name in names]
        sampled = [dict(zip(names, row)) for row in zip(*columns)]
        registers = [unpack_lanes([bits[slot] for slot in netlist.slots[name]], lanes)
                     for name in self.register_names]
        next_states = list(zip(*registers)) if registers else [()] * lanes
        return list(zip(next_states, sampled))

    # ------------------------------------------------------------------
    # exploration
    # ------------------------------------------------------------------
    def explore(self) -> list[State]:
        """Breadth-first exploration from reset; returns the reachable states."""
        if self._explored:
            return self.reachable
        if self._netlist is None:
            self._compile()
        frontier: list[State] = [self.reset_state]
        self._predecessor[self.reset_state] = None
        self.reachable = [self.reset_state]
        seen = {self.reset_state}
        while frontier:
            self._expand(frontier)
            next_frontier: list[State] = []
            for state in frontier:
                for vector, (next_state, _) in zip(self._input_vectors,
                                                   self._successors[state]):
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
