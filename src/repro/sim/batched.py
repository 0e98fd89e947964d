"""Bit-parallel batched simulation of the Verilog subset.

The scalar :class:`~repro.sim.simulator.Simulator` executes statements
one trial at a time.  This engine instead packs ``W`` independent trials
into Python big-int *lanes*: every bit of every signal is stored as one
integer whose bit ``l`` is that signal bit's value in lane ``l``.  The
synthesized next-state and output functions (:func:`repro.hdl.synth
.synthesize`) are bit-blasted once per design (reusing the formal
engines' :class:`~repro.boolean.bitblast.BitBlaster`) and compiled into
straight-line Python code over lane words, so one pass of ``&``/``|``/
``^`` big-int operations advances all ``W`` trials by a clock cycle.

``W`` may be 64 (one machine word per gate on CPython) or arbitrary —
big-int lanes make 256- or 1024-wide batches a constant-factor cost.

Cycle semantics match the scalar engine exactly (the differential suite
in ``tests/sim/test_batched_differential.py`` asserts lane-exact
agreement on every bundled design): reset loads declared reset values,
``step`` applies inputs, settles the combinational network, samples,
then commits non-blocking register updates and re-settles.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Mapping, Sequence

from repro.boolean.bitblast import BitBlaster, default_bit_name
from repro.boolean.expr import (
    BAnd,
    BConst,
    BIte,
    BNot,
    BOr,
    BoolExpr,
    BVar,
    BXor,
)
from repro.hdl.module import Module
from repro.hdl.synth import SynthesizedModule, synthesize
from repro.sim.base import SimulatorBase
from repro.sim.simulator import SimulationError
from repro.sim.trace import Trace


# ----------------------------------------------------------------------
# lane packing helpers
# ----------------------------------------------------------------------
def pack_lanes(values: Sequence[int], width: int) -> list[int]:
    """Pack per-lane integers into ``width`` lane words (LSB first)."""
    words = [0] * width
    limit = (1 << width) - 1
    for lane, value in enumerate(values):
        value = int(value) & limit
        bit = 0
        while value:
            if value & 1:
                words[bit] |= 1 << lane
            value >>= 1
            bit += 1
    return words


#: ``_BIT_BYTES[b]`` turns the ASCII digits ``0``/``1`` into bytes 0 and ``1 << b``.
_BIT_BYTES = [bytes.maketrans(b"01", bytes((0, 1 << bit))) for bit in range(8)]


def unpack_lanes(words: Sequence[int], lanes: int) -> list[int]:
    """Unpack lane words back into one integer per lane.

    Each word is spelled out in binary and translated to one byte per
    lane holding that bit's weight; the words of eight consecutive bits
    OR together as one big int whose bytes are the lanes' values.  Every
    step runs in C, so a lane costs a few byte operations instead of a
    Python loop iteration per lane and bit.
    """
    mask = (1 << lanes) - 1
    spec = f"0{lanes}b"
    values = [0] * lanes
    for low in range(0, len(words), 8):
        packed = 0
        for bit, word in enumerate(words[low:low + 8]):
            if word & mask:
                # Spelled highest lane first, so the bytes read big-endian.
                spelled = format(word & mask, spec).encode()
                packed |= int.from_bytes(spelled.translate(_BIT_BYTES[bit]), "big")
        if packed:
            group = packed.to_bytes(lanes, "little")
            values = (list(group) if low == 0
                      else [value | (byte << low) for value, byte in zip(values, group)])
    return values


# ----------------------------------------------------------------------
# Boolean-DAG → straight-line lane code
# ----------------------------------------------------------------------
class _Emitter:
    """Emit three-address lane code for Boolean-expression DAGs.

    Shared sub-DAGs (BoolExpr nodes compare structurally) are emitted
    once, giving common-subexpression elimination across all outputs of
    one compiled function.  All stored lane words are kept masked to the
    lane count, so negation is ``x ^ M`` and no value ever goes negative.
    """

    def __init__(self, var_slot: Mapping[str, int]):
        self._var_slot = var_slot
        self.lines: list[str] = []
        self._cache: dict[BoolExpr, str] = {}

    def _temp(self, expression: str) -> str:
        name = f"t{len(self.lines)}"
        self.lines.append(f"    {name} = {expression}")
        return name

    def emit(self, node: BoolExpr) -> str:
        """The lane word of ``node``, emitting temps for what is not cached.

        Iterative post-order (bit-level gate graphs nest far deeper than
        the recursion limit): operands are emitted in order, each before
        its parent, so temps are numbered as a recursive walk would.
        """
        cache = self._cache
        stack: list[tuple[BoolExpr, bool]] = [(node, False)]
        while stack:
            current, expanded = stack.pop()
            if current in cache:
                continue
            if isinstance(current, BConst):
                cache[current] = "M" if current.value else "0"
            elif isinstance(current, BVar):
                cache[current] = f"b[{self._var_slot[current.name]}]"
            elif not expanded:
                stack.append((current, True))
                stack.extend((child, False) for child in reversed(current.children()))
            else:
                cache[current] = self._temp(self._expression(current))
        return cache[node]

    def _expression(self, node: BoolExpr) -> str:
        """Right-hand side of ``node``'s temp, its operands already cached."""
        cache = self._cache
        if isinstance(node, BNot):
            return f"{cache[node.operand]} ^ M"
        if isinstance(node, BAnd):
            return " & ".join(cache[op] for op in node.operands)
        if isinstance(node, BOr):
            return " | ".join(cache[op] for op in node.operands)
        if isinstance(node, BXor):
            return f"{cache[node.left]} ^ {cache[node.right]}"
        if isinstance(node, BIte):
            cond = cache[node.cond]
            return f"({cond} & {cache[node.then]}) | (({cond} ^ M) & {cache[node.other]})"
        raise TypeError(  # pragma: no cover - the blaster only produces the above
            f"cannot compile Boolean node {type(node).__name__}")

    def emit_stable(self, node: BoolExpr) -> str:
        """Like :meth:`emit`, but never returns a raw ``b[...]`` read.

        Used for clock-edge commits, where every next-state value must be
        materialised before any register slot is overwritten.
        """
        result = self.emit(node)
        if result.startswith("b["):
            result = self._temp(result)
            self._cache[node] = result
        return result

    def flush_temps(self) -> None:
        """Drop cached temps (keep slot reads and constants).

        Called after slot writes: a temp holds the value its inputs had
        when it was computed, so it may no longer equal a recomputation.
        """
        self._cache = {node: value for node, value in self._cache.items()
                       if not value.startswith("t")}


def _compile_lines(fn_name: str, lines: Sequence[str]) -> Callable:
    body = list(lines) or ["    pass"]
    source = f"def {fn_name}(b, M):\n" + "\n".join(body)
    namespace: dict = {}
    exec(compile(source, f"<lane:{fn_name}>", "exec"), namespace)
    return namespace[fn_name]


class CompiledNetlist:
    """Lane-parallel compiled form of a synthesized module.

    Allocates one slot per signal bit, compiles a ``settle`` function
    (combinational targets in dependency order) and an ``edge`` function
    (all next-state values computed, then committed).

    The netlist is immutable and lane-count agnostic (the lane mask is an
    argument), so one instance can back any number of simulators.
    """

    def __init__(self, module: Module, synth: SynthesizedModule | None = None):
        module.validate()
        self.module = module
        self.synth = synth if synth is not None else synthesize(module)
        self.slots: dict[str, list[int]] = {}
        self._var_slot: dict[str, int] = {}
        index = 0
        for name, signal in module.signals.items():
            lane_slots = list(range(index, index + signal.width))
            self.slots[name] = lane_slots
            for bit, slot in enumerate(lane_slots):
                self._var_slot[default_bit_name(name, bit)] = slot
            index += signal.width
        self.size = index
        self._blaster = BitBlaster(module.width_of)
        self.settle = self._compile_settle()
        self.edge = self._compile_edge()

    # ------------------------------------------------------------------
    def _compile_settle(self) -> Callable:
        emitter = _Emitter(self._var_slot)
        for name in self.synth.comb_order:
            width = self.module.width_of(name)
            bits = self._blaster.blast(self.synth.comb[name], width)
            # Emit every bit of this target before writing any of its slots
            # (a latched target may read its own previous value), then flush
            # derived temps: a temp computed from the old slot contents must
            # not satisfy a cache hit after the slot has been overwritten.
            values = [emitter.emit(bit_expr) for bit_expr in bits]
            for slot, value in zip(self.slots[name], values):
                emitter.lines.append(f"    b[{slot}] = {value}")
            emitter.flush_temps()
        return _compile_lines("_settle", emitter.lines)

    def _compile_edge(self) -> Callable:
        emitter = _Emitter(self._var_slot)
        commits: list[tuple[int, str]] = []
        for name in self.synth.registers:
            width = self.module.width_of(name)
            bits = self._blaster.blast(self.synth.next_state[name], width)
            for slot, bit_expr in zip(self.slots[name], bits):
                commits.append((slot, emitter.emit_stable(bit_expr)))
        for slot, value in commits:
            emitter.lines.append(f"    b[{slot}] = {value}")
        return _compile_lines("_edge", emitter.lines)


# ----------------------------------------------------------------------
# sampled values
# ----------------------------------------------------------------------
class BatchSample:
    """Immutable view of one sampled batch cycle.

    Values are unpacked lazily: coverage and benchmarks work on the raw
    lane words, while trace building extracts per-lane integers only for
    the columns it records.
    """

    __slots__ = ("_slots", "_words", "lanes")

    def __init__(self, slots: Mapping[str, list[int]], words: Sequence[int], lanes: int):
        self._slots = slots
        self._words = words
        self.lanes = lanes

    def word(self, name: str, bit: int = 0) -> int:
        """Lane word of one signal bit."""
        return self._words[self._slots[name][bit]]

    def words(self, name: str) -> list[int]:
        return [self._words[slot] for slot in self._slots[name]]

    def value(self, name: str, lane: int) -> int:
        value = 0
        for bit, slot in enumerate(self._slots[name]):
            value |= ((self._words[slot] >> lane) & 1) << bit
        return value

    def values(self, name: str) -> list[int]:
        return unpack_lanes(self.words(name), self.lanes)

    def lane(self, lane: int, columns: Iterable[str] | None = None) -> dict[str, int]:
        names = columns if columns is not None else self._slots.keys()
        return {name: self.value(name, lane) for name in names}

    @property
    def raw_words(self) -> Sequence[int]:
        """The underlying slot words (one lane word per signal bit)."""
        return self._words


def _lane_traces(netlist: "CompiledNetlist", columns: Sequence[str],
                 cycle_words: Sequence[Sequence[int]], lanes: int,
                 lengths: Sequence[int] | None = None) -> list[Trace]:
    """Unpack per-cycle slot words into one :class:`Trace` per lane.

    Each signal bit's cycle words are laid end to end as one big int,
    ``stride`` bits per cycle, so one :func:`unpack_lanes` call yields a
    column's value at every (cycle, lane) position; lane ``l``'s rows are
    then the slice starting at ``l`` with step ``stride``.
    """
    cycles = len(cycle_words)
    nbytes = (lanes + 7) // 8
    stride = nbytes * 8
    values = [
        unpack_lanes([int.from_bytes(b"".join(words[slot].to_bytes(nbytes, "little")
                                             for words in cycle_words), "little")
                      for slot in netlist.slots[name]],
                     cycles * stride)
        for name in columns
    ]
    traces: list[Trace] = []
    for lane in range(lanes if lengths is None else len(lengths)):
        length = cycles if lengths is None else min(lengths[lane], cycles)
        stop = lane + length * stride
        trace = Trace(tuple(columns))
        trace.rows = (list(zip(*(column[lane:stop:stride] for column in values)))
                      if values else [()] * length)
        traces.append(trace)
    return traces


class LaneWordBlock:
    """Lane-packed history of one batched run: per-cycle slot words.

    This is the zero-copy hand-off between the batched simulator and the
    columnar miner (:meth:`repro.mining.columnar.ColumnarDataset
    .add_lane_block`): ``word(name, bit, cycle)`` returns the raw lane
    word — bit ``l`` is lane ``l``'s value of that signal bit at that
    cycle — without ever transposing to per-lane rows.  :meth:`to_traces`
    still widens the block into one :class:`Trace` per lane for ragged
    batches.
    """

    __slots__ = ("netlist", "trace_columns", "cycle_words", "lanes", "lengths")

    def __init__(self, netlist: CompiledNetlist, trace_columns: Sequence[str],
                 cycle_words: Sequence[Sequence[int]], lanes: int,
                 lengths: Sequence[int] | None = None):
        self.netlist = netlist
        self.trace_columns = tuple(trace_columns)
        self.cycle_words = list(cycle_words)
        self.lanes = lanes
        self.lengths = list(lengths) if lengths is not None else None

    @property
    def cycles(self) -> int:
        return len(self.cycle_words)

    def word(self, name: str, bit: int, cycle: int) -> int:
        """Lane word of one signal bit at one cycle."""
        return self.cycle_words[cycle][self.netlist.slots[name][bit]]

    def to_traces(self) -> list[Trace]:
        """Widen the block into one per-lane :class:`Trace` each."""
        return _lane_traces(self.netlist, self.trace_columns, self.cycle_words,
                            self.lanes, self.lengths)


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class BatchedSimulator(SimulatorBase):
    """Simulates ``lanes`` independent trials per step, bit-parallel.

    ``peek``/``poke``/``snapshot`` accept and return per-lane lists where
    the scalar engine uses single integers; a plain int broadcast-pokes
    every lane.  Statement-level observers are not supported (there are
    no statements at runtime — the design has been compiled to a
    netlist); coverage is measured on the scalar engine.
    """

    def __init__(self, module: Module, lanes: int = 64,
                 trace_columns: Sequence[str] | None = None,
                 synth: SynthesizedModule | None = None,
                 netlist: CompiledNetlist | None = None):
        if lanes < 1:
            raise ValueError("lane count must be positive")
        if netlist is not None and netlist.module is not module:
            raise ValueError("netlist was compiled for a different module")
        self.netlist = (netlist if netlist is not None
                        else CompiledNetlist(module, synth))
        super().__init__(module, trace_columns)
        self._lanes = lanes
        self._mask = (1 << lanes) - 1
        self._bits: list[int] = [0] * self.netlist.size
        self.reset()

    # ------------------------------------------------------------------
    @property
    def lanes(self) -> int:
        return self._lanes

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Put every lane into the design's reset state."""
        bits = [0] * self.netlist.size
        for name in self.module.state_names:
            value = self.module.signal(name).reset_value
            for bit, slot in enumerate(self.netlist.slots[name]):
                if (value >> bit) & 1:
                    bits[slot] = self._mask
        self._bits = bits
        self.netlist.settle(bits, self._mask)
        self.cycle_count = 0

    def poke(self, name: str, value) -> None:
        """Set a signal: an int broadcasts, a sequence sets per-lane values."""
        try:
            slots = self.netlist.slots[name]
        except KeyError:
            raise SimulationError(f"unknown signal '{name}'") from None
        bits = self._bits
        if isinstance(value, int):
            for bit, slot in enumerate(slots):
                bits[slot] = self._mask if (value >> bit) & 1 else 0
        else:
            # Values beyond the lane count are ignored; missing lanes are 0.
            for slot, word in zip(slots, pack_lanes(list(value), len(slots))):
                bits[slot] = word & self._mask

    def poke_words(self, name: str, words: Sequence[int]) -> None:
        """Set a signal's lane words directly (LSB first, already packed)."""
        for slot, word in zip(self.netlist.slots[name], words):
            self._bits[slot] = word & self._mask

    def peek(self, name: str) -> list[int]:
        """Per-lane values of ``name`` (index ``l`` is lane ``l``)."""
        return unpack_lanes([self._bits[s] for s in self.netlist.slots[name]], self._lanes)

    def peek_lane(self, name: str, lane: int) -> int:
        value = 0
        for bit, slot in enumerate(self.netlist.slots[name]):
            value |= ((self._bits[slot] >> lane) & 1) << bit
        return value

    def snapshot(self) -> dict[str, list[int]]:
        return {name: self.peek(name) for name in self.module.signals}

    def load_state(self, registers: Mapping[str, object]) -> None:
        """Set register values (broadcast int or per-lane sequence) and settle."""
        for name, value in registers.items():
            self.poke(name, value)
        self.netlist.settle(self._bits, self._mask)

    def step(self, inputs: Mapping[str, object] | None = None) -> BatchSample:
        """Advance all lanes one cycle; return the pre-edge sample.

        ``inputs`` maps input names to a broadcast int or a per-lane
        sequence; unspecified inputs keep their previous lane values,
        exactly like the scalar engine.
        """
        if inputs:
            for name, value in inputs.items():
                if name not in self.module.signals:
                    raise SimulationError(f"unknown input '{name}'")
                self.poke(name, value)
        bits, mask = self._bits, self._mask
        self.netlist.settle(bits, mask)
        sampled = BatchSample(self.netlist.slots, tuple(bits), self._lanes)
        self.netlist.edge(bits, mask)
        self.netlist.settle(bits, mask)
        self.cycle_count += 1
        return sampled

    # ------------------------------------------------------------------
    # batch drivers
    # ------------------------------------------------------------------
    def run_batch(self, vector_lists: Sequence[Sequence[Mapping[str, int]]],
                  reset: bool = True) -> list[Trace]:
        """Run one per-lane list of input vectors; return one trace per lane.

        Lists may have different lengths: finished lanes hold their last
        inputs and their traces stop at their own length.  At most
        :attr:`lanes` lists can be driven at once.
        """
        return self.run_batch_block(vector_lists, reset=reset).to_traces()

    def run_batch_block(self, vector_lists: Sequence[Sequence[Mapping[str, int]]],
                        reset: bool = True) -> LaneWordBlock:
        """Like :meth:`run_batch`, but return the lane-packed words."""
        if len(vector_lists) > self._lanes:
            raise SimulationError(
                f"{len(vector_lists)} sequences exceed the {self._lanes}-lane batch"
            )
        if reset:
            self.reset()
        depth = max((len(vectors) for vectors in vector_lists), default=0)
        cycle_words: list[Sequence[int]] = []
        for t in range(depth):
            stacked: dict[str, list[int]] = {}
            for lane, vectors in enumerate(vector_lists):
                if t < len(vectors):
                    for name, value in vectors[t].items():
                        if name not in stacked:
                            if name not in self.module.signals:
                                raise SimulationError(f"unknown input '{name}'")
                            stacked[name] = self.peek(name)
                        stacked[name][lane] = int(value)
            cycle_words.append(self.step(stacked).raw_words)
        return LaneWordBlock(self.netlist, self.trace_columns, cycle_words,
                             self._lanes, [len(vectors) for vectors in vector_lists])

    def run_random(self, cycles: int, seed: int = 0,
                   bias: Mapping[str, float] | None = None,
                   collect_traces: bool = True) -> list[Trace]:
        """Drive every lane with an independent uniform random stream.

        Random lane words are generated bit-parallel (one ``getrandbits``
        per input bit per cycle), so stimulus generation scales with the
        design's input width, not with the lane count.  ``bias`` gives a
        per-signal probability of driving 1 on single-bit inputs, like
        :class:`~repro.sim.stimulus.RandomStimulus`.
        """
        if not collect_traces:
            self.run_random_block(cycles, seed=seed, bias=bias, collect_words=False)
            return []
        return self.run_random_block(cycles, seed=seed, bias=bias).to_traces()

    def run_random_block(self, cycles: int, seed: int = 0,
                         bias: Mapping[str, float] | None = None,
                         collect_words: bool = True) -> LaneWordBlock:
        """Like :meth:`run_random`, but return the lane-packed words.

        The random stream is identical to :meth:`run_random` for the same
        ``(cycles, seed, bias)``, so the block is the same data the trace
        path would record — just left in lane-word form for zero-copy
        consumers (the columnar miner, the coverage flag evaluator).
        """
        rng = random.Random(seed)
        bias = bias or {}
        inputs = [(name, self.netlist.slots[name]) for name in self.module.data_input_names]
        self.reset()
        cycle_words: list[Sequence[int]] = []
        bits, lanes = self._bits, self._lanes
        for _ in range(cycles):
            for name, slots in inputs:
                probability = bias.get(name)
                if probability is not None and len(slots) == 1:
                    word = 0
                    for lane in range(lanes):
                        if rng.random() < probability:
                            word |= 1 << lane
                    bits[slots[0]] = word
                else:
                    for slot in slots:
                        bits[slot] = rng.getrandbits(lanes)
            sampled = self.step()
            if collect_words:
                cycle_words.append(sampled.raw_words)
        return LaneWordBlock(self.netlist, self.trace_columns, cycle_words, lanes)

