"""Windowed mining datasets built from simulation traces.

The A-Miner's input is a table whose rows are *mining windows*: for each
starting cycle ``t`` of a trace, the values of every logic-cone signal bit
at offsets ``0 .. window-1`` (the features) plus the value of the target
output bit at the target offset.  Each feature, and the target, is a
:class:`FeatureSpec`: a signal bit at an offset, which converts directly
into an assertion literal.  The feature space is fixed when a dataset is
built (:func:`enumerate_features` over the cone from
:func:`repro.analysis.cone.mining_features`).

:class:`MiningDataset` is the row-wise test reference: it keys its rows
by the features' text names (``signal@offset``, ``signal[bit]@offset``).
The closure loop mines on :class:`repro.mining.columnar.ColumnarDataset`,
which shares this module's feature enumeration and target placement and
is held row-for-row identical to it by the mining differential tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.analysis.cone import mining_features
from repro.assertions.assertion import Literal
from repro.hdl.module import Module
from repro.hdl.synth import SynthesizedModule, synthesize
from repro.sim.trace import Trace


@dataclass(frozen=True)
class FeatureSpec:
    """One mined signal bit at a window offset: a feature or the target.

    The spec itself is a feature's identity: the columnar dataset keys its
    bitsets by it, tree paths and splits hold it, and a path step becomes
    an assertion literal through :meth:`to_literal`.  :attr:`column` is
    its text name, which the row-wise reference keys its rows by.
    """

    signal: str
    cycle: int
    bit: int | None = None

    @property
    def column(self) -> str:
        base = self.signal if self.bit is None else f"{self.signal}[{self.bit}]"
        return f"{base}@{self.cycle}"

    def extract(self, row: Mapping[str, int]) -> int:
        value = row[self.signal]
        if self.bit is None:
            return value
        return (value >> self.bit) & 1

    def to_literal(self, value: int) -> Literal:
        return Literal(self.signal, value, self.cycle, self.bit)


def _bit_features(module: Module, signal: str, cycle: int) -> list[FeatureSpec]:
    width = module.width_of(signal)
    if width == 1:
        return [FeatureSpec(signal, cycle, None)]
    return [FeatureSpec(signal, cycle, bit) for bit in range(width)]


def resolve_target(module: Module, output: str, window: int,
                   output_bit: int | None,
                   synth: SynthesizedModule | None) -> tuple[SynthesizedModule, bool, FeatureSpec]:
    """Validate a mining subject and place its target offset.

    Shared by the row-wise and columnar datasets so both agree exactly on
    validation errors and on where the target lives (offset ``window``
    for sequential outputs, ``window - 1`` for combinational ones).
    Returns ``(synth, sequential_target, target_spec)``.
    """
    if window < 1:
        raise ValueError("mining window must be at least 1")
    if not module.has_signal(output):
        raise KeyError(f"'{output}' is not a signal of module '{module.name}'")
    if module.width_of(output) > 1 and output_bit is None:
        raise ValueError(
            f"output '{output}' is {module.width_of(output)} bits wide; "
            "specify output_bit to mine one bit at a time"
        )
    synth = synth or synthesize(module)
    sequential = output in synth.next_state
    target_cycle = window if sequential else window - 1
    return synth, sequential, FeatureSpec(output, target_cycle, output_bit)


def enumerate_features(module: Module, output: str, window: int,
                       synth: SynthesizedModule, *,
                       include_internal_state: bool,
                       sequential_target: bool,
                       target_cycle: int) -> list[FeatureSpec]:
    """The cone-restricted feature space, one spec per signal bit.

    The enumeration order (offsets ascending, cone order within an
    offset, bits ascending within a signal) is the *column order* both
    mining engines share — it is the documented tie-break for split
    selection, so it must stay identical between them.
    """
    per_offset = mining_features(
        module,
        output,
        window,
        synth,
        include_internal_state=include_internal_state,
        sequential_target=sequential_target,
    )
    features: list[FeatureSpec] = []
    for offset in sorted(per_offset):
        for name in per_offset[offset]:
            if name == output and offset == target_cycle:
                continue
            features.extend(_bit_features(module, name, offset))
    return features


@dataclass
class MiningDataset:
    """Feature/target rows for one output of one module.

    ``window`` is the number of observed cycles; the target lives at offset
    ``window`` for sequential outputs (registers: the value after the last
    observed cycle's clock edge) and at offset ``window - 1`` for
    combinational outputs.
    """

    module: Module
    output: str
    window: int = 1
    output_bit: int | None = None
    include_internal_state: bool = True
    synth: SynthesizedModule | None = None

    features: list[FeatureSpec] = field(init=False, default_factory=list)
    target: FeatureSpec = field(init=False)
    rows: list[tuple[dict[str, int], int]] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        self.synth, self._sequential_target, self.target = resolve_target(
            self.module, self.output, self.window, self.output_bit, self.synth)
        self.features = enumerate_features(
            self.module, self.output, self.window, self.synth,
            include_internal_state=self.include_internal_state,
            sequential_target=self._sequential_target,
            target_cycle=self.target.cycle,
        )

    # ------------------------------------------------------------------
    @property
    def is_sequential_target(self) -> bool:
        return self._sequential_target

    @property
    def span(self) -> int:
        """Number of trace cycles one row consumes."""
        return self.target.cycle + 1

    @property
    def feature_columns(self) -> list[str]:
        return [feature.column for feature in self.features]

    def __len__(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------------
    def add_trace(self, trace: Trace) -> int:
        """Extract every window from ``trace``; returns the number of rows added."""
        span = self.span
        starts = max(len(trace) - span + 1, 0)
        for start in range(starts):
            self.add_window({offset: trace.cycle(start + offset)
                             for offset in range(span)})
        return starts

    def add_traces(self, traces: Iterable[Trace]) -> int:
        """Extract windows from several traces; returns total rows added.

        This is the natural ingestion point for the batched simulation
        engine, which returns one trace per lane
        (:meth:`repro.sim.batched.BatchedSimulator.run_random` /
        :meth:`~repro.sim.batched.BatchedSimulator.run_batch`): windows
        never straddle lane boundaries, since every lane starts from reset.
        """
        return sum(self.add_trace(trace) for trace in traces)

    def add_lane_block(self, block) -> int:
        """Ingest a :class:`~repro.sim.batched.LaneWordBlock`.

        The row-wise representation has no zero-copy path — the block is
        widened to per-lane traces first.  (The columnar dataset consumes
        the lane words directly; see
        :meth:`repro.mining.columnar.ColumnarDataset.add_lane_block`.)
        """
        return self.add_traces(block.to_traces())

    def add_window(self, valuations: Mapping[int, Mapping[str, int]]) -> None:
        """Add one explicit window of per-offset valuations.

        A bit-``None`` feature keeps the raw word; both engines treat
        nonzero as 1.
        """
        feature_values = {feature.column: feature.extract(valuations[feature.cycle])
                          for feature in self.features}
        target_value = self.target.extract(valuations[self.target.cycle])
        self.rows.append((feature_values, target_value))

    # ------------------------------------------------------------------
    def feature_literal(self, column: str, value: int) -> Literal:
        """Convert a feature column name + value back into a Literal."""
        for feature in self.features:
            if feature.column == column:
                return feature.to_literal(value)
        raise KeyError(f"unknown feature column '{column}'")

    def target_values(self) -> list[int]:
        return [target for _, target in self.rows]

    def column_values(self, column: str) -> list[int]:
        return [values.get(column, 0) for values, _ in self.rows]

    def distinct_rows(self) -> int:
        """Number of distinct feature/target rows (duplicates collapse)."""
        seen = set()
        for values, target in self.rows:
            seen.add((tuple(sorted(values.items())), target))
        return len(seen)
