"""Logic cone-of-influence extraction (GoldMine's static analyzer).

Definition 8 of the paper: "The logic cone of an output z in M is the set
of variables that affect z."  The A-Miner restricts its feature space to
the logic cone, windowed: :func:`windowed_cone` tells it which cycle
offsets of each variable are relevant for a given mining window.
"""

from __future__ import annotations

from repro.hdl.module import Module
from repro.hdl.synth import SynthesizedModule, synthesize


def windowed_cone(module: Module, output: str, window: int,
                  synth: SynthesizedModule | None = None,
                  sequential_target: bool | None = None) -> dict[int, set[str]]:
    """Per-offset relevant signals for mining a window of length ``window``.

    Returns ``{offset: signals}`` for offsets ``0 .. window-1`` where the
    signals at that offset can influence the target:

    * the value of register ``output`` *after* the final observed cycle's
      clock edge when the target is sequential (the default for registers),
    * the value of ``output`` at the final observed cycle when the target
      is combinational.

    This is the feature space the A-Miner explores; the clock and reset are
    always excluded (the data generator keeps reset de-asserted).
    """
    synth = synth or synthesize(module)
    if sequential_target is None:
        sequential_target = output in synth.next_state
    skip = {module.clock, module.reset} - {None}

    cones: dict[int, set[str]] = {}
    if sequential_target:
        # Offset window-1 (the last observed cycle) influences the target
        # through the register's next-state function.
        frontier = synth.support_of(output) - skip
    else:
        frontier = (synth.support_of(output) | {output}) - skip

    for offset in range(window - 1, -1, -1):
        cones[offset] = set(frontier)
        # Going one cycle earlier: registers present in the frontier were
        # written at the previous cycle, so their next-state supports become
        # relevant; inputs are free and contribute nothing further back.
        previous: set[str] = set()
        for name in frontier:
            if name in synth.next_state:
                previous |= synth.support_of(name)
        previous |= frontier  # values a cycle earlier can still matter via state
        frontier = previous - skip
    return cones


def mining_features(module: Module, output: str, window: int,
                    synth: SynthesizedModule | None = None,
                    include_internal_state: bool = True,
                    sequential_target: bool | None = None) -> dict[int, list[str]]:
    """Feature signals per offset, in a deterministic order.

    ``include_internal_state`` keeps registers and combinational internals
    in the feature space (Section 3.1: the trace "may have internal
    register state visible"); when False, only primary inputs are offered.
    """
    synth = synth or synthesize(module)
    cones = windowed_cone(module, output, window, synth, sequential_target)
    inputs = set(module.data_input_names)
    features: dict[int, list[str]] = {}
    for offset, names in cones.items():
        kept = []
        for name in sorted(names):
            if name in inputs:
                kept.append(name)
            elif include_internal_state and name != output:
                kept.append(name)
            elif include_internal_state and name == output and offset < window:
                # The target's own previous value is a legitimate feature for
                # sequential designs (e.g. gnt0(t) when predicting gnt0(t+1)).
                kept.append(name)
        features[offset] = kept
    return features
