"""Layer spans recorded from outside the program.

:class:`Instrumentation` wraps the public entry points of each layer of
``repro`` (class methods and module functions) so every call records a
span on a :class:`Recorder`.  A layer's *self time* is the duration of its
spans minus the part their child spans cover; its *busy time* is the
wall time of its outermost spans.  Nothing in ``repro`` is modified on
disk, and :meth:`Instrumentation.uninstall` restores every original, so
the benchmark can alternate traced and untraced passes in one process.

Formal worker processes are forked with the wrappers in place.  Each
worker resets its own recorder and reports its span totals through the
engine's ``reuse_stats()`` under :data:`WORKER_KEY_PREFIX` keys, which the
worker pool sums into ``ClosureResult.formal_reuse`` like any other int
counter.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: Prefix of the worker span totals smuggled through ``formal_reuse``.
WORKER_KEY_PREFIX = "perfbench_trace."

#: Layers whose self times are compared; ``wait`` is time the parent
#: spends blocked on formal worker processes, reported on its own.
LAYERS = ("core", "hdl", "sim", "mining", "formal", "boolean", "ir",
          "analysis", "coverage")

#: (module, class or None, attribute, span name).  The layer is the span
#: name up to the first dot.
ENTRY_POINTS = (
    ("repro.designs", "DesignInfo", "build", "hdl.build"),
    ("repro.hdl.parser", None, "parse_module", "hdl.parse"),
    ("repro.hdl.synth", None, "synthesize", "hdl.synth"),
    ("repro.sim.simulator", "Simulator", "__init__", "sim"),
    ("repro.sim.simulator", "Simulator", "run", "sim"),
    ("repro.sim.batched", "BatchedSimulator", "__init__", "sim"),
    ("repro.sim.batched", "BatchedSimulator", "run_batch", "sim"),
    ("repro.sim.batched", "BatchedSimulator", "run_batch_block", "sim"),
    ("repro.sim.batched", "BatchedSimulator", "run_random", "sim"),
    ("repro.sim.batched", "BatchedSimulator", "run_random_block", "sim"),
    ("repro.core.goldmine", "GoldMine", "build_dataset", "mining"),
    ("repro.mining.dataset", "MiningDataset", "add_trace", "mining"),
    ("repro.mining.columnar", "ColumnarDataset", "add_trace", "mining"),
    ("repro.mining.columnar", "ColumnarDataset", "add_lane_block", "mining"),
    ("repro.mining.decision_tree", "DecisionTree", "build", "mining"),
    ("repro.mining.decision_tree", "DecisionTree", "candidate_assertions", "mining"),
    ("repro.mining.incremental_tree", "IncrementalDecisionTree", "build", "mining"),
    ("repro.mining.incremental_tree", "IncrementalDecisionTree", "add_trace", "mining"),
    ("repro.mining.columnar", "ColumnarDecisionTree", "build", "mining"),
    ("repro.mining.columnar", "ColumnarDecisionTree", "candidate_assertions", "mining"),
    ("repro.mining.columnar", "ColumnarIncrementalDecisionTree", "build", "mining"),
    ("repro.mining.columnar", "ColumnarIncrementalDecisionTree", "add_trace", "mining"),
    ("repro.formal.checker", "FormalVerifier", "check_all", "formal"),
    ("repro.formal.explicit", "ExplicitModelChecker", "check", "formal"),
    ("repro.formal.bmc", "BmcModelChecker", "check", "formal"),
    ("repro.formal.induction", "KInductionModelChecker", "check", "formal"),
    ("repro.formal.parallel", "FormalWorkerPool", "check_batch", "wait"),
    ("repro.boolean.incremental", "IncrementalSolver", "solve_query", "boolean"),
    ("repro.boolean.incremental", "IncrementalSolver", "assert_expr", "boolean"),
    ("repro.boolean.incremental", "IncrementalSolver", "guard_expr", "boolean"),
    ("repro.boolean.sat", "SatSolver", "solve", "boolean"),
    ("repro.ir.netlist", "NetlistIR", "__init__", "ir"),
    ("repro.ir.netlist", "OptimizedDesign", "__init__", "ir"),
    ("repro.ir.netlist", "OptimizedDesign", "slice_for", "ir"),
    ("repro.analysis.unroll", "Unroller", "__init__", "analysis"),
    ("repro.analysis.unroll", "Unroller", "unroll", "analysis"),
    ("repro.coverage.runner", "CoverageRunner", "__init__", "coverage"),
    ("repro.coverage.runner", "CoverageRunner", "run_suite", "coverage"),
    ("repro.coverage.runner", "CoverageRunner", "report", "coverage"),
)

#: Engines whose ``reuse_stats()`` carries worker span totals home.
REUSE_STATS = (("repro.formal.bmc", "BmcModelChecker"),
               ("repro.formal.induction", "KInductionModelChecker"))


def _sim_cycles(value) -> int:
    """Simulated (lane-)cycles in a sim entry point's return value."""
    if isinstance(value, list):
        return sum(_sim_cycles(item) for item in value)
    if hasattr(value, "cycle_words"):  # LaneWordBlock
        if value.lengths is not None:
            return sum(value.lengths)
        return value.cycles * value.lanes
    try:
        return len(value)
    except TypeError:
        return 0


class Recorder:
    """Per-process span accumulator (self and busy seconds per name)."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.active = False
        self.in_worker = False
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.busy_s: dict[str, float] = {}
        self.sim_cycles = 0

    def enter(self, name: str) -> None:
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> bool:
        """Close the innermost span; True if it was the outermost of its name."""
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        layer = name.split(".", 1)[0]
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - children
        self._depth[name] -= 1
        outermost = self._depth[name] == 0
        if outermost:
            self.busy_s[name] = self.busy_s.get(name, 0.0) + duration
        if self._stack:
            self._stack[-1][2] += duration
        return outermost

    def worker_totals(self) -> dict[str, int]:
        """Span totals in integer nanoseconds, for the pool's sum-merge."""
        totals = {f"{WORKER_KEY_PREFIX}self.{layer}": int(seconds * 1e9)
                  for layer, seconds in self.self_s.items()}
        totals.update({f"{WORKER_KEY_PREFIX}busy.{name}": int(seconds * 1e9)
                       for name, seconds in self.busy_s.items()})
        return totals


def worker_spans(formal_reuse: dict) -> tuple[dict, dict]:
    """Split worker span totals out of a ``formal_reuse`` dict (seconds)."""
    self_s: dict[str, float] = {}
    busy_s: dict[str, float] = {}
    for key, value in formal_reuse.items():
        if key.startswith(WORKER_KEY_PREFIX):
            kind, name = key[len(WORKER_KEY_PREFIX):].split(".", 1)
            target = self_s if kind == "self" else busy_s
            target[name] = target.get(name, 0.0) + value / 1e9
    return self_s, busy_s


class Instrumentation:
    """Installs span wrappers on every entry point in :data:`ENTRY_POINTS`."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _span(self, name: str, function):
        recorder = self.recorder
        counts_cycles = name == "sim" and function.__name__ != "__init__"

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return function(*args, **kwargs)
            recorder.enter(name)
            value = None
            try:
                value = function(*args, **kwargs)
                return value
            finally:
                if recorder.exit() and counts_cycles:
                    recorder.sim_cycles += _sim_cycles(value)

        return wrapper

    def _worker_main(self, function):
        recorder = self.recorder

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            recorder.reset()
            recorder.active = recorder.in_worker = True
            return function(*args, **kwargs)

        return wrapper

    def _reuse_stats(self, function):
        recorder = self.recorder

        @functools.wraps(function)
        def wrapper(engine):
            stats = function(engine)
            if recorder.in_worker:
                stats.update(recorder.worker_totals())
            return stats

        return wrapper

    def _replace(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._undo:
            return
        for module_name, class_name, attribute, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(module, class_name)
                self._replace(owner, attribute,
                              self._span(name, owner.__dict__[attribute]))
                continue
            # A module function is also bound by ``from x import f`` in
            # every importer: rebind each of those names too.
            original = getattr(module, attribute)
            wrapped = self._span(name, original)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and \
                        getattr(loaded, attribute, None) is original:
                    self._replace(loaded, attribute, wrapped)
        parallel = importlib.import_module("repro.formal.parallel")
        self._replace(parallel, "_worker_main",
                      self._worker_main(parallel._worker_main))
        for module_name, class_name in REUSE_STATS:
            owner = getattr(importlib.import_module(module_name), class_name)
            self._replace(owner, "reuse_stats",
                          self._reuse_stats(owner.__dict__["reuse_stats"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)
