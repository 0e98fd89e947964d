"""Running stimulus through an instrumented simulator and reporting coverage."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.coverage.collectors import CoverageCollector, default_collectors
from repro.coverage.report import CoverageReport
from repro.hdl.module import Module
from repro.sim.simulator import Simulator
from repro.sim.stimulus import Stimulus


class CoverageRunner:
    """Replays stimulus on an instrumented simulator and accumulates coverage.

    The same runner instance can replay several test sequences (resetting
    the design between sequences, which is how the refined test suite —
    seed plus every counterexample pattern — is applied); coverage points
    accumulate across all of them.

    Every sequence replays on the compiled
    :class:`~repro.sim.simulator.Simulator`, with the collectors compiled
    in as probes, one sequence at a time.

    Typical use::

        runner = CoverageRunner(module, fsm_signals=["state"])
        runner.run_suite(result.test_suite)   # each sequence from reset
        report = runner.report()              # merged CoverageReport
        report.percent("line"), report.as_dict()

    For one-shot measurements, :func:`measure_coverage` wraps the
    construct/replay/report cycle in a single call.

    ``engine`` and ``lanes`` are kept only so the closure benchmark's
    ``CoverageRunner(..., engine=config.sim_engine,
    lanes=config.sim_lanes)`` keeps running: ``engine`` must be
    ``"scalar"`` and ``lanes`` is ignored.
    """

    def __init__(self, module: Module, collectors: Sequence[CoverageCollector] | None = None,
                 fsm_signals: Sequence[str] | None = None,
                 prepend_reset: bool = False, *,
                 engine: str = "scalar", lanes: int = 1):
        if engine != "scalar":
            raise ValueError(f"unknown coverage engine '{engine}' (only 'scalar')")
        self.module = module
        self.collectors = list(collectors) if collectors is not None else \
            default_collectors(module, fsm_signals)
        self.simulator = Simulator(module, observers=self.collectors)
        self.cycles_run = 0
        #: When true, every replayed sequence starts with one cycle of
        #: asserted reset (the way a real testbench applies each test),
        #: which lets the reset branches count towards coverage.
        self.prepend_reset = prepend_reset

    # ------------------------------------------------------------------
    def _with_reset(self, vectors: Sequence[Mapping[str, int]]) -> list[dict[str, int]]:
        if not self.prepend_reset or self.module.reset is None:
            return [dict(v) for v in vectors]
        prefixed: list[dict[str, int]] = [{self.module.reset: 1}]
        prefixed.extend({**dict(v), self.module.reset: 0} for v in vectors)
        return prefixed

    def _replay(self, vectors: Sequence[Mapping[str, int]]) -> None:
        trace = self.simulator.run_vectors(self._with_reset(vectors))
        self.cycles_run += len(trace)

    def run_stimulus(self, stimulus: Stimulus) -> None:
        self._replay(list(stimulus.cycles(self.module)))

    def run_vectors(self, vectors: Sequence[Mapping[str, int]]) -> None:
        if vectors:
            self._replay(vectors)

    def run_suite(self, test_suite: Iterable[Sequence[Mapping[str, int]]]) -> None:
        for sequence in test_suite:
            self.run_vectors(sequence)

    # ------------------------------------------------------------------
    def report(self) -> CoverageReport:
        report = CoverageReport(self.module.name)
        for collector in self.collectors:
            report.add(collector.report())
        return report


def measure_coverage(module: Module,
                     stimulus: Stimulus | Sequence[Mapping[str, int]] |
                     Iterable[Sequence[Mapping[str, int]]] | None = None,
                     test_suite: Iterable[Sequence[Mapping[str, int]]] | None = None,
                     fsm_signals: Sequence[str] | None = None) -> CoverageReport:
    """Measure coverage of ``stimulus`` and/or a ``test_suite`` on ``module``.

    ``stimulus`` may be a :class:`Stimulus` or one explicit vector list;
    ``test_suite`` is a list of vector lists (each replayed from reset).
    """
    runner = CoverageRunner(module, fsm_signals=fsm_signals)
    if stimulus is not None:
        if isinstance(stimulus, Stimulus):
            runner.run_stimulus(stimulus)
        else:
            stimulus = list(stimulus)
            if stimulus and isinstance(stimulus[0], Mapping):
                runner.run_vectors(stimulus)  # a single vector sequence
            else:
                runner.run_suite(stimulus)  # already a suite of sequences
    if test_suite is not None:
        runner.run_suite(test_suite)
    return runner.report()
