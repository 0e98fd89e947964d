"""Shared plumbing for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from repro.core.config import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.core.results import ClosureResult
from repro.coverage.report import CoverageReport
from repro.coverage.runner import CoverageRunner
from repro.designs import DesignInfo, info as design_info, load as load_design
from repro.hdl.module import Module
from repro.sim.stimulus import RandomStimulus, Stimulus


@dataclass
class CoverageRow:
    """One row of a coverage-comparison table."""

    design: str
    method: str
    cycles: int
    metrics: dict[str, float] = field(default_factory=dict)

    def metric(self, name: str, default: float = float("nan")) -> float:
        return self.metrics.get(name, default)

    def to_json(self) -> dict:
        return {"design": self.design, "method": self.method,
                "cycles": self.cycles, "metrics": dict(self.metrics)}

    @staticmethod
    def from_json(data: Mapping) -> "CoverageRow":
        return CoverageRow(design=data["design"], method=data["method"],
                           cycles=data.get("cycles", 0),
                           metrics=dict(data.get("metrics", {})))


@dataclass
class ExperimentResult:
    """Generic experiment output: named series and/or table rows."""

    name: str
    description: str
    series: dict[str, list[float]] = field(default_factory=dict)
    rows: list[CoverageRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_series(self, label: str, values: Iterable[float]) -> None:
        self.series[label] = list(values)

    def add_row(self, row: CoverageRow) -> None:
        self.rows.append(row)

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Plain-dict form used as the runner's per-job artifact payload.

        All fields are deterministic for a fixed (design, seed, config):
        the runner's serial and parallel runs must produce byte-identical
        payloads (``tests/runner/`` holds the runner to that).
        """
        return {
            "name": self.name,
            "description": self.description,
            "series": {label: list(values) for label, values in self.series.items()},
            "rows": [row.to_json() for row in self.rows],
            "notes": list(self.notes),
        }

    @staticmethod
    def from_json(data: Mapping) -> "ExperimentResult":
        return ExperimentResult(
            name=data["name"],
            description=data.get("description", ""),
            series={label: list(values)
                    for label, values in data.get("series", {}).items()},
            rows=[CoverageRow.from_json(row) for row in data.get("rows", [])],
            notes=list(data.get("notes", [])),
        )

    def merge(self, other: "ExperimentResult") -> None:
        """Fold another shard of the same experiment into this result.

        Used by the runner's aggregation step: each (design × seed) job
        returns one :class:`ExperimentResult` shard and the shards merge
        into the experiment's full table/series set.
        """
        for label, values in other.series.items():
            self.series.setdefault(label, list(values))
        self.rows.extend(other.rows)
        for note in other.notes:
            if note not in self.notes:
                self.notes.append(note)


# ----------------------------------------------------------------------
def closure_for_design(design_name: str, outputs: Sequence[str] | None = None,
                       window: int | None = None,
                       seed: Stimulus | Sequence[Mapping[str, int]] | None = None,
                       config: GoldMineConfig | None = None,
                       max_iterations: int | None = None) -> tuple[ClosureResult, Module]:
    """Run coverage closure on a registered design and return the result.

    ``seed`` defaults to the design's registered directed test if it has
    one, otherwise to no seed (the zero-pattern limit case).
    """
    meta: DesignInfo = design_info(design_name)
    module = meta.build()
    if config is None:
        config = GoldMineConfig(window=window if window is not None else meta.window)
    elif window is not None:
        config = replace(config, window=window)
    if outputs is None:
        outputs = list(meta.mining_outputs) or None
    if seed is None and meta.directed_test is not None:
        seed = meta.seed_vectors()
    closure = CoverageClosure(module, outputs=outputs, config=config)
    result = closure.run(seed, max_iterations=max_iterations)
    return result, module


def coverage_of_suite(module: Module,
                      test_suite: Iterable[Sequence[Mapping[str, int]]],
                      fsm_signals: Sequence[str] | None = None,
                      engine: str = "scalar", lanes: int = 64) -> CoverageReport:
    """Measure all standard coverage metrics of a test suite on a module.

    ``engine="batched"`` replays up to ``lanes`` sequences of the suite at
    once on the bit-parallel engine (identical report, much faster for
    the many short from-reset sequences a refined suite consists of).
    """
    runner = CoverageRunner(module, fsm_signals=fsm_signals, engine=engine, lanes=lanes)
    runner.run_suite(test_suite)
    return runner.report()


def coverage_of_random(design_name: str, cycles: int, seed: int = 0,
                       engine: str = "scalar", lanes: int = 64) -> tuple[CoverageReport, int]:
    """Coverage achieved by pure random stimulus on a registered design."""
    meta = design_info(design_name)
    module = meta.build()
    runner = CoverageRunner(module, fsm_signals=meta.fsm_signals or None,
                            engine=engine, lanes=lanes)
    runner.run_stimulus(RandomStimulus(cycles, seed=seed))
    return runner.report(), runner.cycles_run


def refined_suite_coverage(design_name: str, result: ClosureResult,
                           module: Module | None = None,
                           engine: str = "scalar", lanes: int = 64) -> CoverageReport:
    """Coverage of the refined test suite produced by a closure run."""
    meta = design_info(design_name)
    module = module if module is not None else meta.build()
    runner = CoverageRunner(module, fsm_signals=meta.fsm_signals or None,
                            engine=engine, lanes=lanes)
    runner.run_suite(result.test_suite)
    return runner.report()


# ----------------------------------------------------------------------
def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Simple fixed-width table renderer used by the benchmark harness."""
    rows = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = ["  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))]
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def percent(value: float) -> str:
    return f"{value:.2f}%"
