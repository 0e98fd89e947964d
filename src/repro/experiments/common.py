"""Shared plumbing for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.config import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.core.results import ClosureResult
from repro.coverage.report import CoverageReport
from repro.coverage.runner import CoverageRunner
from repro.designs import DesignInfo, info as design_info
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
Seed = Stimulus | Sequence[Mapping[str, int]] | None


def closure_for_design(design_name: str, config: GoldMineConfig | None = None,
                       seed: Seed = None, outputs: Sequence[str] | None = None,
                       rebuild_trees: bool = False,
                       **overrides) -> tuple[CoverageClosure, ClosureResult]:
    """Run coverage closure on a registered design from ``seed``.

    The closure runs under ``config`` with the design's registered mining
    window; ``overrides`` replace further config fields (``window``,
    ``max_iterations``, ...) on a copy, so the caller's config is never
    mutated.  ``outputs`` defaults to the design's registered mining
    outputs; an empty ``outputs`` mines every output (buses bit by bit).
    ``seed=None`` is the zero-pattern limit case.  Returns the closure
    (its contexts and final trees) and its result.
    """
    meta: DesignInfo = design_info(design_name)
    config = replace(config or GoldMineConfig(),
                     **{"window": meta.window, **overrides})
    outputs = meta.mining_outputs if outputs is None else outputs
    closure = CoverageClosure(meta.build(), outputs=list(outputs) or None,
                              config=config, rebuild_trees=rebuild_trees)
    return closure, closure.run(seed)


def design_seed(design_name: str, random_cycles: int,
                random_seed: int) -> Stimulus | list[dict[str, int]]:
    """The design's registered directed test, else a random seed stimulus."""
    vectors = design_info(design_name).seed_vectors()
    if vectors is not None:
        return vectors
    return RandomStimulus(random_cycles, seed=random_seed)


def coverage_snapshots(design_name: str, config: GoldMineConfig | None,
                       suites: Iterable[Iterable[Stimulus | Sequence[Mapping[str, int]]]],
                       prepend_reset: bool = False) -> Iterator[CoverageReport]:
    """Replay ``suites`` in turn on one coverage runner; yield the report
    after each.

    Every sequence of a suite is replayed from reset (a :class:`Stimulus`
    is materialised on the design first), and coverage is the union over
    sequences, so the report after suite *k* equals the coverage of suites
    0..*k* replayed together.  ``config.sim_engine``/``sim_lanes`` pick the
    replay engine; reports are engine-independent.  ``prepend_reset``
    starts every sequence with one cycle of asserted reset, the way a
    testbench applies each test.
    """
    config = config or GoldMineConfig()
    meta = design_info(design_name)
    module = meta.build()
    runner = CoverageRunner(module, fsm_signals=meta.fsm_signals or None,
                            prepend_reset=prepend_reset,
                            engine=config.sim_engine, lanes=config.sim_lanes)
    for suite in suites:
        runner.run_suite([list(sequence.cycles(module))
                          if isinstance(sequence, Stimulus) else sequence
                          for sequence in suite])
        yield runner.report()


def coverage_of_suite(design_name: str, config: GoldMineConfig | None,
                      test_suite: Iterable[Stimulus | Sequence[Mapping[str, int]]],
                      prepend_reset: bool = False) -> CoverageReport:
    """Coverage of one test suite on a registered design (see
    :func:`coverage_snapshots`)."""
    [report] = coverage_snapshots(design_name, config, [test_suite], prepend_reset)
    return report


def metric_values(report: CoverageReport, metrics: Iterable[str]) -> dict[str, float]:
    """``{metric: percent}``, counting a metric the design lacks as 0."""
    return {metric: report.get(metric, 0.0) or 0.0 for metric in metrics}


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
