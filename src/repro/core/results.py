"""Result records produced by refinement runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.assertions.assertion import Assertion, combined_input_space_coverage

#: A test sequence is a list of per-cycle input assignments applied from reset.
TestSequence = list[dict[str, int]]


@dataclass
class IterationRecord:
    """What happened during one counterexample iteration.

    Iteration 0 describes the seed test suite: candidates mined from the
    initial stimulus and their verdicts, before any counterexample has been
    folded back in.
    """

    iteration: int
    candidates_checked: int = 0
    new_true_assertions: list[Assertion] = field(default_factory=list)
    failed_assertions: list[Assertion] = field(default_factory=list)
    counterexamples: int = 0
    cumulative_true_assertions: int = 0
    cumulative_test_cycles: int = 0
    input_space_coverage: dict[str, float] = field(default_factory=dict)
    extra_metrics: dict[str, float] = field(default_factory=dict)

    @property
    def mean_input_space_coverage(self) -> float:
        if not self.input_space_coverage:
            return 0.0
        return sum(self.input_space_coverage.values()) / len(self.input_space_coverage)

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Plain-dict form for artifact files (see :mod:`repro.runner`)."""
        return {
            "iteration": self.iteration,
            "candidates_checked": self.candidates_checked,
            "new_true_assertions": [a.to_json() for a in self.new_true_assertions],
            "failed_assertions": [a.to_json() for a in self.failed_assertions],
            "counterexamples": self.counterexamples,
            "cumulative_true_assertions": self.cumulative_true_assertions,
            "cumulative_test_cycles": self.cumulative_test_cycles,
            "input_space_coverage": dict(self.input_space_coverage),
            "extra_metrics": dict(self.extra_metrics),
        }

    @staticmethod
    def from_json(data: Mapping) -> "IterationRecord":
        return IterationRecord(
            iteration=data["iteration"],
            candidates_checked=data.get("candidates_checked", 0),
            new_true_assertions=[Assertion.from_json(a)
                                 for a in data.get("new_true_assertions", [])],
            failed_assertions=[Assertion.from_json(a)
                               for a in data.get("failed_assertions", [])],
            counterexamples=data.get("counterexamples", 0),
            cumulative_true_assertions=data.get("cumulative_true_assertions", 0),
            cumulative_test_cycles=data.get("cumulative_test_cycles", 0),
            input_space_coverage=dict(data.get("input_space_coverage", {})),
            extra_metrics=dict(data.get("extra_metrics", {})),
        )


@dataclass
class ClosureResult:
    """Summary of one coverage-closure run (the algorithm's tangible outputs).

    Per the paper, "the full set of correct assertions, plus the new test
    patterns created from counterexamples during iterations comprise the
    tangible outputs of the algorithm".
    """

    module_name: str
    outputs: list[str]
    converged: bool
    iterations: list[IterationRecord] = field(default_factory=list)
    true_assertions: dict[str, list[Assertion]] = field(default_factory=dict)
    test_suite: list[TestSequence] = field(default_factory=list)
    formal_checks: int = 0
    formal_seconds: float = 0.0
    #: Incremental-engine reuse counters (clauses reused, learned carried,
    #: encode cache hits) captured from the verifier; empty for engines
    #: without a persistent solver context.
    formal_reuse: dict[str, int] = field(default_factory=dict)
    #: Assertion name -> ``"unbounded"`` (real proof: exact engine or
    #: inductive argument) or ``"bounded"`` (survived the bounded search
    #: only).  Covers every assertion accepted as true; part of the
    #: deterministic payload — proof strength is a verdict property, not
    #: telemetry.
    proof_strength: dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def iteration_count(self) -> int:
        """Number of counterexample iterations performed (excludes the seed pass)."""
        return max(0, len(self.iterations) - 1)

    @property
    def all_true_assertions(self) -> list[Assertion]:
        result: list[Assertion] = []
        for assertions in self.true_assertions.values():
            result.extend(assertions)
        return result

    def assertions_for(self, output: str) -> list[Assertion]:
        return list(self.true_assertions.get(output, []))

    def input_space_coverage(self, output: str | None = None) -> float:
        """Output-centric coverage: fraction of the input space covered by
        true assertions (Section 7.1)."""
        if output is not None:
            return combined_input_space_coverage(self.true_assertions.get(output, []))
        if not self.true_assertions:
            return 0.0
        values = [combined_input_space_coverage(assertions)
                  for assertions in self.true_assertions.values()]
        return sum(values) / len(values)

    def total_test_cycles(self) -> int:
        return sum(len(sequence) for sequence in self.test_suite)

    def coverage_by_iteration(self, output: str | None = None) -> list[float]:
        """Input-space coverage after each iteration (Fig. 13 / Table 1 series)."""
        series = []
        for record in self.iterations:
            if output is not None:
                series.append(record.input_space_coverage.get(output, 0.0))
            else:
                series.append(record.mean_input_space_coverage)
        return series

    def to_json(self) -> dict:
        """Plain-dict form for artifact files.

        Everything the run produced is preserved (iteration records,
        assertions, the refined test suite), so a serialized result can be
        re-aggregated or replayed without re-running the closure loop.
        ``formal_seconds`` is wall-clock and therefore not deterministic.
        """
        return {
            "module_name": self.module_name,
            "outputs": list(self.outputs),
            "converged": self.converged,
            "iterations": [record.to_json() for record in self.iterations],
            "true_assertions": {label: [a.to_json() for a in assertions]
                                for label, assertions in self.true_assertions.items()},
            "test_suite": [[dict(vector) for vector in sequence]
                           for sequence in self.test_suite],
            "formal_checks": self.formal_checks,
            "formal_seconds": self.formal_seconds,
            "formal_reuse": dict(self.formal_reuse),
            "proof_strength": dict(self.proof_strength),
        }

    def deterministic_json(self) -> dict:
        """:meth:`to_json` minus the operational-telemetry fields.

        ``formal_seconds`` is wall clock and ``formal_reuse`` reports *how*
        the verdicts were obtained (solver reuse, worker dispatch, proof
        cache hits) rather than *what* they are; both legitimately vary
        between runs, worker counts and cache states.  Everything left —
        verdicts, counterexamples, per-iteration records, assertions, the
        refined test suite, ``formal_checks`` — is required to be
        byte-identical across execution modes, which is exactly what the
        parallel-formal differential suite and the benchmark divergence
        gate compare.
        """
        data = self.to_json()
        del data["formal_seconds"]
        del data["formal_reuse"]
        return data

    @staticmethod
    def from_json(data: Mapping) -> "ClosureResult":
        result = ClosureResult(
            module_name=data["module_name"],
            outputs=list(data.get("outputs", [])),
            converged=data.get("converged", False),
            iterations=[IterationRecord.from_json(record)
                        for record in data.get("iterations", [])],
            true_assertions={label: [Assertion.from_json(a) for a in assertions]
                             for label, assertions in data.get("true_assertions", {}).items()},
            test_suite=[[{str(k): int(v) for k, v in vector.items()}
                         for vector in sequence]
                        for sequence in data.get("test_suite", [])],
            formal_checks=data.get("formal_checks", 0),
            formal_seconds=data.get("formal_seconds", 0.0),
            formal_reuse={str(k): int(v)
                          for k, v in data.get("formal_reuse", {}).items()},
            proof_strength={str(k): str(v)
                            for k, v in data.get("proof_strength", {}).items()},
        )
        return result

    def summary_table(self) -> str:
        """Render a per-iteration summary similar to the paper's Figure 12."""
        lines = ["iter  checked  new_true  failed  ctx  input_space%"]
        for record in self.iterations:
            lines.append(
                f"{record.iteration:>4}  {record.candidates_checked:>7}  "
                f"{len(record.new_true_assertions):>8}  {len(record.failed_assertions):>6}  "
                f"{record.counterexamples:>3}  {100 * record.mean_input_space_coverage:>11.2f}"
            )
        return "\n".join(lines)


def flatten_test_suite(test_suite: Iterable[Sequence[Mapping[str, int]]]) -> TestSequence:
    """Concatenate test sequences into one long stimulus (Section 6: the
    counterexample inputs are "simply added to the current input stimulation
    in the directed test")."""
    flat: TestSequence = []
    for sequence in test_suite:
        flat.extend(dict(vector) for vector in sequence)
    return flat
