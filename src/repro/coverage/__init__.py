"""Coverage metrics used by the paper's evaluation.

Traditional input-space-directed metrics (collected by instrumenting the
simulator with probes):

* statement ("line") coverage — every procedural assignment executed,
* branch coverage — every if/else and case arm taken,
* condition coverage — every atomic condition of every branching
  expression seen both true and false,
* expression coverage — every Boolean-valued sub-expression of every
  right-hand side seen both true and false,
* toggle coverage — every bit of every signal seen rising and falling,
* FSM coverage — every declared state value of designated state registers
  visited (plus observed transitions).

Plus the paper's output-centric metric:

* input-space coverage — the fraction of an output's windowed input space
  covered by formally true assertions (Section 7.1).
"""

from repro.coverage.collectors import (
    BranchCoverage,
    ConditionCoverage,
    CoverageCollector,
    ExpressionCoverage,
    FsmCoverage,
    StatementCoverage,
    ToggleCoverage,
)
from repro.coverage.input_space import assertion_input_space_coverage
from repro.coverage.report import CoverageReport, MetricReport
from repro.coverage.runner import CoverageRunner, measure_coverage

__all__ = [
    "BranchCoverage",
    "ConditionCoverage",
    "CoverageCollector",
    "CoverageReport",
    "CoverageRunner",
    "ExpressionCoverage",
    "FsmCoverage",
    "MetricReport",
    "StatementCoverage",
    "ToggleCoverage",
    "assertion_input_space_coverage",
    "measure_coverage",
]
