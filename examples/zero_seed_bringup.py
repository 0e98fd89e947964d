#!/usr/bin/env python3
"""Zero-pattern bring-up: generating a test suite when no tests exist yet.

Section 7.2 of the paper: with no initial patterns at all, the procedure
starts from the trivial assertion "output is always 0", which formal
verification refutes; the counterexample becomes the first functional
pattern, and the loop keeps going until the output's reachable behaviour
is fully covered.  This is a practical way to "jump start a module design
environment".

The example runs the zero-seed study on three designs (the arbiters and
the Rigel-like fetch stage), prints the per-iteration coverage table
(paper Table 1), and dumps the generated bring-up test suite for one of
them as a per-cycle stimulus listing.

Run with:  python examples/zero_seed_bringup.py
"""

from __future__ import annotations

from repro.core import CoverageClosure, GoldMineConfig
from repro.designs import load
from repro.experiments import table1_zero_seed
from repro.experiments.common import format_table


def main() -> None:
    print("=== zero-initial-pattern limit study (paper Table 1) ===\n")
    study = table1_zero_seed.run()
    checkpoints = list(table1_zero_seed.PAPER_CHECKPOINTS)
    headers = ["output"] + [f"iter {i}" for i in checkpoints]
    rows = []
    for series in study.series:
        label = f"{series.design}.{series.output}"
        rows.append([label] + [f"{value:.2f}%" for value in series.at_checkpoints()])
    print(format_table(headers, rows))
    print()
    for series in study.series:
        print(f"{series.design}.{series.output}: closure reached at iteration "
              f"{series.iterations_to_closure} (converged={series.converged})")

    print("\n=== generated bring-up suite for arbiter4.gnt0 ===\n")
    module = load("arbiter4")
    closure = CoverageClosure(module, outputs=["gnt0"], config=GoldMineConfig(window=1))
    result = closure.run(None)
    for index, sequence in enumerate(result.test_suite):
        print(f"test {index:02d} ({len(sequence)} cycles):")
        for cycle, vector in enumerate(sequence):
            values = " ".join(f"{name}={value}" for name, value in sorted(vector.items()))
            print(f"    cycle {cycle}: {values}")
    print(f"\n{len(result.all_true_assertions)} true assertions mined; "
          f"input-space coverage {100 * result.input_space_coverage('gnt0'):.1f}%")


if __name__ == "__main__":
    main()
