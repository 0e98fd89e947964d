"""Self-test of the closure-sweep benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

It checks three things and exits non-zero if any fails:

1. the correctness oracle is not vacuous: a known-false assertion planted
   into a real job's result is flagged, while the unplanted result passes;
2. a tiny roster run through ``run.py`` prints every metric named in
   ``BENCHMARK.json``, with its unit, for ``--trace 0`` and ``--trace 1``,
   plus ``fail_frac``, and reports ``correct`` with no failed job;
3. ``BENCHMARK.json`` keeps to its name, unit and length limits.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from repro.assertions.assertion import Assertion  # noqa: E402
from repro.assertions.evaluate import count_matches  # noqa: E402
from repro.core.config import GoldMineConfig  # noqa: E402
from repro.designs import info  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def plant_false_assertion(design: str, result) -> Assertion:
    """Add to ``result`` the negation of an accepted assertion whose
    antecedent fires on the refined suite, so the suite violates it."""
    simulator = Simulator(info(design).build())
    traces = [simulator.run_vectors(sequence) for sequence in result.test_suite]
    for label, assertions in result.true_assertions.items():
        for assertion in assertions:
            if assertion.consequent.value not in (0, 1):
                continue
            if any(count_matches(assertion, trace)[0] for trace in traces):
                planted = Assertion(assertion.antecedent,
                                    assertion.consequent.negated(),
                                    assertion.window, name="planted_false")
                assertions.append(planted)
                return planted
    raise AssertionError("no accepted assertion fires on the refined suite")


def check_oracle() -> list[str]:
    job = workloads.Job("arbiter2", 2)
    config = GoldMineConfig.from_json({**workloads.PAPER_DEFAULT, "window": 2})
    result = workloads.run_job(job, config).result
    oracle = workloads.Oracle()
    problems = []
    violation = oracle.check(job.design, result, workloads.result_digest(result))
    if violation is not None:
        problems.append(f"clean result flagged: {violation}")
    plant_false_assertion(job.design, result)
    violation = oracle.check(job.design, result, workloads.result_digest(result))
    if violation is None or "planted_false" not in violation:
        problems.append("planted false assertion was not flagged")
    else:
        print(f"oracle flags the planted assertion: {violation}")
    return problems


def check_metric_output(spec: dict) -> list[str]:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workloads.SMOKE, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace)]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True, timeout=300)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            return [f"run.py --trace {trace} exited {completed.returncode}: "
                    f"{completed.stderr[-2000:]}"]
        result = json.loads(lines[-1])
        text = "\n".join(lines[:-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"--trace {trace}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"--trace {trace}: smoke roster not correct: "
                            f"{completed.stderr[-2000:]}")
        expected = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            problems.append(f"--trace {trace}: metrics differ from BENCHMARK.json: "
                            f"missing {sorted(set(expected) - set(got))}, "
                            f"extra {sorted(set(got) - set(expected))}, units "
                            f"{ {n: (u, got.get(n)) for n, u in expected.items() if got.get(n) not in (None, u)} }")
        for name, unit in [*expected.items(), ("fail_frac", "ratio")]:
            if not re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}(\s|$)",
                             text, re.MULTILINE):
                problems.append(f"--trace {trace}: {name} [{unit}] not printed")
        print(f"--trace {trace}: {len(got)} metrics printed with units, "
              f"attempted {result['attempted']}, failed {result['failed']}")
    return problems


def check_spec(spec: dict) -> list[str]:
    problems = []
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    if len(names) != len(set(names)):
        problems.append("duplicate metric or workload names")
    problems += [f"bad name {n}" for n in names if not NAME.match(n)]
    for key in ("end_to_end", "per_layer"):
        problems += [f"bad unit {m['unit']}" for m in spec[key]
                     if not UNIT.match(m["unit"])]
    problems += [f"bound of {m['name']} above 0.25" for m in spec["end_to_end"]
                 if not 0 < m["bound"] <= 0.25]
    problems += [f"why of {w['name']} too long" for w in spec["workloads"]
                 if len(w["why"]) > 200 or "\n" in w["why"]]
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec) + check_oracle() + check_metric_output(spec)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
