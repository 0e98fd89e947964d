"""Shared helpers for the benchmark harness."""

from __future__ import annotations

import json
import os
import random
import subprocess
from pathlib import Path

from repro.assertions.assertion import Assertion, Literal


def run_once(benchmark, function, *args, **kwargs):
    """Benchmark an expensive experiment with a single measured round."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def miner_shaped_assertions(module, count, seed=7):
    """Random window-1/2 candidates like the decision-tree miner emits."""
    rng = random.Random(seed)
    single_bit = [name for name in module.data_input_names + module.state_names
                  if module.width_of(name) == 1]
    outputs = [name for name in module.output_names if module.width_of(name) == 1]
    registers = set(module.state_names)
    assertions = []
    while len(assertions) < count:
        window = rng.choice([1, 2])
        antecedent = tuple(
            Literal(name, rng.randint(0, 1), rng.randrange(window))
            for name in rng.sample(single_bit, k=min(2, len(single_bit)))
        )
        output = rng.choice(outputs)
        cycle = window if output in registers else window - 1
        assertions.append(
            Assertion(antecedent, Literal(output, rng.randint(0, 1), cycle), window))
    return assertions


def write_bench_json(name: str, payload: dict,
                     directory: str | os.PathLike | None = None) -> Path:
    """Write a machine-readable benchmark artifact ``BENCH_<name>.json``.

    The output directory is resolved from ``directory``, then the
    ``BENCH_OUTPUT_DIR`` environment variable, then the repository root —
    so CI can collect every ``BENCH_*.json`` with one glob.  Returns the
    written path.
    """
    target = Path(directory or os.environ.get("BENCH_OUTPUT_DIR")
                  or Path(__file__).resolve().parent.parent)
    target.mkdir(parents=True, exist_ok=True)
    path = target / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _reject_ignored(path)
    return path


def _reject_ignored(path: Path) -> None:
    """Fail loudly when a bench artifact lands on a git-ignored path.

    Root bench files are part of the committed performance trajectory;
    an ignore rule silently swallowing them cost two releases' worth of
    artifacts (``BENCH_*.json`` sat in ``.gitignore`` while the scripts
    kept writing them).  Outside a work tree (CI artifact dirs, exported
    tarballs) git either ignores-by-absence or is missing — both fine.
    """
    try:
        result = subprocess.run(
            ["git", "check-ignore", "--quiet", str(path)],
            cwd=path.parent, capture_output=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return
    if result.returncode == 0:
        raise RuntimeError(
            f"benchmark artifact {path} is git-ignored; fix .gitignore "
            f"(or set BENCH_OUTPUT_DIR) so the trajectory stays committed")
