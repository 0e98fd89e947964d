"""End-to-end closure throughput: serial vs parallel formal, cold vs warm cache.

Runs the full counterexample-guided refinement loop on fig16-class
workloads (ITC'99-style controllers plus the arbiter family) at
verification-heavy settings, with the formal stage executed

* serially (``formal_workers=1``),
* on 2 and 4 persistent worker processes, and
* on 4 workers with a persistent proof cache, cold then warm.

Emits the machine-readable ``BENCH_formal_parallel.json`` artifact via
:func:`_utils.write_bench_json`.

Shape requirements:

* **divergence gate (always, including CI smoke)** — every mode produces
  the byte-identical deterministic ``ClosureResult`` artifact
  (verdicts, counterexamples, iteration records, assertions, refined test
  suite); the warm cache must actually serve hits;
* **speedup gate (full scale only)** — at least ``GATE_MIN_DESIGNS``
  workloads reach a ``>= 2x`` end-to-end speedup at 4 workers.  The win
  has two stacked sources: true multi-core parallelism, and per-worker
  solver-context locality (each worker's persistent context only encodes
  its shard's queries, so clause databases and heuristics stay small and
  focused — measurable even on a single core).

Set ``PARALLEL_FORMAL_BENCH_SMOKE=1`` for a seconds-scale configuration
that still exercises every mode and the divergence gate — that is what
the CI perf-smoke job runs on every push; timing is reported but never
asserted there.
"""

from __future__ import annotations

import json
import os
import time

from _utils import run_once, write_bench_json

from repro.core.config import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.designs import info as design_info
from repro.experiments.common import format_table
from repro.formal.proofcache import ProofCache
from repro.sim.stimulus import RandomStimulus

SMOKE = os.environ.get("PARALLEL_FORMAL_BENCH_SMOKE", "") not in ("", "0")

#: (design, window, bmc bound, seed cycles) — fig16-class controllers at
#: verification-heavy settings plus the arbiter gate workload.
WORKLOADS = (
    ("b01", 2, 6, 40),
    ("b12", 1, 4, 40),
) if SMOKE else (
    ("b01", 3, 20, 40),
    ("b12", 2, 10, 60),
    ("arbiter4", 2, 6, 40),
)

WORKER_COUNTS = (1, 2, 4)
GATE_SPEEDUP = 2.0
GATE_WORKERS = 4
GATE_MIN_DESIGNS = 1


def run_closure(design: str, window: int, bound: int, seed_cycles: int,
                workers: int, proof_cache: bool | str = False):
    """One full refinement run; returns (wall seconds, ClosureResult)."""
    meta = design_info(design)
    config = GoldMineConfig(
        window=window, engine="tiered", induction_k=0, bound=bound,
        max_iterations=16, max_depth=8,
        formal_workers=workers, formal_proof_cache=proof_cache,
    )
    closure = CoverageClosure(meta.build(),
                              outputs=list(meta.mining_outputs) or None,
                              config=config)
    start = time.perf_counter()
    result = closure.run(RandomStimulus(seed_cycles, seed=13))
    return time.perf_counter() - start, result


def artifact(result) -> str:
    return json.dumps(result.deterministic_json(), sort_keys=True)


def test_parallel_formal_speedup(benchmark, print_section, tmp_path):
    # The harness-timed sample: one representative parallel closure run.
    design, window, bound, cycles = WORKLOADS[0]
    run_once(benchmark, run_closure, design, window, bound, cycles, 2)

    headers = ["design", "serial s", "2w s", "4w s", "4w speedup",
               "cold s", "warm s", "cache hits", "identical"]
    table_rows = []
    json_rows = []
    divergences = 0
    gate_speedups = {}
    for design, window, bound, cycles in WORKLOADS:
        seconds = {}
        artifacts = {}
        for workers in WORKER_COUNTS:
            seconds[workers], result = run_closure(design, window, bound,
                                                   cycles, workers)
            artifacts[workers] = artifact(result)
        # Proof cache at 4 workers: cold (populating) then warm (serving).
        ProofCache.reset_shared()
        cache_file = str(tmp_path / f"proofs_{design}.json")
        cold_seconds, cold_result = run_closure(design, window, bound, cycles,
                                                GATE_WORKERS, cache_file)
        warm_seconds, warm_result = run_closure(design, window, bound, cycles,
                                                GATE_WORKERS, cache_file)
        cache_hits = ProofCache.resolve(cache_file).hits

        baseline = artifacts[1]
        identical = all(artifacts[workers] == baseline for workers in WORKER_COUNTS) \
            and artifact(cold_result) == baseline \
            and artifact(warm_result) == baseline
        if not identical or cache_hits == 0:
            divergences += 1

        speedup = seconds[1] / seconds[GATE_WORKERS] if seconds[GATE_WORKERS] else 0.0
        gate_speedups[design] = speedup
        table_rows.append([
            design, f"{seconds[1]:.2f}", f"{seconds[2]:.2f}",
            f"{seconds[4]:.2f}", f"{speedup:.2f}x",
            f"{cold_seconds:.2f}", f"{warm_seconds:.2f}", cache_hits,
            "yes" if identical else "NO",
        ])
        json_rows.append({
            "design": design,
            "window": window,
            "bound": bound,
            "seed_cycles": cycles,
            "serial_seconds": seconds[1],
            "workers_seconds": {str(w): seconds[w] for w in WORKER_COUNTS},
            "speedup_at_4": speedup,
            "cache_cold_seconds": cold_seconds,
            "cache_warm_seconds": warm_seconds,
            "cache_hits": cache_hits,
            "formal_checks": cold_result.formal_checks,
            "identical_artifacts": identical,
        })

    payload = {
        "benchmark": "formal_parallel",
        "smoke": SMOKE,
        "gate": {"workers": GATE_WORKERS, "speedup": GATE_SPEEDUP,
                 "min_designs": GATE_MIN_DESIGNS},
        "rows": json_rows,
    }
    artifact_path = write_bench_json("formal_parallel", payload)

    print_section(
        "E15 — process-parallel formal verification (closure end to end)",
        format_table(headers, table_rows) + f"\nartifact: {artifact_path}")

    # Contract 1 (always, including CI smoke): serial ≡ parallel ≡ cached.
    assert divergences == 0, (
        "parallel/cached closure diverged from the serial artifact "
        "(or the warm cache served no hits)")

    # Contract 2 (full scale only): the headline end-to-end speedup.
    if not SMOKE:
        fast = [name for name, speedup in gate_speedups.items()
                if speedup >= GATE_SPEEDUP]
        assert len(fast) >= GATE_MIN_DESIGNS, (
            f"expected >= {GATE_SPEEDUP}x at {GATE_WORKERS} workers on "
            f">= {GATE_MIN_DESIGNS} workloads, got {gate_speedups}")
