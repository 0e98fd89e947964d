"""Chaos recovery: fault-injected closure runs vs clean runs, gated on identity.

Runs the full counterexample-guided refinement loop with the formal stage
on worker processes while a pinned :class:`repro.chaos.ChaosPlan`
kills or wedges workers mid-run, and measures what supervision costs:

* **identity gate (always, including CI smoke)** — every chaos schedule's
  ``ClosureResult.deterministic_json()`` is byte-identical to the clean
  parallel run's.  Supervision decides only *where* queries execute;
  a divergence here means a fault changed a verdict, which is the one
  thing fault tolerance must never do.
* **hygiene gate (always)** — zero orphan worker processes after every
  run; every recovery is visible in the ``worker_restarts`` /
  ``worker_wedge_kills`` / ``fallback_checks`` telemetry.
* **overhead report** — wall-clock of each chaos run relative to the
  clean run (informational; recovery cost depends on where the fault
  lands).

Emits ``BENCH_chaos.json`` via :func:`_utils.write_bench_json`.  Set
``CHAOS_BENCH_SMOKE=1`` for the seconds-scale CI configuration; the
identity and hygiene gates are asserted at every scale.
"""

from __future__ import annotations

import json
import os
import time

from _utils import run_once, write_bench_json

from repro import chaos
from repro.chaos import FAULT_KILL, FAULT_WEDGE, ChaosPlan, WorkerFault
from repro.core.config import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.designs import info as design_info
from repro.experiments.common import format_table
from repro.formal.proofcache import ProofCache
from repro.sim.stimulus import RandomStimulus

SMOKE = os.environ.get("CHAOS_BENCH_SMOKE", "") not in ("", "0")

#: (design, window, bmc bound, seed cycles) — the verification-heavy
#: workloads the parallel bench uses, so recovery cost is measured where
#: the worker pool actually earns its keep.
WORKLOADS = (
    ("b01", 2, 6, 40),
) if SMOKE else (
    ("b01", 3, 20, 40),
    ("b12", 2, 10, 60),
)

WORKERS = 2

#: The pinned schedules; each names the scenario it reproduces.
SCHEDULES = (
    ("kill-first-message",
     lambda: ChaosPlan(faults={0: WorkerFault(FAULT_KILL, after_messages=0)})),
    ("kill-mid-run",
     lambda: ChaosPlan(faults={1: WorkerFault(FAULT_KILL, after_messages=2)})),
    ("wedge-first-message",
     lambda: ChaosPlan(faults={1: WorkerFault(FAULT_WEDGE, after_messages=0)})),
    ("kill-budget-exhausted",
     lambda: ChaosPlan(faults={0: WorkerFault(FAULT_KILL, after_messages=0)},
                       retry_budget=0)),
    ("seeded-double-fault",
     lambda: ChaosPlan.seeded(7, WORKERS, faults=2, max_after=2)),
)


def run_closure(design: str, window: int, bound: int, seed_cycles: int):
    """One full refinement run on the worker pool; returns wall seconds,
    the deterministic artifact, and the formal reuse telemetry."""
    meta = design_info(design)
    config = GoldMineConfig(
        window=window, engine="bmc", bound=bound, max_iterations=16,
        max_depth=8,
        formal_workers=WORKERS,
    )
    closure = CoverageClosure(meta.build(),
                              outputs=list(meta.mining_outputs) or None,
                              config=config)
    start = time.perf_counter()
    result = closure.run(RandomStimulus(seed_cycles, seed=13))
    seconds = time.perf_counter() - start
    artifact = json.dumps(result.deterministic_json(), sort_keys=True)
    return seconds, artifact, dict(result.formal_reuse)


def live_worker_pids() -> set[int]:
    import multiprocessing

    return {child.pid for child in multiprocessing.active_children()
            if child.name.startswith("formal-worker")}


def test_chaos_recovery_identity(benchmark, print_section):
    ProofCache.reset_shared()
    design, window, bound, cycles = WORKLOADS[0]
    # The harness-timed sample: one clean parallel closure run.
    run_once(benchmark, run_closure, design, window, bound, cycles)

    headers = ["design", "schedule", "clean s", "chaos s", "overhead",
               "restarts", "wedge kills", "fallback", "identical", "orphans"]
    table_rows = []
    json_rows = []
    divergences = 0
    orphan_total = 0
    unrecovered = 0
    for design, window, bound, cycles in WORKLOADS:
        clean_seconds, baseline, _ = run_closure(design, window, bound, cycles)
        for name, make_plan in SCHEDULES:
            with chaos.injected(make_plan()):
                seconds, artifact, reuse = run_closure(design, window, bound,
                                                       cycles)
            orphans = live_worker_pids()
            identical = artifact == baseline
            restarts = reuse.get("worker_restarts", 0)
            wedge_kills = reuse.get("worker_wedge_kills", 0)
            fallback = reuse.get("fallback_checks", 0)
            recovered = restarts + fallback > 0
            divergences += 0 if identical else 1
            orphan_total += len(orphans)
            unrecovered += 0 if recovered else 1
            overhead = seconds / clean_seconds if clean_seconds else 0.0
            table_rows.append([
                design, name, f"{clean_seconds:.2f}", f"{seconds:.2f}",
                f"{overhead:.2f}x", restarts, wedge_kills, fallback,
                "yes" if identical else "NO", len(orphans),
            ])
            json_rows.append({
                "design": design,
                "schedule": name,
                "window": window,
                "bound": bound,
                "seed_cycles": cycles,
                "clean_seconds": clean_seconds,
                "chaos_seconds": seconds,
                "worker_restarts": restarts,
                "worker_wedge_kills": wedge_kills,
                "fallback_checks": fallback,
                "identical_artifact": identical,
                "orphan_processes": len(orphans),
            })

    payload = {
        "benchmark": "chaos_recovery",
        "smoke": SMOKE,
        "workers": WORKERS,
        "gate": {"identical_artifacts": True, "orphan_processes": 0},
        "rows": json_rows,
    }
    artifact_path = write_bench_json("chaos", payload)

    print_section(
        "E16 — chaos recovery (fault-injected closure vs clean, "
        f"{WORKERS} workers)",
        format_table(headers, table_rows) + f"\nartifact: {artifact_path}")

    # Gate 1: every chaos schedule reproduces the clean artifact exactly.
    assert divergences == 0, (
        "a chaos schedule diverged from the clean deterministic artifact — "
        "a fault changed a verdict")
    # Gate 2: no orphan worker processes survive any run.
    assert orphan_total == 0, "chaos runs left orphan worker processes"
    # Gate 3: the schedules actually exercised recovery (a schedule whose
    # fault never fired would gate nothing).
    assert unrecovered == 0, (
        "a chaos schedule completed without any recovery action — the "
        "fault never fired, so the run gated nothing")
