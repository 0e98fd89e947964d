"""Runner chaos recovery: fault-injected supervised sweeps vs clean runs.

Runs real ``sweep`` experiment jobs on the supervised job pool while a
pinned :class:`repro.chaos.ChaosPlan` SIGKILLs, wedges, or
OOM-balloons workers mid-run, and measures what runner-level supervision
costs:

* **identity gate (always, including CI smoke)** — every chaos
  schedule's aggregated artifact (minus the per-job wall-clock/attempt
  accounting) is byte-identical to the clean run's.  Supervision decides
  only *where* a job executes; a divergence means a fault changed a
  payload, the one thing fault tolerance must never do.
* **hygiene gate (always)** — zero orphan ``runner-worker-*`` processes
  after every run.
* **recovery gate (always)** — every schedule actually fired at least
  one restart/timeout/memory-kill, and the quarantine drill actually
  poisoned, skipped, and then cured a worker-killing job; a schedule
  whose fault never fired would gate nothing.
* **overhead report** — chaos wall-clock relative to clean
  (informational; recovery cost depends on where the fault lands).

Emits ``BENCH_runner_chaos.json`` via :func:`_utils.write_bench_json`.
Set ``RUNNER_CHAOS_BENCH_SMOKE=1`` for the seconds-scale CI
configuration; every gate is asserted at every scale.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

from _utils import run_once, write_bench_json

from repro import chaos, supervise
from repro.experiments.common import format_table
from repro.runner.checkpoint import RunCheckpoint
from repro.runner.pool import execute_jobs
from repro.runner.registry import (
    ExperimentSpec,
    JobSpec,
    RunOptions,
    get_experiment,
    register,
)
from repro.runner.report import aggregate_records

SMOKE = os.environ.get("RUNNER_CHAOS_BENCH_SMOKE", "") not in ("", "0")

#: (designs, seeds) for the sweep job matrix; smoke keeps it at two
#: jobs so the whole battery stays inside CI's seconds budget.
DESIGNS = ("arbiter2",) if SMOKE else ("arbiter2", "b01")
SEEDS = (0, 1)
WORKERS = 2

_HAS_RSS_PROBE = supervise.process_rss_bytes(os.getpid()) is not None


def expand_sweep_jobs():
    options = RunOptions(designs=DESIGNS, seeds=SEEDS, smoke=True)
    return get_experiment("sweep").expand(options)


def run_sweep(jobs, run_dir, **kwargs):
    """One supervised sweep into a fresh/existing run dir.

    Returns wall seconds, the canonical aggregate artifact (accounting
    stripped — that is where attempts/timings legitimately differ), the
    recovery stats, and the raw records.
    """
    checkpoint = RunCheckpoint(run_dir)
    checkpoint.run_dir.mkdir(parents=True, exist_ok=True)
    stats: dict = {}
    start = time.perf_counter()
    records = execute_jobs(jobs, checkpoint, workers=WORKERS, stats=stats,
                           **kwargs)
    seconds = time.perf_counter() - start
    document = aggregate_records(jobs[0].experiment, jobs, records)
    document.pop("jobs")
    return seconds, json.dumps(document, sort_keys=True), stats, records


def live_worker_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()
            if child.name.startswith("runner-worker-")}


# ----------------------------------------------------------------------
# quarantine drill: a runtime-registered job that kills its worker until
# an antidote marker appears — the poison→skip→cure lifecycle end to end
# ----------------------------------------------------------------------
def _drill_execute(params):
    import signal
    from pathlib import Path

    marker_dir = Path(params["marker_dir"])
    marker_dir.mkdir(parents=True, exist_ok=True)
    if params.get("poison") and not (marker_dir / "antidote").exists():
        os.kill(os.getpid(), signal.SIGKILL)
    payload = {
        "name": "quarantine-drill", "description": "poison lifecycle drill",
        "series": {f"job{params['index']}": [float(params["index"])]},
        "rows": [], "notes": [],
    }
    return payload, 0


register(ExperimentSpec(
    name="quarantine-drill", description="runner poison-quarantine drill",
    artifact="none", expand=lambda options: [], execute=_drill_execute))


def _drill_jobs(marker_dir, poison_index=1, poisoned=True):
    return [JobSpec("quarantine-drill", f"drill/{index}",
                    {"index": index, "marker_dir": str(marker_dir),
                     "poison": poisoned and index == poison_index})
            for index in range(3)]


def run_quarantine_drill(tmp_path) -> dict:
    """Poison → quarantine → resume-skip → cure with --retry-poisoned."""
    marker = tmp_path / "drill-markers"
    run_dir = tmp_path / "drill-run"
    jobs = _drill_jobs(marker)
    kwargs = dict(retry_budget=1, backoff=0.01)

    _, _, stats, records = run_sweep(jobs, run_dir, **kwargs)
    record = records["drill/1"]
    poisoned = record["status"] == "poisoned" and stats["poisoned_jobs"] == 1
    attempts_at_quarantine = record.get("attempts", 0)

    _, _, stats2, records2 = run_sweep(jobs, run_dir, **kwargs)
    skipped_on_resume = (records2["drill/1"]["status"] == "poisoned"
                        and stats2["poisoned_jobs"] == 0
                        and stats2["worker_restarts"] == 0)

    (marker / "antidote").touch()
    _, cured_artifact, _, records3 = run_sweep(jobs, run_dir,
                                               retry_poisoned=True, **kwargs)
    clean_jobs = _drill_jobs(tmp_path / "drill-clean-markers", poisoned=False)
    _, clean_artifact, _, _ = run_sweep(clean_jobs, tmp_path / "drill-clean",
                                        **kwargs)
    cured = (records3["drill/1"]["status"] == "ok"
             and records3["drill/1"]["attempts"] == attempts_at_quarantine + 1)
    return {
        "poisoned": poisoned,
        "skipped_on_resume": skipped_on_resume,
        "cured": cured,
        "identical_after_cure": cured_artifact == clean_artifact,
        "attempts": records3["drill/1"].get("attempts"),
    }


def test_runner_chaos_recovery(benchmark, print_section, tmp_path):
    jobs = expand_sweep_jobs()
    # The harness-timed sample: one clean supervised sweep.
    run_once(benchmark, run_sweep, jobs, tmp_path / "timed")

    clean_seconds, baseline, _, clean_records = run_sweep(
        jobs, tmp_path / "clean")
    # Deadline for wedge schedules: generous vs the slowest clean job so
    # a healthy job can never be deadline-killed, small enough that a
    # wedged worker comes down quickly.
    slowest = max(record["seconds"] for record in clean_records.values())
    deadline = max(2.0, 4.0 * slowest)

    def seeded_plan():
        plan = chaos.ChaosPlan.seeded(7, len(jobs), faults=2)
        plan.deadline = deadline
        return plan

    schedules = [
        ("kill-first-job",
         lambda: chaos.ChaosPlan(
             faults={0: chaos.WorkerFault(chaos.FAULT_KILL)})),
        ("kill-mid-run",
         lambda: chaos.ChaosPlan(
             faults={len(jobs) // 2: chaos.WorkerFault(chaos.FAULT_KILL)})),
        ("wedge-deadline",
         lambda: chaos.ChaosPlan(
             faults={min(1, len(jobs) - 1): chaos.WorkerFault(chaos.FAULT_WEDGE)},
             deadline=deadline)),
        ("seeded-double-fault", seeded_plan),
    ]
    if _HAS_RSS_PROBE:
        schedules.append(
            ("oom-degrade",
             lambda: chaos.ChaosPlan(
                 faults={0: chaos.WorkerFault(chaos.FAULT_OOM, balloon_mb=256)},
                 memory_budget_mb=96)))

    headers = ["schedule", "clean s", "chaos s", "overhead", "restarts",
               "timeouts", "mem kills", "degraded", "identical", "orphans"]
    table_rows = []
    json_rows = []
    divergences = 0
    orphan_total = 0
    unrecovered = 0
    for index, (name, make_plan) in enumerate(schedules):
        with chaos.injected(make_plan()):
            seconds, artifact, stats, _ = run_sweep(
                jobs, tmp_path / f"chaos-{index}")
        orphans = live_worker_pids()
        identical = artifact == baseline
        recovered = (stats["worker_restarts"] + stats["job_timeouts"]
                     + stats["memory_kills"]) > 0
        divergences += 0 if identical else 1
        orphan_total += len(orphans)
        unrecovered += 0 if recovered else 1
        overhead = seconds / clean_seconds if clean_seconds else 0.0
        table_rows.append([
            name, f"{clean_seconds:.2f}", f"{seconds:.2f}",
            f"{overhead:.2f}x", stats["worker_restarts"],
            stats["job_timeouts"], stats["memory_kills"],
            stats["degraded_retries"], "yes" if identical else "NO",
            len(orphans),
        ])
        json_rows.append({
            "schedule": name,
            "clean_seconds": clean_seconds,
            "chaos_seconds": seconds,
            "worker_restarts": stats["worker_restarts"],
            "job_timeouts": stats["job_timeouts"],
            "memory_kills": stats["memory_kills"],
            "degraded_retries": stats["degraded_retries"],
            "poisoned_jobs": stats["poisoned_jobs"],
            "timed_out_jobs": stats["timed_out_jobs"],
            "identical_artifact": identical,
            "orphan_processes": len(orphans),
        })

    drill = run_quarantine_drill(tmp_path)
    orphan_total += len(live_worker_pids())

    payload = {
        "benchmark": "runner_chaos_recovery",
        "smoke": SMOKE,
        "workers": WORKERS,
        "jobs": [job.job_id for job in jobs],
        "job_deadline_seconds": deadline,
        "rss_probe": _HAS_RSS_PROBE,
        "gate": {"identical_artifacts": True, "orphan_processes": 0,
                 "recovery_fired_per_schedule": True,
                 "quarantine_lifecycle": True},
        "rows": json_rows,
        "quarantine_drill": drill,
    }
    artifact_path = write_bench_json("runner_chaos", payload)

    drill_note = ", ".join(f"{key}={value}" for key, value in drill.items())
    print_section(
        f"E17 — runner chaos recovery (supervised sweep vs clean, "
        f"{WORKERS} workers, {len(jobs)} jobs)",
        format_table(headers, table_rows)
        + f"\nquarantine drill: {drill_note}"
        + f"\nartifact: {artifact_path}")

    # Gate 1: every chaos schedule reproduces the clean artifact exactly.
    assert divergences == 0, (
        "a chaos schedule diverged from the clean aggregate artifact — "
        "a fault changed a job payload")
    # Gate 2: no orphan runner workers survive any run.
    assert orphan_total == 0, "chaos runs left orphan runner workers"
    # Gate 3: every schedule actually exercised recovery.
    assert unrecovered == 0, (
        "a chaos schedule completed without any recovery action — the "
        "fault never fired, so the run gated nothing")
    # Gate 4: the poison lifecycle end to end.
    assert drill["poisoned"], "the drill job was never quarantined"
    assert drill["skipped_on_resume"], "a resume re-ran a quarantined job"
    assert drill["cured"], "--retry-poisoned did not re-admit the job"
    assert drill["identical_after_cure"], (
        "the cured run's artifact diverged from a clean run")
