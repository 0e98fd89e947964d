"""Parallel experiment orchestration: job specs, worker pool, checkpoints, CLI.

This package turns the experiment drivers of :mod:`repro.experiments`
into declarative, independently-schedulable jobs:

* :mod:`repro.runner.registry` — :class:`ExperimentSpec` /
  :class:`JobSpec` / :class:`RunOptions`: the declarative layer.  One
  spec per paper figure/table plus the ad-hoc ``sweep``.
* :mod:`repro.runner.specs` — the built-in specs (registered on import).
* :mod:`repro.runner.pool` — the runner's policy over the shared
  supervised substrate (:mod:`repro.workers`): any-idle-slot routing,
  per-job wall-clock/cycle accounting, deterministic requeue on worker
  death, per-job deadlines, an RSS-growth memory watchdog, and bounded
  retry budgets (charged by every worker fault) with poison quarantine;
  serial, parallel, and fault-recovered runs produce identical artifact
  JSON.  Fault injection for tests and benchmarks is :mod:`repro.chaos`
  (plans keyed by job index).
* :mod:`repro.runner.checkpoint` — JSON-lines completion log under
  ``artifacts/<run-id>/``; killed runs resume without re-running
  completed jobs.
* :mod:`repro.runner.report` — shard aggregation into ``result.json``
  and table rendering.
* :mod:`repro.runner.cli` — the ``python -m repro`` entry point
  (``run`` / ``list`` / ``report``).

Library use mirrors the CLI::

    from repro.core import GoldMineConfig
    from repro.runner import RunOptions, get_experiment, execute_jobs, RunCheckpoint

    options = RunOptions(config=GoldMineConfig(engine="tiered", induction_k=4))
    spec = get_experiment("fig16")
    jobs = spec.expand(options)
    checkpoint = RunCheckpoint("artifacts/fig16")
    checkpoint.ensure_manifest({"experiment": spec.name,
                                "options": options.identity(),
                                "jobs": [job.job_id for job in jobs]})
    records = execute_jobs(jobs, checkpoint, workers=4)
"""

from repro.runner.checkpoint import CheckpointError, RunCheckpoint, find_run_dirs
from repro.runner.pool import SupervisedJobPool, execute_jobs, run_one_job
from repro.runner.registry import (
    ExperimentSpec,
    JobSpec,
    RunOptions,
    experiment_names,
    get_experiment,
    register,
)
from repro.runner.report import aggregate_records, render_result

__all__ = [
    "CheckpointError",
    "ExperimentSpec",
    "JobSpec",
    "RunCheckpoint",
    "RunOptions",
    "SupervisedJobPool",
    "aggregate_records",
    "execute_jobs",
    "experiment_names",
    "find_run_dirs",
    "get_experiment",
    "register",
    "render_result",
    "run_one_job",
]
