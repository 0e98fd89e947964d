"""Supervised worker-pool execution of experiment job sets.

``execute_jobs`` fans a list of :class:`~repro.runner.registry.JobSpec`
jobs out across a :class:`SupervisedJobPool` (or runs them inline for
``workers <= 1`` with no governance flags), appending one checkpoint
record per completed job as it finishes.  Jobs already present in the
checkpoint are skipped, which is what makes a killed run resumable:
re-invoking the same command picks up exactly where the log ends.

The worker processes, their liveness/deadline/RSS supervision and their
orphan hygiene are the shared substrate's
(:class:`repro.workers.SupervisedPool`); routing is any idle slot.  What
this module adds is the runner's policy per job:

* **Worker death** (SIGKILL, OOM kill, segfault) — the slot is respawned
  on fresh queues and the in-flight job deterministically requeued; the
  run continues.
* **Runaway jobs** — an optional per-job wall-clock deadline
  (``job_timeout``) ends an over-deadline worker and requeues the job.
* **Memory pressure** — an optional RSS watchdog (``memory_budget_mb``)
  kills a worker whose resident set grows more than the budget past its
  post-spawn baseline and retries the job once, free of charge, in
  degraded mode (the ``"config"`` param's ``sim_lanes`` reduced —
  payloads are invariant to it, so the artifact is unchanged; the
  degradation is recorded).
* **Poison jobs** — every other fault is charged to the job's bounded
  retry budget (exponential backoff between attempts); a job that
  exhausts it is quarantined as ``status: "poisoned"`` (or
  ``"timed_out"`` when the final fault was its deadline) with its
  attempt count and fault history persisted, and is never retried on
  resume without ``retry_poisoned``.

Determinism contract: a job's payload depends only on its params, never
on scheduling or supervision, so serial, parallel, and fault-recovered
runs of the same job set produce identical artifact JSON (timing and
attempt accounting aside).  Failures *inside* a job are recorded
(``status: "failed"`` with the exception text) rather than aborting the
whole run; the surviving jobs still checkpoint, and the CLI exits
non-zero.

Chaos injection: when a :class:`repro.chaos.ChaosPlan` is installed
(test-only), it is keyed by job index — the position of a job in the
run's pending list — and each fault travels with that job's first
in-run attempt; the plan's supervision overrides apply to the run.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro import chaos, supervise
from repro.runner.checkpoint import RunCheckpoint
from repro.runner.registry import JobSpec, get_experiment
from repro.workers import (
    ANSWER,
    DEADLINE,
    MEMORY,
    POLL_SECONDS,
    Policy,
    SupervisedPool,
    serve,
)

#: Default per-job retry budget: faults beyond these retries quarantine
#: the job.  Chosen to match the formal layer's restart allowance.
DEFAULT_RETRY_BUDGET = 2
#: Degraded-mode simulation lanes after a memory kill (only for jobs
#: whose ``"config"`` param sets them); a payload-invariant knob.
DEGRADED_SIM_LANES = 16

#: Counter keys ``execute_jobs`` maintains in its ``stats`` out-param.
STAT_KEYS = ("worker_restarts", "job_timeouts", "memory_kills",
             "degraded_retries", "poisoned_jobs", "timed_out_jobs")


def run_one_job(task: tuple[str, str, dict]) -> dict:
    """Execute one (experiment, job_id, params) task; never raises.

    This is the function pool workers run.  Only the task tuple crosses
    the process boundary; the worker resolves the experiment spec from
    the registry in its own interpreter.
    """
    experiment, job_id, params = task
    record = {"job_id": job_id, "experiment": experiment}
    start = time.perf_counter()
    try:
        spec = get_experiment(experiment)
        payload, cycles = spec.execute(params)
        record.update(status="ok", payload=payload, cycles=int(cycles))
    except Exception as exc:  # noqa: BLE001 - failures become records
        record.update(status="failed",
                      error=f"{type(exc).__name__}: {exc}",
                      trace=traceback.format_exc(limit=8))
    record["seconds"] = round(time.perf_counter() - start, 6)
    return record


def _degraded_overrides(params) -> dict:
    """Reduced-resource config fields for a memory-kill retry (present
    keys only), applied to the job's ``"config"`` param."""
    config = params.get("config") or {}
    if "sim_lanes" in config:
        return {"sim_lanes": min(int(config["sim_lanes"]), DEGRADED_SIM_LANES)}
    return {}


@dataclass
class _JobState:
    """Supervision bookkeeping for one pending job."""

    job: JobSpec
    #: Position in the run's pending list — the key chaos plans and the
    #: retry budget use.
    index: int
    #: Executions recorded by previous runs (from the checkpoint record).
    prior_attempts: int = 0
    #: Executions started in this run.
    runs: int = 0
    faults: list = field(default_factory=list)
    degraded: dict | None = None
    #: Earliest monotonic time the next attempt may dispatch (backoff).
    ready_at: float = 0.0
    started_at: float = 0.0

    @property
    def attempts(self) -> int:
        return self.prior_attempts + self.runs

    def current_task(self) -> tuple[str, str, dict]:
        task = self.job.task()
        if self.degraded:
            task[2]["config"] = {**task[2]["config"], **self.degraded}
        return task


class SupervisedJobPool:
    """The runner's policy over a :class:`repro.workers.SupervisedPool`.

    One-shot: construct, :meth:`run` one batch of job states, done.
    ``stats`` (a mutable dict) accumulates the :data:`STAT_KEYS` counters
    so callers can assert recovery actually fired.
    """

    def __init__(self, workers: int, *,
                 job_timeout: float | None = None,
                 memory_budget_mb: float | None = None,
                 retry_budget: int = DEFAULT_RETRY_BUDGET,
                 backoff: float = supervise.DEFAULT_BACKOFF_SECONDS,
                 chaos_plan=None,
                 stats: dict | None = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._chaos_plan = chaos_plan
        self.stats = stats if stats is not None else {}
        for key in STAT_KEYS:
            self.stats.setdefault(key, 0)
        policy = Policy(deadline=job_timeout, retry_budget=retry_budget,
                        backoff=backoff, memory_budget_mb=memory_budget_mb)
        self._workers = SupervisedPool("runner-worker", serve, (run_one_job,),
                                       slots=workers, policy=policy)
        #: slot → the job state it is executing.
        self._running: dict[int, _JobState] = {}

    def run(self, states: Sequence[_JobState],
            absorb: Callable[[dict], None]) -> None:
        """Run every job state to a final record, surviving worker faults."""
        pending: deque[_JobState] = deque(states)
        self._workers.start()
        try:
            while pending or self._running:
                progressed = self._dispatch(pending)
                progressed |= self._supervise(pending, absorb)
                if not progressed:
                    time.sleep(POLL_SECONDS)
        finally:
            self._workers.close()
            self.stats["worker_restarts"] += self._workers.restarts
            self.stats["job_timeouts"] += self._workers.deadline_kills
            self.stats["memory_kills"] += self._workers.memory_kills

    def _dispatch(self, pending: deque) -> bool:
        progressed = False
        now = time.monotonic()
        for index in range(len(self._workers.slots)):
            if index in self._running:
                continue
            if not self._workers.alive(index):
                self._workers.respawn(index)  # an idle worker died
            state = self._next_ready(pending, now)
            if state is None:
                continue
            fault = None
            if self._chaos_plan is not None and state.runs == 0:
                fault = self._chaos_plan.take_fault(state.index)
            state.runs += 1
            state.started_at = now
            self._running[index] = state
            self._workers.submit(index, state.current_task(),
                                 self._workers.policy.deadline, fault)
            progressed = True
        return progressed

    @staticmethod
    def _next_ready(pending: deque, now: float):
        """Pop the first pending state whose backoff has elapsed."""
        for _ in range(len(pending)):
            if pending[0].ready_at <= now:
                return pending.popleft()
            pending.rotate(-1)
        return None

    def _supervise(self, pending: deque, absorb) -> bool:
        progressed = False
        for index, state in list(self._running.items()):
            event = self._workers.poll(index)
            if event is None:
                continue
            del self._running[index]
            kind, detail = event
            if kind == ANSWER:
                self._finish(state, detail, absorb)
            else:
                self._fault(state, kind, detail, pending, absorb)
                self._workers.respawn(index)
            progressed = True
        return progressed

    @staticmethod
    def _finish(state: _JobState, record: dict, absorb) -> None:
        record["attempts"] = state.attempts
        if state.degraded:
            record["degraded"] = dict(state.degraded)
        if state.faults:
            record["faults"] = list(state.faults)
        absorb(record)

    def _fault(self, state: _JobState, kind: str, detail: dict,
               pending: deque, absorb) -> None:
        """Charge a fault to a job: requeue, degrade, or quarantine."""
        entry = {"fault": kind, "attempt": state.attempts}
        entry.update(detail)
        state.faults.append(entry)
        now = time.monotonic()
        if kind == MEMORY and state.degraded is None:
            # One free degraded-mode retry before memory faults start
            # consuming the regular budget.
            state.degraded = _degraded_overrides(state.job.params)
            state.ready_at = now
            self.stats["degraded_retries"] += 1
            pending.append(state)
            return
        delay = self._workers.retry_delay(
            state.index, f"quarantining job {state.job.job_id}")
        if delay is not None:
            state.ready_at = now + delay
            pending.append(state)
            return
        # Budget exhausted: quarantine with the full fault history.
        if kind == DEADLINE:
            status = "timed_out"
            error = (f"job exceeded {detail['timeout_seconds']:g}s deadline "
                     f"({state.attempts} attempts)")
            self.stats["timed_out_jobs"] += 1
        else:
            status = "poisoned"
            what = ("worker exceeded memory budget" if kind == MEMORY
                    else f"worker died (exitcode {detail.get('exitcode')})")
            error = f"{what} ({state.attempts} attempts)"
            self.stats["poisoned_jobs"] += 1
        record = {
            "job_id": state.job.job_id,
            "experiment": state.job.experiment,
            "status": status,
            "error": error,
            "seconds": round(now - state.started_at, 6),
            "attempts": state.attempts,
            "faults": list(state.faults),
        }
        if state.degraded:
            record["degraded"] = dict(state.degraded)
        absorb(record)


#: Record statuses that are final: never retried on resume without
#: ``retry_poisoned`` (both are only ever written on budget exhaustion).
_QUARANTINED = ("poisoned", "timed_out")


def execute_jobs(jobs: Sequence[JobSpec], checkpoint: RunCheckpoint,
                 workers: int = 1,
                 progress: Callable[[str], None] | None = None, *,
                 job_timeout: float | None = None,
                 memory_budget_mb: float | None = None,
                 retry_budget: int = DEFAULT_RETRY_BUDGET,
                 retry_poisoned: bool = False,
                 backoff: float = supervise.DEFAULT_BACKOFF_SECONDS,
                 stats: dict | None = None) -> dict[str, dict]:
    """Run every job not already completed; return all records by job id.

    ``workers`` caps pool size (it is further capped by the job count);
    ``progress`` receives one human-readable line per job event.
    ``job_timeout`` / ``memory_budget_mb`` enable the per-job deadline
    and RSS-growth watchdog; ``retry_budget`` bounds fault retries both
    within a run and cumulatively across resumes (``attempts`` in each
    record carries the count forward); ``retry_poisoned`` re-admits
    quarantined and budget-exhausted jobs with a fresh in-run budget.
    ``stats``, when given, accumulates the :data:`STAT_KEYS` recovery
    counters for the caller.
    """
    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    if stats is None:
        stats = {}
    for key in STAT_KEYS:
        stats.setdefault(key, 0)

    policy = Policy(deadline=job_timeout, retry_budget=retry_budget,
                    backoff=backoff, memory_budget_mb=memory_budget_mb)
    plan = chaos.active_plan()
    if plan is not None:
        policy = plan.apply(policy)

    records = checkpoint.completed()
    # Resume triage.  A failed record does not count as done —
    # re-running retries it — but only while its cumulative attempt
    # count is inside the budget; quarantined jobs (poisoned/timed_out)
    # and budget-exhausted failures stay skipped without retry_poisoned.
    pending: list[tuple[JobSpec, int]] = []
    quarantined = 0
    for job in jobs:
        record = records.get(job.job_id)
        if record is None:
            pending.append((job, 0))
            continue
        status = record.get("status")
        if status == "ok":
            continue
        prior = max(1, int(record.get("attempts", 1) or 1))
        if not retry_poisoned:
            if status in _QUARANTINED:
                quarantined += 1
                continue
            if prior >= 1 + policy.retry_budget:
                quarantined += 1
                continue
        pending.append((job, prior))
    skipped = len(jobs) - len(pending)
    if skipped:
        say(f"resume: {skipped}/{len(jobs)} jobs already complete, "
            f"{len(pending)} to run")
    if quarantined:
        say(f"quarantine: {quarantined} job(s) kept skipped after exhausting "
            f"their retry budget (pass --retry-poisoned to re-admit them)")

    total = len(jobs)
    finished = skipped

    def absorb(record: dict) -> None:
        nonlocal finished
        finished += 1
        checkpoint.append(record)
        records[record["job_id"]] = record
        status = record["status"]
        note = f"{record['seconds']:.2f}s"
        if status != "ok":
            note = record.get("error", status)
        say(f"[{finished}/{total}] {record['job_id']} {status} ({note})")

    if not pending:
        return records

    supervised = (workers > 1 or policy.deadline is not None
                  or policy.memory_budget_mb is not None or plan is not None)
    if not supervised:
        for job, prior in pending:
            record = run_one_job(job.task())
            record["attempts"] = prior + 1
            absorb(record)
        return records

    workers = max(1, min(workers, len(pending)))
    states = [_JobState(job=job, index=index, prior_attempts=prior)
              for index, (job, prior) in enumerate(pending)]
    pool = SupervisedJobPool(workers,
                             job_timeout=policy.deadline,
                             memory_budget_mb=policy.memory_budget_mb,
                             retry_budget=policy.retry_budget,
                             backoff=policy.backoff,
                             chaos_plan=plan,
                             stats=stats)
    pool.run(states, absorb)
    return records
