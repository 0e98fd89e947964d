"""Chaos battery for the supervised job runner.

Every test drives :func:`repro.runner.pool.execute_jobs` through a
deterministic fault schedule (or a self-sabotaging stub job) and asserts
the three supervised-runner invariants:

1. the run *completes* — a dead, wedged, or over-budget worker never
   aborts the batch (the regression the bare ``multiprocessing.Pool``
   failed: a SIGKILLed worker broke ``imap_unordered`` and lost the run);
2. the recovered artifact is byte-identical to a fault-free run's
   (timing/attempt accounting aside) — supervision moves work, never
   changes it;
3. recovery is *accounted*: restarts/timeouts/quarantines appear in the
   stats counters and the persisted records, and no orphan worker
   processes survive.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import time

import pytest

from repro import chaos, supervise
from repro.assertions import Assertion, Literal
from repro.formal.checker import build_engine
from repro.formal.parallel import FormalWorkerPool
from repro.formal.proofcache import assertion_shard
from repro.runner.checkpoint import RunCheckpoint
from repro.runner.pool import execute_jobs
from repro.runner.registry import ExperimentSpec, JobSpec, register
from repro.runner.report import aggregate_records, render_result

_HAS_RSS_PROBE = supervise.process_rss_bytes(os.getpid()) is not None


def _chaos_execute(params):
    """Deterministic payload with scriptable self-sabotage.

    Appends one line per execution to ``<index>.log`` (the attempt
    proof), then optionally raises, SIGKILLs itself unless an antidote
    marker exists, balloons its RSS (on every execution, or on the first
    only with ``balloon_once``), or sleeps — all driven by params so each
    test controls the failure mode exactly.
    """
    import signal
    from pathlib import Path

    marker_dir = Path(params["marker_dir"])
    marker_dir.mkdir(parents=True, exist_ok=True)
    log = marker_dir / f"{params['index']}.log"
    with log.open("a") as handle:
        handle.write(f"{os.getpid()}\n")
    if params.get("explode"):
        raise ValueError(f"job {params['index']} exploded")
    if params.get("poison") and not (marker_dir / "antidote").exists():
        os.kill(os.getpid(), signal.SIGKILL)
    balloon = params.get("balloon_mb", 0)
    if params.get("balloon_once") and len(log.read_text().splitlines()) > 1:
        balloon = 0
    if balloon:
        # Unique random pages: lazy mapping and same-page merging would
        # elide a zero/repeating buffer; hold the balloon while sleeping
        # so the RSS watchdog sees the growth.
        hog = [os.urandom(1 << 20) for _ in range(balloon)]
        assert hog
        time.sleep(5.0)
    time.sleep(params.get("sleep_seconds", 0.0))
    payload = {
        "name": "chaos-stub", "description": "chaos stub experiment",
        "series": {f"job{params['index']}": [float(params["index"])]},
        "rows": [], "notes": [],
    }
    return payload, 10 * params["index"]


def _jobs(marker_dir, count=4, per_job=None):
    specs = []
    for index in range(count):
        params = {"index": index, "marker_dir": str(marker_dir)}
        params.update((per_job or {}).get(index, {}))
        specs.append(JobSpec("chaos-stub", f"chaos/{index}", params))
    return specs


@pytest.fixture()
def chaos_stub():
    return register(ExperimentSpec(
        name="chaos-stub", description="chaos test stub", artifact="none",
        expand=lambda options: [], execute=_chaos_execute))


def _formal_candidates(module):
    """One-literal candidates over every 1-bit input/output pair."""
    registers = set(module.state_names)
    inputs = [name for name in module.data_input_names
              if module.width_of(name) == 1]
    outputs = [name for name in module.output_names
               if module.width_of(name) == 1]
    return [Assertion((Literal(name, value, 0),),
                      Literal(output, 1, 1 if output in registers else 0), 1)
            for name in inputs for output in outputs for value in (0, 1)]


def _attempt_counts(marker_dir):
    counts = {}
    if marker_dir.exists():
        for path in marker_dir.glob("*.log"):
            counts[int(path.stem)] = len(path.read_text().splitlines())
    return counts


def _run(jobs, run_dir, **kwargs):
    checkpoint = RunCheckpoint(run_dir)
    checkpoint.run_dir.mkdir(parents=True, exist_ok=True)
    stats = {}
    records = execute_jobs(jobs, checkpoint, stats=stats, **kwargs)
    return records, stats, checkpoint


def _canonical(jobs, records):
    document = aggregate_records("chaos-stub", jobs, records)
    document.pop("jobs")  # wall-clock/attempt accounting differs, by design
    return json.dumps(document, sort_keys=True)


def _assert_no_orphans():
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        orphans = [child for child in multiprocessing.active_children()
                   if child.name.startswith("runner-worker-")]
        if not orphans:
            return
        time.sleep(0.05)
    raise AssertionError(f"orphan runner workers survived: {orphans}")


class TestKillRecovery:
    def test_sigkilled_worker_recovers_byte_identical(self, tmp_path, chaos_stub,
                                                      caplog):
        """The headline regression: kill → respawn → requeue → same artifact."""
        clean_jobs = _jobs(tmp_path / "m-clean", count=4)
        clean_records, _, _ = _run(clean_jobs, tmp_path / "clean", workers=2)

        jobs = _jobs(tmp_path / "m-chaos", count=4)
        plan = chaos.ChaosPlan(
            faults={0: chaos.WorkerFault(chaos.FAULT_KILL)})
        with chaos.injected(plan), \
                caplog.at_level(logging.WARNING, logger="repro.workers"):
            records, stats, _ = _run(jobs, tmp_path / "chaos", workers=2)

        assert _canonical(jobs, records) == _canonical(clean_jobs, clean_records)
        assert all(record["status"] == "ok" for record in records.values())
        assert stats["worker_restarts"] >= 1, "kill must force a respawn"
        assert plan.exhausted, "the scheduled fault must actually fire"
        killed = records["chaos/0"]
        assert killed["attempts"] == 2
        assert killed["faults"][0]["fault"] == "crash"
        assert killed["faults"][0]["exitcode"] == -9
        assert _attempt_counts(tmp_path / "m-chaos")[0] <= 2
        _assert_no_orphans()
        # Each respawn is one WARNING from the shared substrate.
        respawns = [record for record in caplog.records
                    if record.name == "repro.workers"
                    and "respawning" in record.getMessage()]
        assert len(respawns) == stats["worker_restarts"]
        assert all(record.levelno == logging.WARNING for record in respawns)
        assert all("runner-worker-" in record.getMessage()
                   for record in respawns)

    def test_kill_fault_persisted_in_checkpoint(self, tmp_path, chaos_stub):
        jobs = _jobs(tmp_path / "m", count=2)
        plan = chaos.ChaosPlan(
            faults={1: chaos.WorkerFault(chaos.FAULT_KILL)})
        with chaos.injected(plan):
            _, _, checkpoint = _run(jobs, tmp_path / "run", workers=2)
        reloaded = checkpoint.completed()["chaos/1"]
        assert reloaded["status"] == "ok"
        assert reloaded["attempts"] == 2
        assert reloaded["faults"][0]["fault"] == "crash"

    @pytest.mark.parametrize("layer", ["runner", "formal"])
    def test_idle_worker_death_is_survived(self, tmp_path, chaos_stub,
                                           arbiter2_module, layer):
        """An externally-killed idle worker is replaced before it is needed
        (runner: at next dispatch; formal: when its shard goes unanswered)."""
        from repro.runner.pool import SupervisedJobPool, _JobState

        if layer == "runner":
            pool = SupervisedJobPool(2, backoff=0.01)
            pool._workers.start()
        else:
            pool = FormalWorkerPool(arbiter2_module, "bmc", {"bound": 6},
                                    workers=2)
            pool.ensure_started()
        # Kill a worker before any work is dispatched.
        victim = pool._workers.slots[0].process
        victim.kill()
        victim.join(5.0)
        if layer == "formal":
            candidates = _formal_candidates(arbiter2_module)
            assert {assertion_shard(a, 2) for a in candidates} == {0, 1}
            try:
                results = pool.check_batch(list(enumerate(candidates)))
            finally:
                pool.close()
            engine = build_engine(arbiter2_module, "bmc", bound=6)
            assert [results[i].verdict for i in range(len(candidates))] == \
                [engine.check(a).verdict for a in candidates]
            assert pool.restarts == 1
            return
        jobs = _jobs(tmp_path / "m", count=3)
        done = []
        states = [_JobState(job=job, index=index)
                  for index, job in enumerate(jobs)]
        pool.run(states, done.append)
        assert sorted(record["job_id"] for record in done) == \
            [job.job_id for job in jobs]
        assert all(record["status"] == "ok" for record in done)
        assert pool.stats["worker_restarts"] == 1
        _assert_no_orphans()


class TestDeadlines:
    def test_wedged_worker_recovers_via_deadline(self, tmp_path, chaos_stub):
        clean_jobs = _jobs(tmp_path / "m-clean", count=3)
        clean_records, _, _ = _run(clean_jobs, tmp_path / "clean", workers=2)

        jobs = _jobs(tmp_path / "m-chaos", count=3)
        plan = chaos.ChaosPlan(
            faults={1: chaos.WorkerFault(chaos.FAULT_WEDGE)},
            deadline=0.5)
        with chaos.injected(plan):
            records, stats, _ = _run(jobs, tmp_path / "chaos", workers=2)

        assert _canonical(jobs, records) == _canonical(clean_jobs, clean_records)
        assert stats["job_timeouts"] >= 1
        wedged = records["chaos/1"]
        assert wedged["status"] == "ok"
        assert wedged["faults"][0]["fault"] == "deadline"
        _assert_no_orphans()

    def test_always_slow_job_quarantined_as_timed_out(self, tmp_path, chaos_stub):
        jobs = _jobs(tmp_path / "m", count=2,
                     per_job={1: {"sleep_seconds": 5.0}})
        records, stats, checkpoint = _run(
            jobs, tmp_path / "run", workers=2,
            job_timeout=0.3, retry_budget=1, backoff=0.01)
        slow = records["chaos/1"]
        assert slow["status"] == "timed_out"
        assert slow["attempts"] == 2, "one retry, then quarantine"
        assert "deadline" in slow["error"]
        assert [entry["fault"] for entry in slow["faults"]] == \
            ["deadline", "deadline"]
        assert stats["timed_out_jobs"] == 1
        assert records["chaos/0"]["status"] == "ok"

        # Resume keeps it quarantined: no further executions.
        before = _attempt_counts(tmp_path / "m").get(1, 0)
        lines = []
        records2, stats2, _ = _run(jobs, tmp_path / "run", workers=2,
                                   job_timeout=0.3, retry_budget=1,
                                   backoff=0.01, progress=lines.append)
        assert records2["chaos/1"]["status"] == "timed_out"
        assert _attempt_counts(tmp_path / "m").get(1, 0) == before
        assert stats2["timed_out_jobs"] == 0
        assert any("quarantine" in line for line in lines)
        _assert_no_orphans()


class TestPoisonQuarantine:
    def test_worker_killing_job_poisoned_then_cured(self, tmp_path, chaos_stub):
        marker = tmp_path / "m"
        jobs = _jobs(marker, count=3, per_job={1: {"poison": True}})
        run_kwargs = dict(workers=2, retry_budget=1, backoff=0.01)

        records, stats, checkpoint = _run(jobs, tmp_path / "run", **run_kwargs)
        poisoned = records["chaos/1"]
        assert poisoned["status"] == "poisoned"
        assert poisoned["attempts"] == 2
        assert [entry["fault"] for entry in poisoned["faults"]] == \
            ["crash", "crash"]
        assert stats["poisoned_jobs"] == 1
        assert stats["worker_restarts"] >= 2
        assert records["chaos/0"]["status"] == "ok"
        assert records["chaos/2"]["status"] == "ok"

        # Resume without --retry-poisoned: quarantined, not re-executed.
        before = _attempt_counts(marker)[1]
        lines = []
        records2, stats2, _ = _run(jobs, tmp_path / "run",
                                   progress=lines.append, **run_kwargs)
        assert records2["chaos/1"]["status"] == "poisoned"
        assert _attempt_counts(marker)[1] == before
        assert any("quarantine" in line for line in lines)
        assert any("already complete" in line for line in lines)

        # Cure the job, re-admit it: fresh budget, cumulative attempts.
        (marker / "antidote").touch()
        records3, _, checkpoint3 = _run(jobs, tmp_path / "run",
                                        retry_poisoned=True, **run_kwargs)
        cured = records3["chaos/1"]
        assert cured["status"] == "ok"
        assert cured["attempts"] == 3, "2 poisoned attempts + 1 cured"

        clean_jobs = _jobs(tmp_path / "m-clean", count=3)
        clean_records, _, _ = _run(clean_jobs, tmp_path / "clean", workers=2)
        assert _canonical(jobs, records3) == \
            _canonical(clean_jobs, clean_records)
        _assert_no_orphans()


class TestRetryBudgetAcrossResumes:
    def test_failed_job_retries_bounded_across_resumes(self, tmp_path, chaos_stub):
        """The unbounded-resume-retry fix: attempts accrue, then stop."""
        marker = tmp_path / "m"
        jobs = _jobs(marker, count=2, per_job={0: {"explode": True}})

        # Run + one resume: the failing job executes once per invocation
        # (an in-job exception is not a worker fault, so no in-run retry).
        records, _, _ = _run(jobs, tmp_path / "run", retry_budget=1)
        assert records["chaos/0"]["status"] == "failed"
        assert records["chaos/0"]["attempts"] == 1
        records, _, _ = _run(jobs, tmp_path / "run", retry_budget=1)
        assert records["chaos/0"]["attempts"] == 2
        assert _attempt_counts(marker)[0] == 2

        # Budget (1 + retry_budget executions) exhausted: resumes skip it.
        lines = []
        records, _, _ = _run(jobs, tmp_path / "run", retry_budget=1,
                             progress=lines.append)
        assert records["chaos/0"]["status"] == "failed"
        assert records["chaos/0"]["attempts"] == 2
        assert _attempt_counts(marker)[0] == 2, "no execution past the budget"
        assert any("quarantine" in line for line in lines)

        # --retry-poisoned re-admits it.
        records, _, _ = _run(jobs, tmp_path / "run", retry_budget=1,
                             retry_poisoned=True)
        assert _attempt_counts(marker)[0] == 3
        assert records["chaos/0"]["attempts"] == 3

    def test_inline_path_threads_attempts(self, tmp_path, chaos_stub):
        jobs = _jobs(tmp_path / "m", count=2)
        records, _, checkpoint = _run(jobs, tmp_path / "run")
        assert all(record["attempts"] == 1 for record in records.values())
        assert all(record["attempts"] == 1
                   for record in checkpoint.completed().values())


@pytest.mark.skipif(not _HAS_RSS_PROBE, reason="no /proc RSS probe")
class TestMemoryGovernance:
    def test_over_budget_worker_killed_and_retry_charged(self, tmp_path, chaos_stub):
        """A memory kill is charged to the retry budget like a worker
        death; a job that balloons only once finishes on the retry."""
        jobs = _jobs(tmp_path / "m", count=2,
                     per_job={1: {"balloon_mb": 256, "balloon_once": True}})
        records, stats, _ = _run(jobs, tmp_path / "run", workers=1,
                                 memory_budget_mb=96, retry_budget=1,
                                 backoff=0.01)
        hog = records["chaos/1"]
        assert hog["status"] == "ok"
        assert hog["attempts"] == 2
        assert [fault["fault"] for fault in hog["faults"]] == ["memory"]
        assert hog["faults"][0]["rss_bytes"] > hog["faults"][0]["baseline_bytes"]
        assert stats["memory_kills"] == 1
        assert stats["poisoned_jobs"] == 0
        assert records["chaos/0"]["status"] == "ok"
        assert "faults" not in records["chaos/0"]
        _assert_no_orphans()

    def test_always_over_budget_job_poisoned(self, tmp_path, chaos_stub):
        """With no free retry, a job that balloons every time is
        quarantined after ``1 + retry_budget`` attempts."""
        marker = tmp_path / "m"
        jobs = _jobs(marker, count=2, per_job={1: {"balloon_mb": 256}})
        records, stats, _ = _run(jobs, tmp_path / "run", workers=1,
                                 memory_budget_mb=96, retry_budget=1,
                                 backoff=0.01)
        hog = records["chaos/1"]
        assert hog["status"] == "poisoned"
        assert hog["attempts"] == 2
        assert _attempt_counts(marker)[1] == 2
        assert [fault["fault"] for fault in hog["faults"]] == ["memory", "memory"]
        assert "memory budget" in hog["error"]
        assert stats["memory_kills"] == 2
        assert stats["poisoned_jobs"] == 1
        assert records["chaos/0"]["status"] == "ok"
        _assert_no_orphans()

    def test_oom_chaos_fault_drives_watchdog(self, tmp_path, chaos_stub):
        jobs = _jobs(tmp_path / "m", count=2)
        plan = chaos.ChaosPlan(
            faults={0: chaos.WorkerFault(chaos.FAULT_OOM, balloon_mb=256)},
            memory_budget_mb=96)
        with chaos.injected(plan):
            records, stats, _ = _run(jobs, tmp_path / "run", workers=2)
        assert all(record["status"] == "ok" for record in records.values())
        assert stats["memory_kills"] >= 1
        assert records["chaos/0"]["attempts"] == 2
        _assert_no_orphans()


class TestChaosPlan:
    def test_seeded_plans_are_reproducible(self):
        first = chaos.ChaosPlan.seeded(7, 6, faults=2)
        second = chaos.ChaosPlan.seeded(7, 6, faults=2)
        assert first.faults == second.faults
        assert len(first.faults) == 2
        assert all(fault.kind in (chaos.FAULT_KILL, chaos.FAULT_WEDGE)
                   for fault in first.faults.values())
        variants = {
            tuple(sorted(chaos.ChaosPlan.seeded(
                seed, 6, faults=2).faults.items()))
            for seed in range(10)}
        assert len(variants) > 1, "different seeds must vary the schedule"

    def test_seeded_wedge_plan_arms_a_deadline(self):
        plan = chaos.ChaosPlan.seeded(
            3, 4, faults=2, kinds=(chaos.FAULT_WEDGE,))
        assert plan.deadline is not None

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            chaos.WorkerFault("melt")
        with pytest.raises(ValueError):
            chaos.WorkerFault(chaos.FAULT_OOM, balloon_mb=0)

    def test_install_uninstall(self):
        plan = chaos.ChaosPlan()
        assert chaos.active_plan() is None
        with chaos.injected(plan):
            assert chaos.active_plan() is plan
        assert chaos.active_plan() is None


class TestReporting:
    def test_report_surfaces_attempts(self, tmp_path, chaos_stub):
        jobs = _jobs(tmp_path / "m", count=2)
        plan = chaos.ChaosPlan(
            faults={0: chaos.WorkerFault(chaos.FAULT_KILL)})
        with chaos.injected(plan):
            records, _, _ = _run(jobs, tmp_path / "run", workers=2)
        document = aggregate_records("chaos-stub", jobs, records)
        by_job = {entry["job_id"]: entry for entry in document["jobs"]}
        assert by_job["chaos/0"]["attempts"] == 2
        assert by_job["chaos/1"]["attempts"] == 1
        rendered = render_result(document)
        assert "attempts" in rendered
