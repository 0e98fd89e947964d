"""Worker-pool determinism, resume semantics, and failure handling.

A stub experiment (registered per-test) stands in for the real drivers so
these tests control execution exactly: the stub records every execution
in a marker directory, which lets the resume tests assert that completed
jobs are *not* re-run, and the determinism tests compare serial vs
parallel artifact JSON byte for byte.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import GoldMineConfig
from repro.runner.checkpoint import RunCheckpoint
from repro.runner.pool import execute_jobs, run_one_job
from repro.runner.registry import ExperimentSpec, JobSpec, RunOptions, register
from repro.runner.report import aggregate_records


def _stub_execute(params):
    """Deterministic payload; leaves a marker file proving it ran."""
    from pathlib import Path

    marker_dir = Path(params["marker_dir"])
    marker_dir.mkdir(parents=True, exist_ok=True)
    (marker_dir / f"{params['index']}.ran").touch()
    if params.get("explode"):
        raise ValueError(f"job {params['index']} exploded")
    payload = {
        "name": "stub", "description": "stub experiment",
        "series": {f"job{params['index']}": [float(params["index"])]},
        "rows": [], "notes": [],
    }
    return payload, 10 * params["index"]


def _stub_jobs(marker_dir, count=4, explode=()):
    return [JobSpec("stub", f"stub/{index}",
                    {"index": index, "marker_dir": str(marker_dir),
                     "explode": index in explode})
            for index in range(count)]


@pytest.fixture()
def stub_spec():
    return register(ExperimentSpec(
        name="stub", description="test stub", artifact="none",
        expand=lambda options: [], execute=_stub_execute))


def _markers(marker_dir):
    if not marker_dir.exists():
        return set()
    return {int(path.stem) for path in marker_dir.glob("*.ran")}


class TestExecution:
    def test_run_one_job_times_and_accounts(self, tmp_path, stub_spec):
        record = run_one_job(("stub", "stub/2", {"index": 2,
                                                 "marker_dir": str(tmp_path / "m"),
                                                 "explode": False}))
        assert record["status"] == "ok"
        assert record["cycles"] == 20
        assert record["seconds"] >= 0.0
        assert record["payload"]["series"] == {"job2": [2.0]}

    def test_failure_becomes_record_not_exception(self, tmp_path, stub_spec):
        record = run_one_job(("stub", "stub/1", {"index": 1,
                                                 "marker_dir": str(tmp_path / "m"),
                                                 "explode": True}))
        assert record["status"] == "failed"
        assert "ValueError" in record["error"]

    def test_all_jobs_checkpointed(self, tmp_path, stub_spec):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.run_dir.mkdir()
        jobs = _stub_jobs(tmp_path / "m")
        records = execute_jobs(jobs, checkpoint, workers=1)
        assert set(records) == {job.job_id for job in jobs}
        assert set(checkpoint.completed()) == set(records)
        assert _markers(tmp_path / "m") == {0, 1, 2, 3}


class TestDeterminism:
    def test_serial_and_parallel_artifacts_identical(self, tmp_path, stub_spec):
        documents = []
        for label, workers in (("serial", 1), ("parallel", 3)):
            checkpoint = RunCheckpoint(tmp_path / label)
            checkpoint.run_dir.mkdir()
            jobs = _stub_jobs(tmp_path / f"markers-{label}", count=6)
            records = execute_jobs(jobs, checkpoint, workers=workers)
            document = aggregate_records("stub", jobs, records)
            document.pop("jobs")  # wall-clock accounting differs, by design
            documents.append(json.dumps(document, sort_keys=True))
        assert documents[0] == documents[1]

    def test_aggregate_order_independent_of_completion_order(self, stub_spec, tmp_path):
        jobs = _stub_jobs(tmp_path / "m", count=3)
        records = {job.job_id: run_one_job(job.task()) for job in jobs}
        forward = aggregate_records("stub", jobs, records)
        backward = aggregate_records("stub", list(reversed(jobs)), records)
        assert forward == backward


class TestResume:
    def test_completed_jobs_not_rerun(self, tmp_path, stub_spec):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.run_dir.mkdir()
        jobs = _stub_jobs(tmp_path / "m", count=4)

        # First pass: only jobs 0 and 2 got checkpointed before the "kill".
        for job in (jobs[0], jobs[2]):
            checkpoint.append(run_one_job(job.task()))
        for path in (tmp_path / "m").glob("*.ran"):
            path.unlink()  # forget the first pass's markers

        records = execute_jobs(jobs, checkpoint, workers=1)
        assert _markers(tmp_path / "m") == {1, 3}, "completed jobs must be skipped"
        assert set(records) == {job.job_id for job in jobs}

    def test_resumed_aggregate_equals_uninterrupted(self, tmp_path, stub_spec):
        jobs = _stub_jobs(tmp_path / "m", count=4)

        uninterrupted = RunCheckpoint(tmp_path / "full")
        uninterrupted.run_dir.mkdir()
        full = aggregate_records("stub", jobs,
                                 execute_jobs(jobs, uninterrupted, workers=1))

        resumed_checkpoint = RunCheckpoint(tmp_path / "resumed")
        resumed_checkpoint.run_dir.mkdir()
        resumed_checkpoint.append(run_one_job(jobs[1].task()))
        resumed = aggregate_records("stub", jobs,
                                    execute_jobs(jobs, resumed_checkpoint, workers=1))

        full.pop("jobs")
        resumed.pop("jobs")
        assert full == resumed

    def test_failed_jobs_are_retried(self, tmp_path, stub_spec):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.run_dir.mkdir()
        jobs = _stub_jobs(tmp_path / "m", count=2)
        checkpoint.append({"job_id": jobs[0].job_id, "experiment": "stub",
                           "status": "failed", "error": "killed", "seconds": 0.0})
        execute_jobs(jobs, checkpoint, workers=1)
        assert _markers(tmp_path / "m") == {0, 1}, "failed job must re-run"
        assert checkpoint.completed()[jobs[0].job_id]["status"] == "ok"


class TestFailures:
    def test_failure_recorded_and_surfaced_in_aggregate(self, tmp_path, stub_spec):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.run_dir.mkdir()
        jobs = _stub_jobs(tmp_path / "m", count=3, explode={1})
        records = execute_jobs(jobs, checkpoint, workers=1)
        document = aggregate_records("stub", jobs, records)
        assert [f["job_id"] for f in document["failures"]] == ["stub/1"]
        # the surviving shards still aggregate
        assert "job0" in document["series"] and "job2" in document["series"]

    def test_parallel_failure_does_not_abort_run(self, tmp_path, stub_spec):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.run_dir.mkdir()
        jobs = _stub_jobs(tmp_path / "m", count=4, explode={0})
        records = execute_jobs(jobs, checkpoint, workers=2)
        statuses = {job_id: record["status"] for job_id, record in records.items()}
        assert statuses["stub/0"] == "failed"
        assert all(status == "ok" for job_id, status in statuses.items()
                   if job_id != "stub/0")


class TestRunOptions:
    def test_identity_excludes_nothing_that_changes_payloads(self):
        base = RunOptions()
        assert RunOptions().identity() == base.identity()
        assert RunOptions(config=GoldMineConfig(engine="tiered")).identity() \
            != base.identity()
        assert RunOptions(smoke=True).identity() != base.identity()
        assert RunOptions(seeds=(1,)).identity() != base.identity()

    def test_pick_designs_precedence(self):
        assert RunOptions(designs=("b01",)).pick_designs(["a"], ["b"]) == ["b01"]
        assert RunOptions(smoke=True).pick_designs(["a", "b"], ["a"]) == ["a"]
        assert RunOptions().pick_designs(["a", "b"], ["a"]) == ["a", "b"]

    def test_pick_designs_deduplicates(self):
        options = RunOptions(designs=("b01", "b01", "arbiter2"))
        assert options.pick_designs(["a"]) == ["b01", "arbiter2"]
