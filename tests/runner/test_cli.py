"""End-to-end CLI smoke tests: ``python -m repro`` as a subprocess.

These hold the acceptance criteria: ``run fig12 --workers 4`` produces
artifact JSON identical (modulo timing) to the serial run, a killed run
resumes without re-running completed jobs, and the documented commands
exit 0 at smoke scale.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def repro_cli(*args: str, cwd: Path | None = None,
              check: bool = True) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    process = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=cwd or REPO_ROOT,
        timeout=120,
    )
    if check and process.returncode != 0:
        raise AssertionError(
            f"python -m repro {' '.join(args)} exited "
            f"{process.returncode}\nstdout:\n{process.stdout}\n"
            f"stderr:\n{process.stderr}")
    return process


def _stripped_result(run_dir: Path) -> str:
    document = json.loads((run_dir / "result.json").read_text())
    document.pop("jobs", None)  # wall-clock accounting
    return json.dumps(document, sort_keys=True)


class TestList:
    def test_list_names_every_artifact(self):
        out = repro_cli("list").stdout
        for name in ("fig12", "fig13", "fig16", "table1", "table3",
                     "walkthrough", "sweep", "arbiter2", "b01"):
            assert name in out

    def test_list_json(self):
        data = json.loads(repro_cli("list", "--json").stdout)
        names = {entry["name"] for entry in data["experiments"]}
        assert {"fig12", "sweep"} <= names
        assert any(d["name"] == "arbiter2" for d in data["designs"])


class TestRun:
    def test_fig12_parallel_matches_serial(self, tmp_path):
        """Acceptance: run fig12 --workers 4 == the serial run, modulo timing."""
        repro_cli("run", "fig12", "--workers", "1",
                  "--artifacts", str(tmp_path / "serial"), "--quiet")
        repro_cli("run", "fig12", "--workers", "4",
                  "--artifacts", str(tmp_path / "parallel"), "--quiet")
        assert _stripped_result(tmp_path / "serial" / "fig12") == \
            _stripped_result(tmp_path / "parallel" / "fig12")

    def test_fig12_reproduces_paper_series(self, tmp_path):
        repro_cli("run", "fig12", "--artifacts", str(tmp_path), "--quiet")
        document = json.loads((tmp_path / "fig12" / "result.json").read_text())
        series = document["series"]["input_space_%"]
        assert series[0] == 0.0
        assert series[-1] == 100.0

    def test_sweep_smoke(self, tmp_path):
        out = repro_cli("run", "sweep", "--designs", "arbiter2", "--seeds", "0,1",
                        "--smoke", "--artifacts", str(tmp_path), "--quiet",
                        "--json").stdout
        document = json.loads(out)
        methods = {row["method"] for row in document["rows"]}
        assert methods == {"seed0", "seed1"}

    def test_unknown_experiment_exits_2(self, tmp_path):
        process = repro_cli("run", "nonesuch", "--artifacts", str(tmp_path),
                            check=False)
        assert process.returncode == 2
        assert "unknown experiment" in process.stderr

    def test_fixed_subject_rejects_designs(self, tmp_path):
        """fig15 always runs wbstage; --designs must error, not be ignored."""
        process = repro_cli("run", "fig15", "--designs", "b01",
                            "--artifacts", str(tmp_path), check=False)
        assert process.returncode == 2
        assert "wbstage" in process.stderr

    def test_duplicate_designs_deduplicated(self, tmp_path):
        out = repro_cli("run", "sweep", "--designs", "arbiter2,arbiter2",
                        "--seeds", "0", "--smoke", "--artifacts", str(tmp_path),
                        "--quiet", "--json").stdout
        document = json.loads(out)
        assert len(document["jobs"]) == 1

    def test_mismatched_resume_refused(self, tmp_path):
        repro_cli("run", "fig12", "--artifacts", str(tmp_path),
                  "--run-id", "shared", "--quiet")
        process = repro_cli("run", "fig12", "--induction-k", "4",
                            "--artifacts", str(tmp_path), "--run-id", "shared",
                            check=False)
        assert process.returncode == 2
        assert "--fresh" in process.stderr
        # --fresh discards the old checkpoint and proceeds
        repro_cli("run", "fig12", "--induction-k", "4", "--fresh",
                  "--artifacts", str(tmp_path), "--run-id", "shared", "--quiet")

    def test_ignored_flag_does_not_block_resume(self, tmp_path):
        """fig12 ignores --seeds, so the job set is unchanged and the run
        directory must be resumable."""
        repro_cli("run", "fig12", "--artifacts", str(tmp_path), "--quiet")
        process = repro_cli("run", "fig12", "--seeds", "5",
                            "--artifacts", str(tmp_path))
        assert "resume: 1/1 jobs already complete" in process.stderr

    def test_retired_engine_flag_rejected(self, tmp_path):
        """``--engine``/``--lanes`` are gone with the lane engine choice: a
        usage error before any run directory exists."""
        process = repro_cli("run", "fig12", "--engine", "batched",
                            "--artifacts", str(tmp_path), check=False)
        assert process.returncode == 2
        assert "unrecognized arguments" in process.stderr
        assert not (tmp_path / "fig12").exists()

    @pytest.mark.parametrize("retired", ["bmc", "k-induction"])
    def test_retired_formal_engine_rejected(self, tmp_path, retired):
        """``bmc`` and ``k-induction`` are ``tiered`` now (``bmc`` at
        ``--induction-k 0``): naming either is a usage error before any
        run directory exists."""
        process = repro_cli("run", "fig12", "--formal-engine", retired,
                            "--artifacts", str(tmp_path), check=False)
        assert process.returncode == 2
        assert "invalid choice" in process.stderr
        assert not (tmp_path / "fig12").exists()

    def test_retired_flags_rejected(self, tmp_path):
        for flag in ("--mine-engine=columnar", "--ir-opt"):
            process = repro_cli("run", "fig12", flag, "--artifacts",
                                str(tmp_path), check=False)
            assert process.returncode == 2
            assert "unrecognized arguments" in process.stderr


    @pytest.mark.parametrize("flags,message", [
        (("--formal-workers", "0"), "formal_workers must be at least 1"),
        (("--induction-k", "-1"), "induction_k cannot be negative"),
        (("--formal-timeout", "0"), "formal_query_timeout must be positive"),
        (("--max-iterations", "0"), "max_iterations must be at least 1"),
    ])
    def test_invalid_engine_values_rejected_before_expansion(self, tmp_path,
                                                             flags, message):
        """An invalid engine value is a usage error (exit 2, the config's
        own message), not four failed jobs in a fresh run directory."""
        process = repro_cli("run", "sweep", "--designs", "arbiter2,b01",
                            "--seeds", "0,1", "--smoke", *flags,
                            "--artifacts", str(tmp_path), check=False)
        assert process.returncode == 2
        assert message in process.stderr
        assert "Traceback" not in process.stderr
        assert not (tmp_path / "sweep").exists()

    def test_engine_choices_come_from_the_engines(self):
        from repro.formal.checker import FormalVerifier

        help_text = repro_cli("run", "--help").stdout
        assert "{" + ",".join(FormalVerifier.ENGINES) + "}" in help_text


class TestResume:
    def test_resume_skips_completed_jobs(self, tmp_path):
        """Simulated mid-sweep kill: pre-seed the checkpoint with some of the
        jobs, then verify the CLI only runs the missing ones."""
        artifacts = tmp_path / "artifacts"
        repro_cli("run", "sweep", "--designs", "arbiter2,b01", "--smoke",
                  "--artifacts", str(artifacts), "--quiet")
        run_dir = artifacts / "sweep"
        lines = run_dir.joinpath("jobs.jsonl").read_text().splitlines()
        assert len(lines) == 2

        # Keep only the first job's record + a torn partial line — what a
        # kill -9 mid-append leaves behind — and drop the aggregate.
        run_dir.joinpath("jobs.jsonl").write_text(
            lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        run_dir.joinpath("result.json").unlink()

        process = repro_cli("run", "sweep", "--designs", "arbiter2,b01",
                            "--smoke", "--artifacts", str(artifacts))
        assert "resume: 1/2 jobs already complete" in process.stderr
        resumed = json.loads(run_dir.joinpath("result.json").read_text())
        resumed.pop("jobs")
        # compare against a fresh uninterrupted run
        repro_cli("run", "sweep", "--designs", "arbiter2,b01", "--smoke",
                  "--artifacts", str(tmp_path / "ref"), "--quiet")
        reference = json.loads(
            (tmp_path / "ref" / "sweep" / "result.json").read_text())
        reference.pop("jobs")
        assert resumed == reference


class TestReport:
    def test_report_renders_existing_run(self, tmp_path):
        repro_cli("run", "walkthrough", "--smoke", "--artifacts", str(tmp_path),
                  "--quiet")
        out = repro_cli("report", str(tmp_path / "walkthrough")).stdout
        assert "input_space_%" in out
        assert "SVA" in out

    def test_report_json_round_trips(self, tmp_path):
        repro_cli("run", "fig12", "--smoke", "--artifacts", str(tmp_path),
                  "--quiet")
        document = json.loads(
            repro_cli("report", str(tmp_path / "fig12"), "--json").stdout)
        assert document["experiment"] == "fig12"

    def test_report_renders_run_with_retired_options(self, tmp_path):
        """A run directory written while the miner and IR switches still
        existed keeps reporting.  Its jobs carried those switches in their
        params, so the job signature no longer matches and a resume is
        refused (``CheckpointError``) until ``--fresh``."""
        from repro.runner import RunOptions, get_experiment
        from repro.runner.checkpoint import jobs_signature

        repro_cli("run", "fig12", "--smoke", "--artifacts", str(tmp_path),
                  "--quiet")
        run_dir = tmp_path / "fig12"
        fresh = json.loads(repro_cli("report", str(run_dir), "--json").stdout)
        retired = {"mine_engine": "columnar", "ir_opt": True}
        manifest = json.loads((run_dir / "run.json").read_text())
        manifest["options"].update(retired)
        tasks = [job.task()
                 for job in get_experiment("fig12").expand(RunOptions(smoke=True))]
        manifest["jobs_signature"] = jobs_signature(
            (experiment, job_id, {**params, **retired})
            for experiment, job_id, params in tasks)
        (run_dir / "run.json").write_text(json.dumps(manifest))

        out = repro_cli("report", str(run_dir)).stdout
        assert "input_space_%" in out
        old = json.loads(repro_cli("report", str(run_dir), "--json").stdout)
        assert old == fresh
        process = repro_cli("run", "fig12", "--smoke", "--artifacts",
                            str(tmp_path), check=False)
        assert process.returncode == 2
        assert "--fresh" in process.stderr

    def test_report_renders_pre_config_run(self, tmp_path):
        """A run directory written before jobs carried one ``"config"``
        param (its params restated each engine knob) keeps reporting, and
        a resume is refused until ``--fresh``."""
        from repro.runner.checkpoint import jobs_signature

        repro_cli("run", "fig12", "--smoke", "--artifacts", str(tmp_path),
                  "--quiet")
        run_dir = tmp_path / "fig12"
        fresh = json.loads(repro_cli("report", str(run_dir), "--json").stdout)
        manifest = json.loads((run_dir / "run.json").read_text())
        manifest["options"] = {
            "engine": "scalar", "lanes": 64, "formal_engine": "explicit",
            "induction_k": 8, "formal_workers": 1, "formal_timeout": None,
            "proof_cache": False, "smoke": True, "designs": None,
            "seeds": [0], "seed_cycles": None, "max_iterations": None}
        old_params = {
            "window": 2, "max_iterations": 8, "sim_engine": "scalar",
            "sim_lanes": 64, "formal_engine": "explicit", "induction_k": 8,
            "formal_workers": 1, "formal_query_timeout": None,
            "proof_cache": False}
        manifest["jobs_signature"] = jobs_signature(
            [("fig12", "fig12/arbiter2", old_params)])
        (run_dir / "run.json").write_text(json.dumps(manifest))

        old = json.loads(repro_cli("report", str(run_dir), "--json").stdout)
        assert old == fresh
        process = repro_cli("run", "fig12", "--smoke", "--artifacts",
                            str(tmp_path), check=False)
        assert process.returncode == 2
        assert "--fresh" in process.stderr

    def test_report_renders_run_with_degraded_record(self, tmp_path):
        """A 1.17 run directory keeps reporting: its jobs carried the
        retired simulation-engine fields in their ``"config"`` param, and a
        memory-killed job's record carries the retired ``"degraded"``
        field.  A resume is refused until ``--fresh``."""
        from repro.runner import RunOptions, get_experiment
        from repro.runner.checkpoint import jobs_signature

        repro_cli("run", "fig12", "--smoke", "--artifacts", str(tmp_path),
                  "--quiet")
        run_dir = tmp_path / "fig12"
        fresh = json.loads(repro_cli("report", str(run_dir), "--json").stdout)
        retired = {"sim_engine": "batched", "sim_lanes": 64}
        manifest = json.loads((run_dir / "run.json").read_text())
        manifest["options"].update(engine="batched", lanes=64)
        manifest["options"]["config"].update(retired)
        tasks = [job.task()
                 for job in get_experiment("fig12").expand(RunOptions(smoke=True))]
        manifest["jobs_signature"] = jobs_signature(
            (experiment, job_id, {**params, "config": {**params["config"], **retired}})
            for experiment, job_id, params in tasks)
        (run_dir / "run.json").write_text(json.dumps(manifest))
        jobs_path = run_dir / "jobs.jsonl"
        (record,) = [json.loads(line) for line in jobs_path.read_text().splitlines()]
        record.update(attempts=2, degraded={"sim_lanes": 16},
                      faults=[{"fault": "memory", "attempt": 1}])
        jobs_path.write_text(json.dumps(record, sort_keys=True) + "\n")

        out = repro_cli("report", str(run_dir)).stdout
        assert "input_space_%" in out
        old = json.loads(repro_cli("report", str(run_dir), "--json").stdout)
        assert [job["attempts"] for job in old["jobs"]] == [2]
        for document in (old, fresh):
            for job in document["jobs"]:
                job.pop("attempts")
        assert old == fresh
        process = repro_cli("run", "fig12", "--smoke", "--artifacts",
                            str(tmp_path), check=False)
        assert process.returncode == 2
        assert "--fresh" in process.stderr

    def test_report_missing_dir_exits_2(self, tmp_path):
        process = repro_cli("report", str(tmp_path / "nope"), check=False)
        assert process.returncode == 2

    def test_report_json_missing_dir_exits_2_without_traceback(self, tmp_path):
        process = repro_cli("report", str(tmp_path / "nope"), "--json",
                            check=False)
        assert process.returncode == 2
        assert "Traceback" not in process.stderr
