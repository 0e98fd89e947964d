"""Checkpoint round-trip, crash tolerance, and manifest identity checks."""

from __future__ import annotations

import json

import pytest

from repro.runner.checkpoint import (
    CheckpointError,
    RunCheckpoint,
    find_run_dirs,
    jobs_signature,
)


def _manifest(**overrides) -> dict:
    manifest = {"experiment": "fig12", "options": {"engine": "scalar"},
                "jobs": ["fig12/arbiter2"], "jobs_signature": "sig-a"}
    manifest.update(overrides)
    return manifest


class TestManifest:
    def test_create_and_reload(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        written = checkpoint.ensure_manifest(_manifest())
        assert written["experiment"] == "fig12"
        assert checkpoint.load_manifest() == written

    def test_identical_manifest_resumes(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.ensure_manifest(_manifest())
        again = checkpoint.ensure_manifest(_manifest())
        assert again["experiment"] == "fig12"

    def test_mismatched_job_set_refused(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.ensure_manifest(_manifest())
        with pytest.raises(CheckpointError):
            checkpoint.ensure_manifest(_manifest(jobs_signature="sig-b"))

    def test_mismatched_experiment_refused(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.ensure_manifest(_manifest())
        with pytest.raises(CheckpointError):
            checkpoint.ensure_manifest(_manifest(experiment="fig13"))

    def test_option_change_that_keeps_job_set_resumes(self, tmp_path):
        """Flags an experiment ignores (recorded in options but not in any
        job params) must not block a resume."""
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.ensure_manifest(_manifest())
        checkpoint.ensure_manifest(_manifest(options={"seeds": [5]}))

    def test_corrupt_manifest_raises_checkpoint_error(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.run_dir.mkdir()
        checkpoint.manifest_path.write_text('{"experiment": "fig1')  # torn write
        with pytest.raises(CheckpointError, match="--fresh"):
            checkpoint.ensure_manifest(_manifest())

    def test_clear_allows_restart(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.ensure_manifest(_manifest())
        checkpoint.append({"job_id": "a", "status": "ok", "payload": {}})
        checkpoint.write_result({"experiment": "fig12"})
        checkpoint.clear()
        assert checkpoint.completed() == {}
        checkpoint.ensure_manifest(_manifest(experiment="fig13"))
        assert checkpoint.load_manifest()["experiment"] == "fig13"


class TestJobLog:
    def test_append_completed_round_trip(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        records = [
            {"job_id": "a", "status": "ok", "seconds": 0.5,
             "payload": {"series": {"x": [1.0, 2.0]}}},
            {"job_id": "b", "status": "failed", "error": "ValueError: nope"},
        ]
        for record in records:
            checkpoint.append(record)
        loaded = checkpoint.completed()
        assert loaded["a"]["payload"]["series"]["x"] == [1.0, 2.0]
        assert loaded["b"]["status"] == "failed"

    def test_partial_trailing_line_ignored(self, tmp_path):
        """A kill mid-append leaves a truncated last line; it must not
        poison the completed records written before it."""
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.append({"job_id": "a", "status": "ok", "payload": {}})
        with checkpoint.jobs_path.open("a") as handle:
            handle.write('{"job_id": "b", "status": "o')  # no newline, cut short
        loaded = checkpoint.completed()
        assert set(loaded) == {"a"}

    def test_garbage_lines_skipped(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.jobs_path.write_text("not json\n\n[1, 2]\n")
        checkpoint.append({"job_id": "a", "status": "ok", "payload": {}})
        assert set(checkpoint.completed()) == {"a"}

    def test_later_record_supersedes(self, tmp_path):
        """A retried job's fresh record replaces its earlier failure."""
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.append({"job_id": "a", "status": "failed", "error": "boom"})
        checkpoint.append({"job_id": "a", "status": "ok", "payload": {"n": 1}})
        assert checkpoint.completed()["a"]["status"] == "ok"

    def test_missing_log_is_empty(self, tmp_path):
        assert RunCheckpoint(tmp_path / "nowhere").completed() == {}

    def test_mid_file_corruption_counted_and_logged(self, tmp_path, caplog):
        """Damage in the *middle* of the log (bit rot, chaos injection)
        loses only the damaged records: they are counted, warned about
        once, and the affected jobs simply re-run."""
        import logging

        from repro.chaos import corrupt_jsonl_line

        checkpoint = RunCheckpoint(tmp_path)
        for job_id in ("a", "b", "c"):
            checkpoint.append({"job_id": job_id, "status": "ok", "payload": {}})
        corrupt_jsonl_line(checkpoint.jobs_path, 1)
        with caplog.at_level(logging.WARNING, logger="repro.runner.checkpoint"):
            loaded = checkpoint.completed()
        assert set(loaded) == {"a", "c"}  # "b" looks incomplete → re-runs
        assert checkpoint.corrupt_lines == 1
        assert any("corrupt checkpoint line" in record.message
                   for record in caplog.records)
        # Re-running the lost job and appending repairs the run in place.
        checkpoint.append({"job_id": "b", "status": "ok", "payload": {}})
        assert set(checkpoint.completed()) == {"a", "b", "c"}
        assert checkpoint.corrupt_lines == 1  # the damaged line is still there

    def test_undamaged_log_reports_zero_corrupt_lines(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.append({"job_id": "a", "status": "ok", "payload": {}})
        checkpoint.completed()
        assert checkpoint.corrupt_lines == 0


class TestResultAndDiscovery:
    def test_result_round_trip(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        document = {"experiment": "fig12", "series": {"input_space_%": [0.0, 100.0]}}
        checkpoint.write_result(document)
        assert checkpoint.load_result() == document
        # result.json is stable, sorted JSON (diffable artifacts)
        text = checkpoint.result_path.read_text()
        assert text == json.dumps(document, indent=2, sort_keys=True)

    def test_jobs_signature_order_independent(self):
        tasks = [("stub", "stub/1", {"n": 1}), ("stub", "stub/0", {"n": 0})]
        assert jobs_signature(tasks) == jobs_signature(list(reversed(tasks)))

    def test_jobs_signature_sensitive_to_params(self):
        base = [("stub", "stub/0", {"n": 0})]
        changed = [("stub", "stub/0", {"n": 1})]
        assert jobs_signature(base) != jobs_signature(changed)

    def test_find_run_dirs(self, tmp_path):
        for name in ("fig12", "fig13"):
            RunCheckpoint(tmp_path / name).ensure_manifest(_manifest(experiment=name))
        (tmp_path / "not-a-run").mkdir()
        found = [path.name for path in find_run_dirs(tmp_path)]
        assert found == ["fig12", "fig13"]


class TestDurableWrites:
    """The atomic writers must be the fsync-hardened durable_write path."""

    def test_manifest_write_leaves_no_tmp_file(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.ensure_manifest(_manifest())
        leftovers = [path.name for path in checkpoint.run_dir.iterdir()
                     if ".tmp" in path.name]
        assert leftovers == []

    def test_result_overwrite_is_complete_old_or_complete_new(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.write_result({"version": 1})
        checkpoint.write_result({"version": 2})
        assert checkpoint.load_result() == {"version": 2}
        leftovers = [path.name for path in tmp_path.iterdir()
                     if ".tmp" in path.name]
        assert leftovers == []

    def test_durable_write_replaces_and_fsyncs(self, tmp_path):
        from repro.supervise import durable_write

        target = tmp_path / "file.json"
        durable_write(target, "first")
        durable_write(target, "second")
        assert target.read_text() == "second"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_durable_write_leaves_no_tmp_file(self, tmp_path):
        """A write that raises (here: the target is a directory, so the
        rename fails) re-raises and removes its tmp file."""
        from repro.supervise import durable_write

        target = tmp_path / "manifest.json"
        target.mkdir()
        with pytest.raises(IsADirectoryError):
            durable_write(target, "{}")
        assert list(tmp_path.iterdir()) == [target]
