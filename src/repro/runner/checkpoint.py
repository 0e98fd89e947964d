"""Crash-tolerant JSON-lines checkpointing for experiment runs.

A run directory (``artifacts/<run-id>/``) holds:

* ``run.json`` — the manifest: experiment, options identity, job count.
  Written once when the run starts; a resume refuses a manifest whose
  options identity differs (mixed shards would corrupt the aggregate).
* ``jobs.jsonl`` — one JSON record per *completed* job, appended and
  flushed as each job finishes.  A crash mid-append leaves at most one
  partial trailing line, which the loader ignores; every fully-written
  record survives, so a re-run only executes the jobs that are missing.
* ``result.json`` — the aggregated experiment artifact, written after the
  last job (see :mod:`repro.runner.report`).

Job records look like::

    {"job_id": "fig13/arbiter2.gnt0", "experiment": "fig13",
     "status": "ok", "seconds": 1.93, "cycles": 118, "payload": {...}}

``payload`` is deterministic for fixed params; ``seconds`` is wall-clock
and excluded from any identity comparison.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Iterable, Mapping

from repro.supervise import durable_write


logger = logging.getLogger(__name__)


MANIFEST_NAME = "run.json"
JOBS_NAME = "jobs.jsonl"
RESULT_NAME = "result.json"

#: Manifest keys that must match for a resume to be allowed.  The job-set
#: signature is a digest of every (job_id, params) pair, so a flag that
#: does not change any job (e.g. ``--workers``, or ``--seeds`` on a
#: non-sweep experiment) never blocks a resume, while anything that would
#: change a payload always does.
IDENTITY_KEYS = ("experiment", "jobs_signature")


def jobs_signature(tasks) -> str:
    """Digest of an expanded job set (``JobSpec.task()`` tuples)."""
    import hashlib

    entries = sorted(({"experiment": experiment, "job_id": job_id,
                       "params": params}
                      for experiment, job_id, params in tasks),
                     key=lambda entry: entry["job_id"])
    canonical = json.dumps(entries, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


class CheckpointError(RuntimeError):
    """A run directory exists but is not compatible with this run."""


class RunCheckpoint:
    """Append-only completion log for one run directory."""

    def __init__(self, run_dir: str | Path):
        self.run_dir = Path(run_dir)
        self.manifest_path = self.run_dir / MANIFEST_NAME
        self.jobs_path = self.run_dir / JOBS_NAME
        self.result_path = self.run_dir / RESULT_NAME
        #: Undecodable/shape-broken ``jobs.jsonl`` lines skipped by the
        #: most recent :meth:`completed` call.  Affected jobs simply look
        #: incomplete, so the runner re-executes them.
        self.corrupt_lines = 0

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    def ensure_manifest(self, manifest: Mapping) -> dict:
        """Create the run directory and manifest, or validate the existing one.

        Returns the manifest in effect.  Raises :class:`CheckpointError`
        when a previous manifest has a different identity (a different
        experiment or job set, see :data:`IDENTITY_KEYS`) or is unreadable
        — the caller should pick a new run id or pass ``--fresh``.
        """
        self.run_dir.mkdir(parents=True, exist_ok=True)
        manifest = dict(manifest)
        if self.manifest_path.exists():
            try:
                existing = json.loads(self.manifest_path.read_text())
            except json.JSONDecodeError as exc:
                raise CheckpointError(
                    f"run manifest {self.manifest_path} is unreadable "
                    f"({exc}); re-run with --fresh or a different --run-id "
                    f"to start over") from exc
            for key in IDENTITY_KEYS:
                if existing.get(key) != manifest.get(key):
                    raise CheckpointError(
                        f"run directory {self.run_dir} was created for "
                        f"{existing.get('experiment')} with a different job "
                        f"set (options {existing.get('options')}); re-run "
                        f"with --fresh or a different --run-id to start over")
            return existing
        durable_write(self.manifest_path,
                      json.dumps(manifest, indent=2, sort_keys=True))
        return manifest

    def load_manifest(self) -> dict:
        return json.loads(self.manifest_path.read_text())

    def clear(self) -> None:
        """Drop all completion state (``--fresh``): manifest, jobs, result."""
        for path in (self.manifest_path, self.jobs_path, self.result_path):
            if path.exists():
                path.unlink()

    # ------------------------------------------------------------------
    # job records
    # ------------------------------------------------------------------
    def completed(self) -> dict[str, dict]:
        """Load completed job records, keyed by job id.

        Tolerates corrupt lines *anywhere* in the file — the partial
        trailing line a kill mid-append leaves, but also mid-file damage
        (disk corruption, concurrent writers, chaos injection): every
        undecodable or shape-broken line is skipped and counted in
        :attr:`corrupt_lines`, with one warning per load.  A skipped job
        has no record, so the runner re-executes it.  Later records win,
        so a job re-run after a failure supersedes its failed record.
        """
        records: dict[str, dict] = {}
        self.corrupt_lines = 0
        if not self.jobs_path.exists():
            return records
        skipped = 0
        with self.jobs_path.open("r", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    skipped += 1
                    continue
                if isinstance(record, dict) and "job_id" in record:
                    records[record["job_id"]] = record
                else:
                    skipped += 1
        self.corrupt_lines = skipped
        if skipped:
            logger.warning(
                "%s: skipped %d corrupt checkpoint line(s); the affected "
                "jobs will re-run", self.jobs_path, skipped)
        return records

    def append(self, record: Mapping) -> None:
        """Durably append one completed-job record (flush + fsync)."""
        with self.jobs_path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    # aggregate artifact
    # ------------------------------------------------------------------
    def write_result(self, result: Mapping) -> None:
        durable_write(self.result_path,
                      json.dumps(result, indent=2, sort_keys=True))

    def load_result(self) -> dict:
        return json.loads(self.result_path.read_text())


def find_run_dirs(artifacts_dir: str | Path) -> list[Path]:
    """Run directories under ``artifacts_dir`` (those holding a manifest)."""
    root = Path(artifacts_dir)
    if not root.is_dir():
        return []
    return sorted(path.parent for path in root.glob(f"*/{MANIFEST_NAME}"))
