"""Process-supervision and durability primitives shared by every layer.

The supervised worker substrate (:mod:`repro.workers`) is built from
these; they are deliberately free of any pool/engine/runner imports.

* :class:`RestartBudget` — a bounded, exponentially backed-off retry
  allowance per key (a worker slot for the formal pool, a job index for
  the runner).  A supervisor consults it before retrying a dead or
  wedged worker's request; once a key's budget is exhausted the
  supervisor stops retrying and degrades gracefully (in-process
  fallback for the formal pool, quarantine for the job runner) instead
  of failing the whole batch.
* :func:`stop_process` — terminate→kill escalation for one process, the
  only sanctioned way a supervisor ends a worker that will not exit on
  its own (wedged in a query, ignoring SIGTERM, ...).
* :func:`process_rss_bytes` — resident-set size of a live process, the
  probe behind the memory watchdog.  Returns ``None`` where the probe is
  unsupported (no procfs), so governance degrades to disabled instead
  of crashing.
* :func:`durable_write` / :func:`fsync_directory` — crash-safe file
  replacement: tmp write + file fsync + atomic rename + directory-entry
  fsync, so a power loss can never leave a truncated *or missing*
  manifest/result/cache file behind an ``os.replace``.

Determinism note: supervision decides only *where* work runs (original
worker, respawned worker, or a degraded retry), never *what* it
computes.  Every payload in this repository is a pure function of its
parameters, so a recovered run is field-for-field identical to a
fault-free one.
"""

from __future__ import annotations

import os
from pathlib import Path


#: Default restart allowance per supervised slot before degrading.
DEFAULT_MAX_RESTARTS = 2
#: Base backoff before the first restart; doubles per restart of a slot.
DEFAULT_BACKOFF_SECONDS = 0.1
#: Backoff is capped so a slot nearing budget exhaustion cannot stall a
#: batch for longer than a couple of seconds.
BACKOFF_CAP_SECONDS = 2.0


class RestartBudget:
    """Bounded restart allowance with exponential backoff, per slot or key.

    ``next_delay(slot)`` either charges one restart to the slot and
    returns the delay to sleep before respawning (``backoff * 2**used``,
    capped), or returns ``None`` when the slot's budget is exhausted —
    the caller's signal to stop supervising and degrade gracefully.
    """

    def __init__(self, max_restarts: int = DEFAULT_MAX_RESTARTS,
                 backoff: float = DEFAULT_BACKOFF_SECONDS,
                 cap: float = BACKOFF_CAP_SECONDS):
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        self.max_restarts = max_restarts
        self.backoff = backoff
        self.cap = cap
        self._used: dict[int, int] = {}

    def next_delay(self, slot: int) -> float | None:
        used = self._used.get(slot, 0)
        if used >= self.max_restarts:
            return None
        self._used[slot] = used + 1
        return min(self.cap, self.backoff * (2 ** used))

    def used(self, slot: int) -> int:
        return self._used.get(slot, 0)

    def exhausted(self, slot: int) -> bool:
        return self._used.get(slot, 0) >= self.max_restarts

    def total_used(self) -> int:
        return sum(self._used.values())


def stop_process(process, grace: float = 1.0) -> int | None:
    """Stop ``process`` with terminate→kill escalation; returns exitcode.

    SIGTERM first and a ``grace`` period to die; a survivor (wedged in
    uninterruptible work, or ignoring SIGTERM outright) is SIGKILLed.
    Safe on already-dead processes.
    """
    try:
        if process.is_alive():
            process.terminate()
            process.join(grace)
        if process.is_alive():
            kill = getattr(process, "kill", process.terminate)
            kill()
            process.join(grace)
    except (ValueError, OSError):  # pragma: no cover - already closed
        pass
    return process.exitcode


# ----------------------------------------------------------------------
# memory governance
# ----------------------------------------------------------------------
def process_rss_bytes(pid: int) -> int | None:
    """Resident-set size of process ``pid`` in bytes, or ``None``.

    Reads ``/proc/<pid>/statm`` (field 2 is resident pages), so the
    probe costs one small file read — cheap enough to run on every
    supervision poll.  Returns ``None`` when the process is gone or the
    platform has no procfs; a memory watchdog built on this must treat
    ``None`` as "probe unavailable", never as "zero bytes".
    """
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return None


# ----------------------------------------------------------------------
# durable file replacement
# ----------------------------------------------------------------------
def fsync_directory(directory: str | os.PathLike) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    ``os.replace`` makes the *content* swap atomic, but the new directory
    entry itself lives in the directory's data blocks — without this
    fsync a crash can roll the rename back, leaving the *old* file (or
    on a fresh create, no file at all).  Best-effort: platforms that
    cannot open or fsync directories simply skip the barrier.
    """
    try:
        fd = os.open(os.fspath(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform without dir-fsync
        pass
    finally:
        os.close(fd)


def durable_write(path: str | os.PathLike, text: str) -> None:
    """Crash-safe whole-file replacement: the reader sees old or new, never less.

    Write to a pid-suffixed tmp in the same directory, flush + fsync the
    tmp (so the *data* is on disk before the rename makes it visible),
    atomically rename over the target, then fsync the directory entry.
    A kill, crash or power loss at any point leaves either the complete
    old file or the complete new file — never a truncated or empty one;
    a write that raises removes its tmp file and re-raises.
    """
    target = Path(path)
    tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        # Never leave the tmp beside the target (a full disk, a target
        # that is a directory, an interrupt mid-write).
        tmp.unlink(missing_ok=True)
        raise
    fsync_directory(target.parent)
