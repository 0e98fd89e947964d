"""Deterministic chaos injection for the supervised worker pools.

The supervision layer's whole value is what happens on the bad day — a
worker SIGKILLed mid-batch, a worker wedged in a query, a worker
ballooning its memory, a proof-cache file truncated by a crashed writer,
a checkpoint line garbled on disk.  This module makes those bad days
*reproducible* for both users of :mod:`repro.workers`: a
:class:`ChaosPlan` is a seeded, pinned schedule of :class:`WorkerFault`
faults threaded into a pool behind a test-only hook, plus
file-corruption helpers for the cache/checkpoint satellites.

Plans are keyed by an integer the consuming layer defines:

* :class:`repro.formal.parallel.FormalWorkerPool` keys by **worker
  slot**; the fault is armed when the slot first spawns and fires after
  the worker has been sent ``after_messages`` requests.
* :func:`repro.runner.pool.execute_jobs` keys by **job index** (the
  position of a job in the run's pending list); the fault travels with
  the job's first attempt.

Fault kinds:

* ``kill`` — the worker sends itself a real SIGKILL instead of
  answering: a dead child with a negative exitcode and an unanswered
  request, exactly what an OOM killer or ``kill -9`` leaves behind.
* ``wedge`` — the worker ignores SIGTERM and spins silently, which is
  what a solver stuck in an endless query looks like from the parent;
  only the deadline's terminate→kill escalation brings it down.
* ``oom`` — the worker balloons its resident set by ``balloon_mb`` and
  then spins, driving it over a configured memory budget so the RSS
  watchdog's kill path fires deterministically.

Design rules:

* **Deterministic.**  A plan is written out fault-by-fault (the pinned
  schedules CI runs) or derived from a seed via :meth:`ChaosPlan.seeded`;
  nothing samples wall clock or global RNG state.
* **Once-only.**  Faults are *popped* from the plan when they are handed
  to a worker, so the supervised retry always runs clean — the
  recover-from-a-transient-fault scenario supervision exists for.  A
  plan also carries supervision overrides (short backoff; a 1 s deadline
  whenever a wedge is scheduled) so chaos tests run in test time.
* **Invisible when uninstalled.**  Pools consult :func:`active_plan`
  once per start; with no plan installed (the default, and always in
  production) the hook is a single module lookup.

The invariant every schedule must preserve — and the chaos batteries
assert — is that the recovered run's deterministic artifact is
byte-identical to the fault-free run's, and no orphan worker processes
survive.
"""

from __future__ import annotations

import dataclasses
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Fault kinds a worker can be scheduled to suffer.
FAULT_KILL = "kill"
FAULT_WEDGE = "wedge"
FAULT_OOM = "oom"

_KINDS = (FAULT_KILL, FAULT_WEDGE, FAULT_OOM)

#: Default resident-set balloon of an ``oom`` fault, comfortably above
#: the memory budgets the chaos batteries configure (tens of MB).
DEFAULT_BALLOON_MB = 192

#: Deadline a plan arms when it schedules a wedge and names none.
WEDGE_DEADLINE_SECONDS = 1.0
#: A wedged worker exits on its own after this long, so a run that
#: armed no deadline recovers instead of hanging.
_WEDGE_MAX_SECONDS = 60.0


@dataclass(frozen=True)
class WorkerFault:
    """One scheduled fault: serve ``after_messages`` requests, then suffer it."""

    kind: str
    after_messages: int = 0
    balloon_mb: int = DEFAULT_BALLOON_MB

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind '{self.kind}'")
        if self.after_messages < 0:
            raise ValueError("after_messages must be >= 0")
        if self.balloon_mb < 1:
            raise ValueError("balloon_mb must be >= 1")

    def fires(self, sent_messages: int) -> bool:
        """True when the ``sent_messages``-th request triggers the fault."""
        return sent_messages > self.after_messages


@dataclass
class ChaosPlan:
    """A pinned schedule of worker faults plus supervision overrides.

    ``faults`` maps the consuming layer's key (slot or job index) →
    fault; each entry is consumed once (see :meth:`take_fault`).  Each
    override replaces the matching :class:`repro.workers.Policy` field;
    ``None`` keeps the pool's own setting.
    """

    faults: dict[int, WorkerFault] = field(default_factory=dict)
    deadline: float | None = None
    retry_budget: int | None = None
    backoff: float | None = 0.01
    memory_budget_mb: float | None = None

    def __post_init__(self) -> None:
        if self.deadline is None and any(
                fault.kind == FAULT_WEDGE for fault in self.faults.values()):
            # A wedged worker only comes down via a deadline.
            self.deadline = WEDGE_DEADLINE_SECONDS

    @classmethod
    def seeded(cls, seed: int, keys: int, faults: int = 1,
               kinds: tuple[str, ...] = (FAULT_KILL, FAULT_WEDGE),
               max_after: int = 0) -> "ChaosPlan":
        """Derive a reproducible plan from ``seed`` over keys ``0..keys-1``.

        Picks ``faults`` distinct keys and gives each a fault of a seeded
        kind, firing at a seeded message index in ``[0, max_after]``.
        Same seed, same plan — always.  ``oom`` is not in the default
        kind set because it only fires observably under a memory budget.
        """
        rng = random.Random(seed)
        chosen = rng.sample(range(keys), max(0, min(faults, keys)))
        return cls(faults={
            key: WorkerFault(kind=rng.choice(list(kinds)),
                             after_messages=(rng.randint(0, max_after)
                                             if max_after else 0))
            for key in sorted(chosen)})

    # ------------------------------------------------------------------
    def take_fault(self, key: int) -> WorkerFault | None:
        """Pop the fault scheduled for ``key`` (once-only)."""
        return self.faults.pop(key, None)

    def apply(self, policy):
        """``policy`` with this plan's non-``None`` overrides applied."""
        overrides = {name: getattr(self, name)
                     for name in ("deadline", "retry_budget", "backoff",
                                  "memory_budget_mb")
                     if getattr(self, name) is not None}
        return dataclasses.replace(policy, **overrides)

    @property
    def exhausted(self) -> bool:
        """True once every scheduled fault has been handed to a worker."""
        return not self.faults


# ----------------------------------------------------------------------
# the test-only installation hook the pools consult
# ----------------------------------------------------------------------
_active_plan: ChaosPlan | None = None


def install(plan: ChaosPlan) -> None:
    """Arm ``plan`` for the next pool start in this process (test-only)."""
    global _active_plan
    _active_plan = plan


def uninstall() -> None:
    global _active_plan
    _active_plan = None


def active_plan() -> ChaosPlan | None:
    return _active_plan


@contextmanager
def injected(plan: ChaosPlan):
    """``with chaos.injected(plan):`` — install for the block, always clean up."""
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


# ----------------------------------------------------------------------
# worker-side fault execution (runs inside worker processes)
# ----------------------------------------------------------------------
def suffer(fault: WorkerFault) -> None:  # pragma: no cover - dies/spins
    """Execute ``fault`` inside a worker process.  Does not return.

    A wedge (or a ballooned ``oom`` worker) ignores SIGTERM — forcing the
    supervisor's kill() escalation — and spins until its parent is gone
    (it is re-parented) or :data:`_WEDGE_MAX_SECONDS` pass, so a wedged
    worker can never outlive the test that injected it.
    """
    import signal
    import time

    if fault.kind == FAULT_KILL:
        os.kill(os.getpid(), signal.SIGKILL)
    if fault.kind == FAULT_OOM:
        # Unique written pages: an untouched or repeating buffer can be
        # elided by lazy mapping or same-page merging.
        hog = [os.urandom(1 << 20) for _ in range(fault.balloon_mb)]
        assert hog  # keep the allocation referenced while spinning
    try:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    parent = os.getppid()
    deadline = time.monotonic() + _WEDGE_MAX_SECONDS
    while os.getppid() == parent and time.monotonic() < deadline:
        time.sleep(0.05)
    os._exit(1)


# ----------------------------------------------------------------------
# file-corruption helpers (proof cache / checkpoint satellites)
# ----------------------------------------------------------------------
def truncate_file(path: str | os.PathLike, keep_ratio: float = 0.5) -> None:
    """Chop a file mid-byte, like a crashed writer or a full disk."""
    target = Path(path)
    data = target.read_bytes()
    target.write_bytes(data[: int(len(data) * keep_ratio)])


def garble_file(path: str | os.PathLike, seed: int = 0,
                flips: int = 32) -> None:
    """Deterministically flip bytes across a file (bit-rot stand-in)."""
    target = Path(path)
    data = bytearray(target.read_bytes())
    if not data:
        return
    rng = random.Random(seed)
    for _ in range(flips):
        position = rng.randrange(len(data))
        data[position] ^= 0xFF
    target.write_bytes(bytes(data))


def corrupt_jsonl_line(path: str | os.PathLike, line_index: int,
                       replacement: str = '{"job_id": broke') -> int:
    """Replace one line of a JSONL file with undecodable text.

    Returns the number of lines the file holds; ``line_index`` is clamped
    into range so schedules stay valid as logs grow.
    """
    target = Path(path)
    lines = target.read_text(encoding="utf-8").splitlines()
    if not lines:
        return 0
    index = max(0, min(line_index, len(lines) - 1))
    lines[index] = replacement
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)
