"""One supervised worker substrate for every process pool in ``repro``.

Both fan-outs of the reproduction run here: the formal layer's candidate
checks (:class:`repro.formal.parallel.FormalWorkerPool`) and the
runner's (design × seed) jobs (:class:`repro.runner.pool.SupervisedJobPool`).
:class:`SupervisedPool` owns everything about keeping worker processes
honest; each layer supplies only

* a **request handler** — the process target, which ends in
  :func:`serve` with the function that answers one request;
* a **routing rule** — which slot a request goes to: content-hash shard
  affinity for formal (:func:`repro.formal.proofcache.assertion_shard`),
  any idle slot for the runner;
* a **policy** (:class:`Policy`) — per-request deadline, retry budget,
  backoff and RSS budget — plus what to do once a retry budget is spent
  (in-process fallback for formal, quarantine for the runner).

The substrate's pieces, one copy each:

* **Worker loop** (:func:`serve`): requests are read with a timed poll,
  so an orphaned worker notices its parent's death within
  :data:`PARENT_POLL_SECONDS` and exits — the last line of defence when
  the parent skipped every cleanup path (SIGKILL, ``os._exit``).  A
  chaos fault shipped with a request is suffered *instead of* answering.
* **Spawn/respawn** on fresh queues: the old response queue may hold a
  partial message from the dead worker, and fresh queues guarantee a
  replacement's answers never interleave with stale ones.
* **Supervision** (:meth:`SupervisedPool.poll`): an answer; a dead
  worker (after draining for :data:`DRAIN_SECONDS`, since a worker may
  answer and die before the parent looks); a worker past its request's
  deadline or more than the RSS budget past its post-spawn baseline
  (growth, not absolute RSS: forked children inherit the parent's
  resident pages) — both killed with
  :func:`repro.supervise.stop_process`.
* **Retry arithmetic**: a :class:`repro.supervise.RestartBudget` keyed
  by whatever the layer retries (slot or job index).
* **Close** (cooperative stop → join → terminate → kill) and a
  ``weakref.finalize`` reaper that sweeps the live processes if a pool
  is dropped without ``close()``.

Every supervision event — respawn, deadline kill, memory kill, spent
retry budget (a formal fallback shard or a runner quarantine) — is one
WARNING on this module's logger.  Determinism: supervision decides only
*where* a request runs, never what it computes, so recovered runs are
identical to fault-free ones.  Workers use the ``fork`` start method
where available, so they inherit the parent's elaborated designs,
runtime-registered experiments and hash seed.
"""

from __future__ import annotations

import logging
import os
import queue
import time
import weakref
from dataclasses import dataclass

from repro import chaos, supervise

logger = logging.getLogger(__name__)

#: How long an idle worker waits for a request before checking that its
#: parent is still alive (the self-exit-on-orphan poll).
PARENT_POLL_SECONDS = 0.5
#: Cadence of :meth:`SupervisedPool.wait` liveness/deadline/RSS checks.
POLL_SECONDS = 0.05
#: Drain window for the answer-then-die race: a worker that wrote its
#: answer and died before the parent noticed.
DRAIN_SECONDS = 0.2
#: Grace a cooperatively stopped worker gets before escalation.
_CLOSE_GRACE_SECONDS = 2.0

#: Event kinds :meth:`SupervisedPool.poll` reports; the fault kinds are
#: also the ``fault`` values of runner records.
ANSWER = "answer"
CRASH = "crash"
DEADLINE = "deadline"
MEMORY = "memory"


@dataclass(frozen=True)
class Policy:
    """How a layer wants its workers supervised.

    ``deadline`` is the per-request wall-clock budget in seconds
    (``None``: unbounded); ``retry_budget``/``backoff`` size the
    :class:`repro.supervise.RestartBudget`; ``memory_budget_mb`` bounds
    a worker's RSS growth over its post-spawn baseline (``None``: no
    watchdog).  A chaos plan may override any field
    (:meth:`repro.chaos.ChaosPlan.apply`).
    """

    deadline: float | None = None
    retry_budget: int = supervise.DEFAULT_MAX_RESTARTS
    backoff: float = supervise.DEFAULT_BACKOFF_SECONDS
    memory_budget_mb: float | None = None


def serve(handle, requests, responses) -> None:
    """The worker loop: answer ``(request, fault)`` messages until stopped.

    ``handle(request)`` returns the answer put on ``responses``; a
    ``None`` message stops the loop.
    """
    import multiprocessing

    parent = multiprocessing.parent_process()
    while True:
        try:
            message = requests.get(timeout=PARENT_POLL_SECONDS)
        except queue.Empty:
            if parent is not None and not parent.is_alive():
                os._exit(0)  # orphaned: no request can ever arrive
            continue
        except (EOFError, OSError):  # pragma: no cover - queues torn down
            os._exit(0)
        if message is None:
            return
        request, fault = message
        if fault is not None:
            chaos.suffer(fault)  # dies or wedges; does not return
        responses.put(handle(request))


@dataclass
class _Slot:
    """One worker incarnation: process, queue pair, in-flight deadline."""

    process: object
    requests: object
    responses: object
    baseline_rss: int | None
    #: Slot-keyed chaos fault, shipped once ``fault.fires(sent)``.
    fault: object = None
    sent: int = 0
    timeout: float | None = None
    deadline: float | None = None


class SupervisedPool:
    """``slots`` supervised workers running ``target(*args, requests, responses)``.

    Workers are named ``<name>-<slot>``.  The counters ``restarts``,
    ``deadline_kills`` and ``memory_kills`` total this pool's recovery
    actions.
    """

    def __init__(self, name: str, target, args: tuple = (), *, slots: int,
                 policy: Policy = Policy()):
        import multiprocessing

        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - Windows
            self._context = multiprocessing.get_context()
        self.name = name
        self.policy = policy
        self.budget = supervise.RestartBudget(policy.retry_budget,
                                              policy.backoff)
        self.restarts = 0
        self.deadline_kills = 0
        self.memory_kills = 0
        self._target = target
        self._args = tuple(args)
        self.slots: list[_Slot | None] = [None] * slots
        #: Stable list the finalizer sweeps; it holds this list, never
        #: the pool (a finalizer holding its referent would leak it).
        self._live: list = []
        self._finalizer = weakref.finalize(self, _reap, self._live)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def start(self, plan: chaos.ChaosPlan | None = None) -> None:
        """Spawn every slot not yet running.

        ``plan`` is a slot-keyed chaos plan: each slot's first
        incarnation is armed with its scheduled fault.
        """
        for index, slot in enumerate(self.slots):
            if slot is None:
                self._spawn(index, plan.take_fault(index) if plan else None)

    def _spawn(self, index: int, fault=None) -> None:
        requests = self._context.Queue()
        responses = self._context.Queue()
        process = self._context.Process(
            target=self._target, args=(*self._args, requests, responses),
            name=f"{self.name}-{index}", daemon=True)
        process.start()
        self._live.append(process)
        # None → no budget, or no RSS probe on this platform: the
        # watchdog is off for this slot.
        baseline = (supervise.process_rss_bytes(process.pid)
                    if self.policy.memory_budget_mb is not None else None)
        self.slots[index] = _Slot(process, requests, responses, baseline,
                                  fault)

    def respawn(self, index: int) -> None:
        """Replace slot ``index``'s dead or killed worker on fresh queues."""
        old = self.slots[index]
        self._discard(old)
        self.restarts += 1
        logger.warning("%s-%d: worker gone (exit code %s); respawning",
                       self.name, index, old.process.exitcode)
        self._spawn(index)

    def _discard(self, slot: _Slot) -> None:
        if slot.process in self._live:
            self._live.remove(slot.process)
        _discard_queue(slot.requests)
        _discard_queue(slot.responses)

    def alive(self, index: int) -> bool:
        return self.slots[index].process.is_alive()

    def close(self) -> None:
        """Stop every worker: cooperative stop → join → terminate → kill."""
        slots = [slot for slot in self.slots if slot is not None]
        self.slots = [None] * len(self.slots)
        for slot in slots:
            try:
                if slot.process.is_alive():
                    slot.requests.put(None)
            except (ValueError, OSError):  # pragma: no cover - torn down
                pass
        for slot in slots:
            slot.process.join(_CLOSE_GRACE_SECONDS)
            supervise.stop_process(slot.process)
            self._discard(slot)

    # ------------------------------------------------------------------
    # requests and supervision
    # ------------------------------------------------------------------
    def submit(self, index: int, request, deadline: float | None = None,
               fault=None) -> None:
        """Send ``request`` to slot ``index``, due within ``deadline`` seconds.

        ``fault`` (test-only) is suffered instead of answering; without
        one, the slot's armed fault ships once it fires.
        """
        slot = self.slots[index]
        slot.sent += 1
        if fault is None and slot.fault is not None and slot.fault.fires(slot.sent):
            fault, slot.fault = slot.fault, None
        slot.timeout = deadline
        slot.deadline = None if deadline is None else time.monotonic() + deadline
        try:
            slot.requests.put((request, fault))
        except (ValueError, OSError):  # pragma: no cover - queue closed
            pass  # poll() finds the worker dead and reports it

    def poll(self, index: int, timeout: float = 0.0):
        """One supervision check of slot ``index``'s in-flight request.

        Returns ``(ANSWER, answer)``, or ``(CRASH | DEADLINE | MEMORY,
        detail)`` once the worker is dead or has been killed — the
        caller then decides between :meth:`respawn` and degrading — or
        ``None`` while the request is still running.
        """
        slot = self.slots[index]
        answer = _receive(slot.responses, timeout)
        if answer is not None:
            return ANSWER, answer
        if not slot.process.is_alive():
            answer = _receive(slot.responses, DRAIN_SECONDS)
            if answer is not None:
                return ANSWER, answer
            return CRASH, {"exitcode": slot.process.exitcode}
        if slot.deadline is not None and time.monotonic() >= slot.deadline:
            logger.warning("%s-%d: no answer within %gs; killing it",
                           self.name, index, slot.timeout)
            supervise.stop_process(slot.process)
            self.deadline_kills += 1
            return DEADLINE, {"timeout_seconds": slot.timeout}
        budget = self.policy.memory_budget_mb
        if budget is not None and slot.baseline_rss is not None:
            rss = supervise.process_rss_bytes(slot.process.pid)
            if rss is not None and rss - slot.baseline_rss > budget * (1 << 20):
                logger.warning("%s-%d: resident set grew %.0f MiB past its "
                               "baseline (budget %g MiB); killing it",
                               self.name, index,
                               (rss - slot.baseline_rss) / (1 << 20), budget)
                supervise.stop_process(slot.process)
                self.memory_kills += 1
                return MEMORY, {"rss_bytes": rss,
                                "baseline_bytes": slot.baseline_rss}
        return None

    def wait(self, index: int):
        """Block until slot ``index``'s in-flight request ends; its event."""
        while True:
            event = self.poll(index, POLL_SECONDS)
            if event is not None:
                return event

    def retry_delay(self, key: int, degrade: str) -> float | None:
        """Charge one retry to ``key``: the backoff to wait, or ``None``.

        ``None`` means ``key``'s retry budget is spent and the caller
        degrades — ``degrade`` says how, for the log.
        """
        delay = self.budget.next_delay(key)
        if delay is None:
            logger.warning("%s: retry budget of %d spent; %s", self.name,
                           self.budget.max_restarts, degrade)
        return delay


def _receive(responses, timeout: float):
    """The next answer on ``responses`` within ``timeout`` s, or ``None``."""
    try:
        if timeout <= 0:
            return responses.get_nowait()
        return responses.get(timeout=timeout)
    except (queue.Empty, EOFError, OSError):
        return None


def _discard_queue(channel) -> None:
    """Close a queue without joining its feeder thread (its peer is gone)."""
    try:
        channel.cancel_join_thread()
        channel.close()
    except Exception:  # noqa: BLE001 - best-effort cleanup
        pass


def _reap(processes: list) -> None:
    """Finalizer: stop every process still alive in ``processes``.

    Runs when the pool is collected *or* at interpreter exit
    (``weakref.finalize``'s atexit guarantee).  Never raises.
    """
    for process in list(processes):
        try:
            supervise.stop_process(process, grace=0.5)
        except Exception:  # noqa: BLE001 - exit-path cleanup must not raise
            pass
    del processes[:]
