"""Process-parallel formal verification service with worker supervision.

The refinement loop's candidate checks are embarrassingly parallel — the
paper's Section 3 loop verifies every candidate of an iteration
independently — yet until this module existed they ran one at a time in
one process on one solver context.  :class:`FormalWorkerPool` hosts a set
of **persistent** verification worker processes:

* Each worker builds its engine once at startup and keeps it alive for
  the pool's whole lifetime.  For the incremental SAT engine that means
  one long-lived :class:`~repro.boolean.incremental.IncrementalSolver`
  context per (slice, from_reset) *per worker* — encodings, learned
  clauses and heuristic state stay warm across every batch the worker
  ever sees, exactly like the serial engine's context does.
* Candidates of one batch are sharded across workers by a deterministic
  content hash of their canonical form
  (:func:`repro.formal.proofcache.assertion_shard`).  The same candidate
  therefore always lands on the same worker — across iterations, runs and
  processes — so re-checks of related candidates hit warm encodings.
* Results are merged back in submission order.  Because every engine
  produces canonical, history-independent results (verdict by SAT
  semantics, counterexamples canonicalised — see
  :mod:`repro.formal.bmc`), the merged batch is identical to what the
  serial engine would have produced, for any worker count.  The whole
  :class:`~repro.formal.result.CheckResult` crosses the protocol —
  including the ``proof_strength`` field the k-induction/tiered engines
  set — so proof strength survives sharding byte-for-byte.

The pool prefers the ``fork`` start method (mirroring
:mod:`repro.runner.pool`): workers inherit the already-elaborated module
and the parent's hash seed, so no pickling of the design is needed and
set/dict iteration orders match the parent exactly.  Under ``spawn`` the
module is pickled to the workers instead; results are still canonical.

**Supervision** (the fault-tolerance layer, built from
:mod:`repro.supervise`): a worker that dies mid-batch — crash,
OOM-kill, external SIGKILL — or wedges (no answer within the shard's
deadline; killed with terminate→kill escalation) is respawned and its
*unanswered shard deterministically requeued* to the replacement.
Because sharding is content-hashed and every engine is canonical, the
recovered batch is field-for-field identical to a fault-free run — the
fault changes *where* queries execute, never what they compute.  Each
worker slot has a bounded restart budget with exponential backoff; once
exhausted, the pool degrades gracefully to checking that shard on an
in-process fallback engine instead of raising.  Only *deterministic*
failures — the engine itself raising, or failing to build — still
propagate as :class:`~repro.formal.result.FormalEngineError`: respawning
cannot fix those, and masking them would hide real bugs.

Orphan hygiene: workers are daemons, a ``weakref.finalize`` on the
pool's live-process list sweeps them at collection or interpreter exit,
and each worker polls its parent between requests and self-exits when
the parent is gone — so Ctrl-C, ``os._exit`` or a SIGKILLed parent never
strands children.

The deterministic chaos harness (:mod:`repro.formal.chaos`) threads
scheduled faults into worker startup behind a test-only hook
(:func:`repro.formal.chaos.active_plan`); with no plan installed the
hook is a single module lookup per pool start.
"""

from __future__ import annotations

import queue as queue_module
import time
import traceback
import weakref
from typing import Mapping, Sequence

from repro import supervise
from repro.assertions.assertion import Assertion
from repro.formal import chaos
from repro.formal.result import CheckResult, FormalEngineError
from repro.formal.proofcache import assertion_shard
from repro.hdl.module import Module

#: Poll interval while waiting on a worker's response queue; each poll
#: re-checks process liveness so a crashed worker fails fast.
_POLL_SECONDS = 0.2
#: How long an idle worker waits for a request before re-checking that
#: its parent is still alive (the self-exit-on-orphan poll).
_PARENT_POLL_SECONDS = 1.0
#: Ceiling on a best-effort stats round trip (a wedged worker must not
#: hang ``close()``'s final telemetry read).
_STATS_TIMEOUT_SECONDS = 5.0
#: Extra slack on top of ``len(shard) * query_timeout`` when the wedge
#: deadline is derived from the per-query budget.
_WEDGE_SLACK_SECONDS = 30.0


def _multiprocessing_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - Windows
        return multiprocessing.get_context()


def _worker_main(module: Module, engine_name: str, engine_kwargs: dict,
                 requests, responses, fault=None) -> None:
    """Body of one verification worker: build the engine, serve requests.

    ``fault`` is a chaos-injected :class:`repro.formal.chaos.WorkerFault`
    (test-only; ``None`` in production): after serving its scheduled
    number of messages the worker dies or wedges instead of answering.

    The request wait is a timed poll so an orphaned worker notices its
    parent's death within ~1s and exits on its own — the last line of
    defence when the parent skipped every cleanup path (SIGKILL,
    ``os._exit``).
    """
    import multiprocessing

    from repro.formal.checker import build_engine

    parent = multiprocessing.parent_process()
    try:
        engine = build_engine(module, engine_name, **engine_kwargs)
    except Exception:  # noqa: BLE001 - reported to the parent
        responses.put(("fatal", traceback.format_exc(limit=8)))
        return
    handled = 0
    while True:
        try:
            kind, payload = requests.get(timeout=_PARENT_POLL_SECONDS)
        except queue_module.Empty:
            if parent is not None and not parent.is_alive():
                return  # orphaned: the parent can never send another request
            continue
        if kind == "stop":
            return
        handled += 1
        if fault is not None and fault.fires(handled):
            chaos.suffer(fault)  # dies or wedges; does not return
        if kind == "stats":
            reuse_stats = getattr(engine, "reuse_stats", None)
            responses.put(("stats", reuse_stats() if reuse_stats else {}))
            continue
        try:
            results = [(sequence, engine.check(assertion))
                       for sequence, assertion in payload]
        except Exception:  # noqa: BLE001 - reported to the parent
            responses.put(("error", traceback.format_exc(limit=8)))
            continue
        responses.put(("results", results))


class FormalWorkerPool:
    """A supervised pool of persistent model-checking workers for one design.

    ``max_restarts``/``restart_backoff`` bound the per-slot restart
    budget (see :class:`repro.supervise.RestartBudget`);
    ``wedge_timeout`` is the no-answer deadline per shard wait after
    which a silent worker is declared wedged and killed.  ``None`` (the
    default) derives the deadline from the engine's ``query_timeout``
    when one is configured — ``len(shard) * query_timeout`` plus slack —
    and otherwise disables wedge detection (an unbounded query cannot be
    distinguished from a slow one without a budget).
    """

    def __init__(self, module: Module, engine_name: str,
                 engine_kwargs: Mapping | None = None, workers: int = 2,
                 max_restarts: int = supervise.DEFAULT_MAX_RESTARTS,
                 restart_backoff: float = supervise.DEFAULT_BACKOFF_SECONDS,
                 wedge_timeout: float | None = None):
        if workers < 1:
            raise ValueError("worker pool needs at least one worker")
        self.module = module
        self.engine_name = engine_name
        self.engine_kwargs = dict(engine_kwargs or {})
        self.workers = workers
        self.max_restarts = max_restarts
        self.restart_backoff = restart_backoff
        self.wedge_timeout = wedge_timeout
        self.batches = 0
        self.dispatched = 0
        # --- supervision telemetry (operational; never in deterministic
        # --- artifacts, which strip formal_reuse) -----------------------
        self.restarts = 0
        self.wedge_kills = 0
        self.fallback_checks = 0
        self._processes: list | None = None
        self._requests: list = []
        self._responses: list = []
        self._ctx = None
        self._budget: supervise.RestartBudget | None = None
        self._chaos = None
        self._fallback = None
        #: Stable list the exit finalizer sweeps; processes are added at
        #: spawn and removed when joined/discarded.  The finalizer holds
        #: this list, never the pool (which would leak it).
        self._live: list = []
        self._finalizer = weakref.finalize(self, supervise.reap_processes,
                                           self._live)

    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._processes is not None

    def ensure_started(self) -> None:
        """Spawn the worker processes (idempotent; restarts after close)."""
        if self._processes is not None:
            return
        self._chaos = chaos.active_plan()
        if self._chaos is not None:
            self._chaos.configure_pool(self)
        self._ctx = _multiprocessing_context()
        self._budget = supervise.RestartBudget(self.max_restarts,
                                               self.restart_backoff)
        self._processes, self._requests, self._responses = [], [], []
        for index in range(self.workers):
            self._spawn(index, replace=False)

    def _spawn(self, index: int, replace: bool) -> None:
        """Start worker ``index`` on fresh queues (initial spawn or respawn).

        Respawns always get fresh queues: the old response queue may hold
        a partial/garbled message from the dead worker, and fresh queues
        guarantee the replacement's answers can never interleave with
        stale ones.
        """
        fault = self._chaos.take_fault(index) if self._chaos is not None else None
        request_queue = self._ctx.Queue()
        response_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(self.module, self.engine_name, self.engine_kwargs,
                  request_queue, response_queue, fault),
            name=f"formal-worker-{index}",
            daemon=True,
        )
        process.start()
        if replace:
            self._processes[index] = process
            self._requests[index] = request_queue
            self._responses[index] = response_queue
        else:
            self._processes.append(process)
            self._requests.append(request_queue)
            self._responses.append(response_queue)
        self._live.append(process)

    def _discard_worker(self, index: int) -> None:
        """Forget a dead/killed worker's process and queues."""
        process = self._processes[index]
        try:
            self._live.remove(process)
        except ValueError:  # pragma: no cover - already swept
            pass
        supervise.discard_queue(self._requests[index])
        supervise.discard_queue(self._responses[index])

    # ------------------------------------------------------------------
    def check_batch(self, indexed: Sequence[tuple[int, Assertion]]
                    ) -> dict[int, CheckResult]:
        """Check a batch of (sequence, assertion) pairs; results by sequence.

        Sharding is a pure function of each assertion's canonical form, so
        the partition — and with canonical engines, every result — is
        independent of scheduling.  One request/response round trip per
        participating worker per batch keeps IPC overhead at
        O(workers + assertions).

        A worker that dies or wedges before answering is respawned (its
        shard requeued verbatim) within the restart budget, then served
        by the in-process fallback engine — either way the merged results
        are identical to a fault-free run.
        """
        if not indexed:
            return {}
        self.ensure_started()
        shards: dict[int, list[tuple[int, Assertion]]] = {}
        for sequence, assertion in indexed:
            worker = assertion_shard(assertion, self.workers)
            shards.setdefault(worker, []).append((sequence, assertion))
        for worker in sorted(shards):
            self._send(worker, shards[worker])
        self.batches += 1
        self.dispatched += len(indexed)
        results: dict[int, CheckResult] = {}
        for worker in sorted(shards):
            self._collect(worker, shards[worker], results)
        return results

    def _send(self, worker: int, shard: list) -> None:
        try:
            self._requests[worker].put(("check", shard))
        except (ValueError, OSError):  # pragma: no cover - queue closed
            pass  # _collect will find the worker dead and recover

    def _shard_deadline(self, shard_size: int) -> float | None:
        if self.wedge_timeout is not None:
            return time.monotonic() + self.wedge_timeout
        query_timeout = self.engine_kwargs.get("query_timeout")
        if query_timeout:
            return (time.monotonic() + shard_size * query_timeout
                    + _WEDGE_SLACK_SECONDS)
        return None

    def _collect(self, worker: int, shard: list,
                 results: dict[int, CheckResult]) -> None:
        """Wait for ``worker``'s answer to ``shard``, supervising it.

        Recovery paths: a dead worker (crashed, killed) or a wedged one
        (no answer by the shard deadline; killed with terminate→kill
        escalation) is respawned on fresh queues and the shard resent.
        Respawns are charged to the slot's restart budget; when it is
        exhausted the shard runs on the in-process fallback engine.
        Deterministic worker failures ("error"/"fatal" messages) raise —
        supervision cannot fix a reproducible engine exception.
        """
        deadline = self._shard_deadline(len(shard))
        while True:
            process = self._processes[worker]
            try:
                message = self._responses[worker].get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                if not process.is_alive():
                    # One last non-blocking drain: the worker may have
                    # posted its answer just before exiting.
                    try:
                        message = self._responses[worker].get_nowait()
                    except queue_module.Empty:
                        if self._revive(worker, shard):
                            deadline = self._shard_deadline(len(shard))
                            continue
                        self._fallback_shard(shard, results)
                        return
                elif deadline is not None and time.monotonic() >= deadline:
                    # Wedged: alive but silent past the shard's deadline.
                    self.wedge_kills += 1
                    supervise.stop_process(process)
                    if self._revive(worker, shard):
                        deadline = self._shard_deadline(len(shard))
                        continue
                    self._fallback_shard(shard, results)
                    return
                else:
                    continue
            kind, payload = message
            if kind == "results":
                for sequence, result in payload:
                    results[sequence] = result
                return
            # "error"/"fatal": deterministic failure inside the engine.
            # Other workers of this batch may still have responses queued;
            # tear the pool down so a retry starts from clean queues
            # instead of merging stale results by sequence id.
            self.close()
            raise FormalEngineError(f"formal worker {worker} failed:\n{payload}")

    def _revive(self, worker: int, shard: list) -> bool:
        """Respawn slot ``worker`` and requeue ``shard``, if budget allows."""
        delay = self._budget.next_delay(worker)
        if delay is None:
            return False
        if delay > 0:
            time.sleep(delay)
        self._discard_worker(worker)
        self._spawn(worker, replace=True)
        self.restarts += 1
        self._send(worker, list(shard))
        return True

    def _fallback_engine(self):
        if self._fallback is None:
            from repro.formal.checker import build_engine

            self._fallback = build_engine(self.module, self.engine_name,
                                          **self.engine_kwargs)
        return self._fallback

    def _fallback_shard(self, shard: list,
                        results: dict[int, CheckResult]) -> None:
        """Check ``shard`` in-process — the post-budget degradation tier."""
        engine = self._fallback_engine()
        for sequence, assertion in shard:
            results[sequence] = engine.check(assertion)
        self.fallback_checks += len(shard)

    # ------------------------------------------------------------------
    def reuse_stats(self) -> dict[str, int]:
        """Engine reuse counters summed over every worker, plus pool totals.

        Whatever int-valued counters the engine reports — including the
        SAT core's ``sat_*`` instrumentation — merge by summation, so the
        result reads as cluster-wide totals.  Dead workers are skipped
        (their counters died with them); the in-process fallback engine,
        when it ever ran, contributes its counters too.  The supervision
        totals ride along under ``worker_*``/``fallback_*`` keys.
        """
        merged: dict[str, int] = {}
        sources: list[dict] = []
        if self._processes is not None:
            for worker in range(self.workers):
                if not self._processes[worker].is_alive():
                    continue
                try:
                    self._requests[worker].put(("stats", None))
                except (ValueError, OSError):  # pragma: no cover
                    continue
                kind, payload = self._receive_stats(worker)
                if kind != "stats":
                    raise FormalEngineError(
                        f"formal worker {worker} failed:\n{payload}")
                sources.append(payload)
        if self._fallback is not None:
            fallback_stats = getattr(self._fallback, "reuse_stats", None)
            if fallback_stats is not None:
                sources.append(fallback_stats())
        for payload in sources:
            for key, value in payload.items():
                merged[key] = merged.get(key, 0) + int(value)
        merged["formal_workers"] = self.workers
        merged["dispatched"] = self.dispatched
        merged["dispatch_batches"] = self.batches
        merged["worker_restarts"] = self.restarts
        merged["worker_wedge_kills"] = self.wedge_kills
        merged["fallback_checks"] = self.fallback_checks
        return merged

    def _receive_stats(self, worker: int):
        """Bounded wait for a stats answer (telemetry must never hang)."""
        process = self._processes[worker]
        deadline = time.monotonic() + _STATS_TIMEOUT_SECONDS
        while True:
            try:
                return self._responses[worker].get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                if not process.is_alive():
                    try:
                        return self._responses[worker].get_nowait()
                    except queue_module.Empty:
                        raise FormalEngineError(
                            f"formal worker {worker} died "
                            f"(exit code {process.exitcode})") from None
                if time.monotonic() >= deadline:
                    raise FormalEngineError(
                        f"formal worker {worker} did not answer a stats "
                        f"request within {_STATS_TIMEOUT_SECONDS}s")

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker (idempotent); the pool may be started again.

        Cooperative stop first (a "stop" message and a grace join), then
        terminate→kill escalation for any survivor — a wedged worker
        ignoring SIGTERM still comes down.
        """
        if self._processes is None:
            return
        processes, self._processes = self._processes, None
        requests, self._requests = self._requests, []
        responses, self._responses = self._responses, []
        for worker, process in enumerate(processes):
            if process.is_alive():
                try:
                    requests[worker].put(("stop", None))
                except (ValueError, OSError):  # pragma: no cover
                    pass
        for process in processes:
            process.join(timeout=2.0)
            if process.is_alive():
                supervise.stop_process(process)
            try:
                self._live.remove(process)
            except ValueError:  # pragma: no cover - already swept
                pass
        for closing in (*requests, *responses):
            supervise.discard_queue(closing)
        self._budget = None
        self._chaos = None

    def __enter__(self) -> "FormalWorkerPool":
        self.ensure_started()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass
