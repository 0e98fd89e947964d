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
  including the ``proof_strength`` field the tiered engine sets — so
  proof strength survives sharding byte-for-byte.

Workers are forked where the platform allows (see
:mod:`repro.workers`): they inherit the already-elaborated module
and the parent's hash seed, so no pickling of the design is needed and
set/dict iteration orders match the parent exactly.  Under ``spawn`` the
module is pickled to the workers instead; results are still canonical.

**Supervision** comes from the shared substrate
(:class:`repro.workers.SupervisedPool`), with formal's policy on top: a
worker that dies mid-batch — crash, OOM-kill, external SIGKILL — or
wedges (no answer by the shard's deadline) is respawned and its
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

The deterministic chaos harness (:mod:`repro.chaos`) arms scheduled
faults per worker slot behind a test-only hook
(:func:`repro.chaos.active_plan`); with no plan installed the hook is a
single module lookup per pool start.
"""

from __future__ import annotations

import time
import traceback
from typing import Mapping, Sequence

from repro import chaos, supervise
from repro.assertions.assertion import Assertion
from repro.formal.result import CheckResult, FormalEngineError
from repro.formal.proofcache import assertion_shard
from repro.hdl.module import Module
from repro.workers import ANSWER, DEADLINE, Policy, SupervisedPool, serve

#: Ceiling on a best-effort stats round trip (a wedged worker must not
#: hang ``close()``'s final telemetry read).
_STATS_TIMEOUT_SECONDS = 5.0
#: Extra slack on top of ``len(shard) * query_timeout`` when the wedge
#: deadline is derived from the per-query budget.
_WEDGE_SLACK_SECONDS = 30.0


def _worker_main(module: Module, engine_name: str, engine_kwargs: dict,
                 requests, responses) -> None:
    """Body of one verification worker: build the engine, serve requests.

    A request is ``("check", [(sequence, assertion), ...])`` or
    ``("stats", None)``; the answers are ``("results", [(sequence,
    result), ...])``, ``("stats", reuse_stats)`` or, for a deterministic
    engine failure, ``("error" | "fatal", traceback)``.
    """
    from repro.formal.checker import build_engine

    try:
        engine = build_engine(module, engine_name, **engine_kwargs)
    except Exception:  # noqa: BLE001 - reported to the parent
        responses.put(("fatal", traceback.format_exc(limit=8)))
        return

    def handle(request):
        kind, payload = request
        if kind == "stats":
            reuse_stats = getattr(engine, "reuse_stats", None)
            return "stats", reuse_stats() if reuse_stats else {}
        try:
            return "results", [(sequence, engine.check(assertion))
                               for sequence, assertion in payload]
        except Exception:  # noqa: BLE001 - reported to the parent
            return "error", traceback.format_exc(limit=8)

    serve(handle, requests, responses)


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
        self._policy = Policy(deadline=wedge_timeout, retry_budget=max_restarts,
                              backoff=restart_backoff)
        self.batches = 0
        self.dispatched = 0
        # --- supervision telemetry (operational; never in deterministic
        # --- artifacts, which strip formal_reuse) -----------------------
        self.restarts = 0
        self.wedge_kills = 0
        self.fallback_checks = 0
        self._workers: SupervisedPool | None = None
        self._fallback = None

    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._workers is not None

    def ensure_started(self) -> None:
        """Spawn the worker processes (idempotent; restarts after close)."""
        if self._workers is not None:
            return
        plan = chaos.active_plan()
        policy = self._policy if plan is None else plan.apply(self._policy)
        # The worker target is looked up here, at spawn time, so a
        # wrapper installed on ``_worker_main`` reaches the workers.
        self._workers = SupervisedPool(
            "formal-worker", _worker_main,
            (self.module, self.engine_name, self.engine_kwargs),
            slots=self.workers, policy=policy)
        self._workers.start(plan)

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
        deadline = self._workers.policy.deadline
        query_timeout = self.engine_kwargs.get("query_timeout")
        if deadline is None and query_timeout:
            deadline = len(shard) * query_timeout + _WEDGE_SLACK_SECONDS
        self._workers.submit(worker, ("check", shard), deadline)

    def _collect(self, worker: int, shard: list,
                 results: dict[int, CheckResult]) -> None:
        """Wait for ``worker``'s answer to ``shard``, supervising it.

        A dead or wedged (killed) worker is respawned and the shard
        resent, charged to the slot's restart budget; once it is spent
        the shard runs on the in-process fallback engine.  Deterministic
        worker failures ("error"/"fatal" answers) raise — supervision
        cannot fix a reproducible engine exception.
        """
        while True:
            event, detail = self._workers.wait(worker)
            if event == ANSWER:
                kind, payload = detail
                if kind == "results":
                    results.update(payload)
                    return
                # Other workers of this batch may still have responses
                # queued; tear the pool down so a retry starts from clean
                # queues instead of merging stale results by sequence id.
                self.close()
                raise FormalEngineError(
                    f"formal worker {worker} failed:\n{payload}")
            if event == DEADLINE:
                self.wedge_kills += 1
            delay = self._workers.retry_delay(
                worker, f"checking {len(shard)} candidate(s) of "
                        f"formal-worker-{worker} in-process")
            if delay is None:
                self._fallback_shard(shard, results)
                return
            time.sleep(delay)
            self._workers.respawn(worker)
            self.restarts += 1
            self._send(worker, shard)

    def _fallback_shard(self, shard: list,
                        results: dict[int, CheckResult]) -> None:
        """Check ``shard`` in-process — the post-budget degradation tier."""
        if self._fallback is None:
            from repro.formal.checker import build_engine

            self._fallback = build_engine(self.module, self.engine_name,
                                          **self.engine_kwargs)
        for sequence, assertion in shard:
            results[sequence] = self._fallback.check(assertion)
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
        if self._workers is not None:
            for worker in range(self.workers):
                if not self._workers.alive(worker):
                    continue
                self._workers.submit(worker, ("stats", None),
                                     _STATS_TIMEOUT_SECONDS)
                event, detail = self._workers.wait(worker)
                if event != ANSWER or detail[0] != "stats":
                    raise FormalEngineError(
                        f"formal worker {worker} failed a stats request: "
                        f"{event} {detail}")
                sources.append(detail[1])
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

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker (idempotent); the pool may be started again."""
        if self._workers is not None:
            pool, self._workers = self._workers, None
            pool.close()

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
