"""Facade over the formal engines used by the rest of the library.

The refinement loop only talks to :class:`FormalVerifier`.  It selects the
back end, caches verdicts for repeated queries, keeps the runtime
statistics the paper discusses in Section 7 (average seconds per formal
check, number of counterexamples).

Two scaling layers sit behind the same facade:

* ``workers > 1`` dispatches every batch to a pool of persistent
  verification worker processes (:mod:`repro.formal.parallel`), sharded
  by a deterministic hash of each candidate's canonical form and merged
  back in submission order.  Because every engine produces canonical,
  history-independent results, the merged verdicts *and*
  counterexamples are identical to the serial engine's for any worker
  count.
* ``proof_cache`` consults a cross-run verdict store
  (:mod:`repro.formal.proofcache`) keyed by (design content hash,
  canonical assertion, engine configuration) before anything is
  dispatched.  A cache hit still counts as a check in the statistics —
  it *is* a check, served in zero time — so run artifacts stay identical
  between cold and warm caches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.assertions.assertion import Assertion, Verdict
from repro.formal.explicit import ExplicitModelChecker
from repro.formal.induction import EXACT_TIER_ROWS, KInductionModelChecker
from repro.formal.proofcache import ProofCache, design_fingerprint
from repro.formal.result import (
    PROOF_BOUNDED,
    PROOF_UNBOUNDED,
    CheckResult,
    FormalEngineError,
)
from repro.hdl.module import Module

if TYPE_CHECKING:
    from repro.core.config import GoldMineConfig

#: Proof-cache key suffix naming the SAT engine's encoding: every check
#: runs on the assertion's cone-of-influence slice.  Slicing preserves
#: bounded verdicts but can strengthen k-induction (sliced simple-path
#: constraints prove more), so entries stored under the unsliced key
#: form (no suffix, written by earlier versions) are never served.
SLICED_ENCODING = ":ir"

#: Proof-cache key suffix naming the SAT engine's exact tier by its row
#: budget (log2).  The tier decides checks that earlier versions left
#: UNKNOWN, and an UNKNOWN that did not time out is cached, so entries
#: stored without the marker are never served at ``induction_k > 0``.
#: At ``induction_k=0`` the tier never runs and the key has no marker.
EXACT_TIER_MARKER = f":exact={EXACT_TIER_ROWS.bit_length() - 1}"


def build_engine(module: Module, name: str, bound: int = 10,
                 max_states: int = 50_000,
                 max_input_combinations: int = 4_096,
                 induction_k: int = 8,
                 query_timeout: float | None = None):
    """Construct one formal engine by name.

    Shared by :class:`FormalVerifier` and the parallel pool's workers
    (each worker builds its own persistent engine from the same
    parameters), so the two paths can never drift apart.

    ``query_timeout`` is the per-check wall-clock budget; it only applies
    to the SAT engine (the explicit and BDD engines already carry their
    own exploration limits).
    """
    if name == "explicit":
        return ExplicitModelChecker(
            module,
            max_states=max_states,
            max_input_combinations=max_input_combinations,
        )
    if name == "tiered":
        return KInductionModelChecker(module, bound=bound,
                                      induction_k=induction_k,
                                      query_timeout=query_timeout)
    if name == "bdd":
        from repro.formal.bdd_engine import BddModelChecker

        return BddModelChecker(module)
    raise ValueError(f"unknown engine '{name}'")


@dataclass
class VerifierStatistics:
    """Aggregate statistics over all checks performed by one verifier."""

    checks: int = 0
    true_count: int = 0
    false_count: int = 0
    unknown_count: int = 0
    #: Results carrying ``proof_strength="unbounded"`` — real proofs
    #: (exact engines, inductive arguments), a subset of ``true_count``.
    unbounded_proofs: int = 0
    #: Results carrying ``proof_strength="bounded"`` — survived a bounded
    #: search only (SAT-engine UNKNOWNs, pre-proof-strength cache entries).
    bounded_passes: int = 0
    total_seconds: float = 0.0
    cache_hits: int = 0
    #: Checks abandoned because the per-query wall-clock budget expired
    #: (``timed_out`` results).  A subset of ``unknown_count``; never
    #: memoised or proof-cached, so reruns with more budget can decide.
    timeouts: int = 0
    per_assertion_seconds: list[float] = field(default_factory=list)
    #: Incremental-engine reuse counters (clauses reused, learned clauses
    #: carried over, Tseitin encode cache hits, ...) plus the SAT core's
    #: lifetime counters under ``sat_*`` keys (propagations, conflicts,
    #: blocker hits, watch checks, ...), mirrored from the engine's
    #: ``reuse_stats()`` after every check; parallel pools merge every
    #: worker's counters by summation and add dispatch/worker totals, and
    #: a configured proof cache contributes its hit/miss counters.  Empty
    #: for serial engines without a persistent solver context.
    reuse: dict[str, int] = field(default_factory=dict)

    @property
    def average_seconds(self) -> float:
        if not self.per_assertion_seconds:
            return 0.0
        return sum(self.per_assertion_seconds) / len(self.per_assertion_seconds)

    def record(self, result: CheckResult) -> None:
        self.checks += 1
        self.total_seconds += result.seconds
        self.per_assertion_seconds.append(result.seconds)
        if result.verdict is Verdict.TRUE:
            self.true_count += 1
        elif result.verdict is Verdict.FALSE:
            self.false_count += 1
        else:
            self.unknown_count += 1
        if result.proof_strength == PROOF_UNBOUNDED:
            self.unbounded_proofs += 1
        elif result.proof_strength == PROOF_BOUNDED:
            self.bounded_passes += 1
        if result.timed_out:
            self.timeouts += 1

    def to_json(self) -> dict:
        """Plain-dict form for run artifacts (per-check seconds elided)."""
        return {
            "checks": self.checks,
            "true_count": self.true_count,
            "false_count": self.false_count,
            "unknown_count": self.unknown_count,
            "unbounded_proofs": self.unbounded_proofs,
            "bounded_passes": self.bounded_passes,
            "total_seconds": self.total_seconds,
            "cache_hits": self.cache_hits,
            "timeouts": self.timeouts,
            "average_seconds": self.average_seconds,
            "reuse": dict(self.reuse),
        }


class FormalVerifier:
    """Checks candidate assertions against a design using a chosen engine.

    ``tiered`` is the one SAT engine: the depth-0 inductive step runs
    first and proves what holds on every state; otherwise the bounded
    search falsifies, deciding small queries by truth table and the rest
    on one persistent solver context per sliced unrolling (goal
    literals assumed per query), then the simple-path inductive step
    runs at depth 1 on a second persistent context.  What that step
    cannot prove goes to the explicit engine when the module's window
    table fits the exact tier's row budget, and otherwise the step
    escalates to ``induction_k``, so surviving assertions become real
    ``unbounded`` proofs.  ``induction_k=0`` stops at the one-step
    induction of plain BMC.

    ``workers`` selects how checks execute: ``1`` (default) runs the
    engine in-process, ``> 1`` fans batches out to that many persistent
    worker processes.  ``proof_cache`` plugs in a
    :class:`~repro.formal.proofcache.ProofCache` consulted before any
    engine runs.  Call :meth:`close` (or use the verifier as a context
    manager) when done: it stops the worker pool and flushes the cache.
    Both are safe to leave running — workers are daemons and restart
    lazily after a close.
    """

    ENGINES = ("explicit", "tiered", "bdd")

    def __init__(self, module: Module, engine: str = "explicit",
                 bound: int = 10,
                 max_states: int = 50_000,
                 max_input_combinations: int = 4_096,
                 induction_k: int = 8,
                 workers: int = 1,
                 proof_cache: ProofCache | None = None,
                 query_timeout: float | None = None):
        if engine not in self.ENGINES:
            raise ValueError(f"unknown engine '{engine}'; choose from {self.ENGINES}")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.module = module
        self.engine_name = engine
        self.workers = workers
        self.proof_cache = proof_cache
        self.stats = VerifierStatistics()
        if query_timeout is not None and query_timeout <= 0:
            raise ValueError("query_timeout must be positive (or None)")
        self._engine_kwargs = {
            "bound": bound,
            "max_states": max_states,
            "max_input_combinations": max_input_combinations,
            "induction_k": induction_k,
            "query_timeout": query_timeout,
        }
        self._cache: dict[Assertion, CheckResult] = {}
        # Engines, the worker pool and the design fingerprint are all built
        # lazily: a parallel verifier never pays for an unused in-process
        # engine, and a cache-only lookup never elaborates a pool.
        self._engine = None
        self._pool = None
        self._fingerprint: str | None = None
        self._proof_hits = 0
        self._proof_misses = 0

    @classmethod
    def from_config(cls, module: Module, config: GoldMineConfig,
                    proof_cache: ProofCache | None) -> FormalVerifier:
        """The verifier a :class:`~repro.core.config.GoldMineConfig` selects.

        The one mapping from config fields to verifier settings, shared by
        the GoldMine engine and the fault campaign.  ``proof_cache`` is
        passed resolved (not as ``config.formal_proof_cache``) so callers
        that build many verifiers can share one cache.
        """
        return cls(module, engine=config.engine, bound=config.bound,
                   max_states=config.max_states,
                   max_input_combinations=config.max_input_combinations,
                   induction_k=config.induction_k,
                   workers=config.formal_workers, proof_cache=proof_cache,
                   query_timeout=config.formal_query_timeout)

    # ------------------------------------------------------------------
    # lazy members
    # ------------------------------------------------------------------
    def _serial_engine(self):
        if self._engine is None:
            self._engine = build_engine(self.module, self.engine_name,
                                        **self._engine_kwargs)
        return self._engine

    def _worker_pool(self):
        if self._pool is None:
            from repro.formal.parallel import FormalWorkerPool

            self._pool = FormalWorkerPool(self.module, self.engine_name,
                                          self._engine_kwargs, workers=self.workers)
        return self._pool

    def _design_fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = design_fingerprint(self.module)
        return self._fingerprint

    def _proof_engine_key(self) -> str:
        """Engine-configuration part of the proof-cache key.

        Only parameters that can change a verdict participate: the bound,
        induction depth and exact-tier budget for the SAT engine, the
        exploration limits for the explicit engine.  Worker count never
        appears — parallelism does not change results, so serial and
        parallel runs share cache entries.  The explicit key keeps the
        empty ``:pinned=`` field of its earlier form, so existing cache
        files still hit.
        """
        if self.engine_name == "tiered":
            depth = self._engine_kwargs["induction_k"]
            return (f"tiered:bound={self._engine_kwargs['bound']}"
                    f":k={depth}{SLICED_ENCODING}"
                    f"{EXACT_TIER_MARKER if depth else ''}")
        if self.engine_name == "explicit":
            return (f"explicit:max_states={self._engine_kwargs['max_states']}"
                    f":max_inputs={self._engine_kwargs['max_input_combinations']}"
                    f":pinned=")
        return self.engine_name

    # ------------------------------------------------------------------
    def check(self, assertion: Assertion) -> CheckResult:
        """Check one candidate assertion (verdicts are cached)."""
        return self.check_all([assertion])[0]

    def check_all(self, assertions: list[Assertion]) -> list[CheckResult]:
        """Check a batch of assertions; results in submission order.

        The pipeline per batch is: verifier-local verdict cache →
        proof cache (when configured) → engine, where "engine" is either
        the in-process serial engine or one wave of sharded dispatch to
        the worker pool.  Duplicates within the batch are checked once
        and served to later positions as cache hits, exactly as repeated
        :meth:`check` calls would be, so statistics — and therefore run
        artifacts — do not depend on the execution mode.
        """
        results: list[CheckResult | None] = [None] * len(assertions)
        to_compute: list[tuple[int, Assertion]] = []
        first_occurrence: dict[Assertion, int] = {}
        duplicates: list[tuple[int, int]] = []
        for index, assertion in enumerate(assertions):
            cached = self._cache.get(assertion)
            if cached is not None:
                self.stats.cache_hits += 1
                results[index] = cached
                continue
            if assertion in first_occurrence:
                duplicates.append((index, first_occurrence[assertion]))
                continue
            if self.proof_cache is not None:
                hit = self.proof_cache.lookup(self._design_fingerprint(),
                                              self._proof_engine_key(), assertion)
                if hit is not None:
                    self._proof_hits += 1
                    self._record(assertion, hit)
                    results[index] = hit
                    continue
                self._proof_misses += 1
            first_occurrence[assertion] = index
            to_compute.append((index, assertion))

        computed = self._compute(to_compute)
        for index, assertion in to_compute:
            result = computed[index]
            self._record(assertion, result)
            if self.proof_cache is not None and not result.timed_out:
                self.proof_cache.store(self._design_fingerprint(),
                                       self._proof_engine_key(), assertion, result)
            results[index] = result
        for index, source in duplicates:
            self.stats.cache_hits += 1
            results[index] = results[source]
        if to_compute or self.proof_cache is not None:
            self._capture_reuse()
        return results

    # ------------------------------------------------------------------
    @staticmethod
    def _can_spawn_workers() -> bool:
        """Daemonic processes (e.g. `python -m repro run --workers N` pool
        jobs) may not spawn children; formal checking degrades to
        in-process there — results are identical either way, and job-level
        parallelism already owns the cores."""
        import multiprocessing

        return not multiprocessing.current_process().daemon

    def _compute(self, to_compute: list[tuple[int, Assertion]]
                 ) -> dict[int, CheckResult]:
        """Run the uncached checks — serial in-process, or one pool wave."""
        if not to_compute:
            return {}
        if self.workers > 1 and self._can_spawn_workers():
            return self._worker_pool().check_batch(to_compute)
        computed: dict[int, CheckResult] = {}
        engine = self._serial_engine()
        for index, assertion in to_compute:
            start = time.perf_counter()
            result = engine.check(assertion)
            result.seconds = time.perf_counter() - start
            computed[index] = result
        return computed

    def _record(self, assertion: Assertion, result: CheckResult) -> None:
        self.stats.record(result)
        if not result.timed_out:
            # A timed-out UNKNOWN is an operational outcome, not a verdict:
            # never memoise it, so a repeat query gets a fresh attempt.
            self._cache[assertion] = result

    def _capture_reuse(self, query_workers: bool = False) -> None:
        """Refresh ``stats.reuse``.

        The serial engine's counters are read in-process (cheap, every
        batch).  Worker-side solver counters cost one IPC round trip per
        worker, so per batch only the parent-side dispatch counters are
        refreshed; the full merge happens with ``query_workers=True``,
        which :meth:`close` does once before stopping the pool — in time
        for ``CoverageClosure.run`` to copy the final counters into
        ``ClosureResult.formal_reuse``.
        """
        reuse: dict[str, int] = {}
        if self._pool is not None and self._pool.started:
            if query_workers:
                reuse.update(self._pool.reuse_stats())
            else:
                reuse.update(self.stats.reuse)
                reuse["formal_workers"] = self._pool.workers
                reuse["dispatched"] = self._pool.dispatched
                reuse["dispatch_batches"] = self._pool.batches
        elif self._engine is not None:
            reuse_stats = getattr(self._engine, "reuse_stats", None)
            if reuse_stats is not None:
                reuse.update(reuse_stats())
        if self.proof_cache is not None:
            reuse["proof_cache_hits"] = self._proof_hits
            reuse["proof_cache_misses"] = self._proof_misses
        if self.stats.timeouts:
            reuse["formal_timeouts"] = self.stats.timeouts
        if reuse:
            self.stats.reuse = reuse

    # ------------------------------------------------------------------
    def close(self, flush_cache: bool = True) -> None:
        """Release the worker pool and flush the proof cache (idempotent).

        The verifier stays usable: a later check lazily restarts the
        pool.  Safe to call any number of times, including from
        ``finally`` blocks — the final worker-stats round trip is
        best-effort (a worker that died after its last batch only costs
        telemetry, never the computed results or the cache flush).
        ``flush_cache=False`` skips the cache flush for callers that
        batch many short-lived verifiers over one shared cache and flush
        it once themselves (see :func:`repro.faults.regression.run_fault_campaign`).
        """
        if self._pool is not None:
            if self._pool.started:
                try:
                    self._capture_reuse(query_workers=True)
                except FormalEngineError:
                    pass
            self._pool.close()
        if flush_cache and self.proof_cache is not None:
            self.proof_cache.flush()

    def __enter__(self) -> "FormalVerifier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
