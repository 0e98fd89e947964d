"""Chaos battery: deterministic fault injection across the formal stack.

The fault-tolerance acceptance contract, asserted here end to end:

* every pinned chaos schedule — workers killed or wedged mid-batch,
  proof-cache files truncated/garbled, checkpoint lines corrupted —
  yields a ``ClosureResult.deterministic_json()`` byte-identical to the
  fault-free run's, and leaves zero orphan worker processes;
* an expired per-query deadline degrades (k-induction → BMC → uncached
  ``timed_out`` UNKNOWN) instead of hanging or, worse, caching a verdict
  the engine never actually established;
* the solver-level interrupt aborts cleanly and leaves the solver
  usable, so persistent contexts survive their queries being cancelled.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import time

import pytest

from repro import supervise
from repro.boolean.sat import SatBudgetExceeded, SatSolver
from repro.core.config import GoldMineConfig
from repro.designs import info as design_info
from repro.formal import chaos
from repro.formal.bmc import BmcModelChecker
from repro.formal.chaos import FAULT_KILL, FAULT_WEDGE, ChaosPlan, WorkerFault
from repro.formal.checker import FormalVerifier, build_engine
from repro.formal.induction import KInductionModelChecker
from repro.formal.parallel import FormalWorkerPool
from repro.formal.proofcache import ProofCache, assertion_shard
from repro.formal.result import Verdict

# Sibling test modules (pytest puts this directory on sys.path).
from test_incremental_bmc import random_assertions
from test_parallel_formal import canonical, closure_artifact


@pytest.fixture(autouse=True)
def _clean_slate():
    """Fresh shared proof cache and no leftover chaos plan, ever."""
    ProofCache.reset_shared()
    chaos.uninstall()
    yield
    chaos.uninstall()
    ProofCache.reset_shared()


def pigeonhole_clauses(pigeons: int, holes: int) -> list[list[int]]:
    """PHP(pigeons, holes): UNSAT when pigeons > holes, with deep search —
    the canonical formula for exercising mid-search interrupt polls."""

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


def assert_no_orphans(pids, timeout: float = 5.0) -> None:
    """Every pid in ``pids`` must be gone (or reaped) within ``timeout``."""
    deadline = time.monotonic() + timeout
    pending = set(pids)
    while pending and time.monotonic() < deadline:
        for pid in list(pending):
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, PermissionError):
                pending.discard(pid)
                continue
            # Still visible: may be an unreaped zombie of this process,
            # which is not an orphan (it is dead; only the exit status
            # lingers until wait()).
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
                if done == pid:
                    pending.discard(pid)
            except ChildProcessError:
                pending.discard(pid)
        time.sleep(0.05)
    assert not pending, f"orphan worker processes survived: {sorted(pending)}"


# ----------------------------------------------------------------------
class TestSolverInterrupt:
    """The SatSolver interrupt hook the deadline machinery rides on."""

    def test_interrupt_aborts_hard_search(self):
        solver = SatSolver(pigeonhole_clauses(6, 5))
        solver.set_interrupt(lambda: True)
        with pytest.raises(SatBudgetExceeded):
            solver.solve()

    def test_solver_stays_usable_after_abort(self):
        solver = SatSolver(pigeonhole_clauses(5, 4))
        solver.set_interrupt(lambda: True)
        with pytest.raises(SatBudgetExceeded):
            solver.solve()
        solver.set_interrupt(None)
        assert not solver.solve().satisfiable  # PHP(5,4) is UNSAT
        # And a satisfiable query still finds a model afterwards.
        sat = SatSolver([[1, 2], [-1, 2]])
        sat.set_interrupt(lambda: True)  # polled mid-search only
        result = sat.solve()
        assert result.satisfiable

    def test_interrupt_polled_not_preempted(self):
        """The callback is consulted at conflict/decision poll points;
        a trivial propagation-only query completes despite an armed
        interrupt — timeouts withhold verdicts, never manufacture them."""
        solver = SatSolver([[1], [2], [-1, 3]])
        fired = []

        def interrupt() -> bool:
            fired.append(True)
            return True

        solver.set_interrupt(interrupt)
        assert solver.solve().satisfiable

    def test_uninstalled_interrupt_costs_nothing(self):
        solver = SatSolver(pigeonhole_clauses(5, 4))
        assert not solver.solve().satisfiable


# ----------------------------------------------------------------------
class TestQueryDeadline:
    """Per-query deadlines: uncached timed-out UNKNOWNs, tiered degradation."""

    def _expired_engine(self, module, **kwargs) -> BmcModelChecker:
        """A BMC engine whose deadline reads as already expired."""
        engine = BmcModelChecker(module, bound=6, query_timeout=100.0, **kwargs)
        engine._deadline_expired = lambda: True
        return engine

    def test_expired_deadline_yields_timed_out_unknown(self, arbiter2_module):
        engine = self._expired_engine(arbiter2_module)
        results = [engine.check(a)
                   for a in random_assertions(arbiter2_module, 12, seed=23)]
        timed_out = [r for r in results if r.timed_out]
        assert timed_out  # the corpus contains search-heavy queries
        for result in timed_out:
            assert result.verdict is Verdict.UNKNOWN
            assert result.counterexample is None
        # Quick falsifications beat the first poll point and still land —
        # a deadline can only withhold a verdict, never corrupt one.
        assert any(r.verdict is Verdict.FALSE and not r.timed_out
                   for r in results)
        assert engine.reuse_stats()["query_timeouts"] == len(timed_out)

    def test_timed_out_results_never_memoised_or_cached(self, arbiter2_module):
        cache = ProofCache()
        verifier = FormalVerifier(arbiter2_module, engine="bmc", bound=6,
                                  query_timeout=100.0, proof_cache=cache)
        verifier._serial_engine()._deadline_expired = lambda: True
        assertions = random_assertions(arbiter2_module, 12, seed=23)
        results = verifier.check_all(assertions)
        timed_out = [a for a, r in zip(assertions, results) if r.timed_out]
        assert timed_out
        assert verifier.stats.timeouts == len(timed_out)
        assert verifier.stats.reuse["formal_timeouts"] == len(timed_out)
        for assertion in timed_out:
            assert cache.lookup(verifier._design_fingerprint(),
                                verifier._proof_engine_key(), assertion) is None
        # Re-checking a timed-out assertion re-runs the query (no memo).
        checks_before = verifier.stats.checks
        again = verifier.check(timed_out[0])
        assert again.timed_out
        assert verifier.stats.checks == checks_before + 1
        assert verifier.stats.cache_hits == 0

    def test_verdicts_under_deadline_are_cacheable_and_identical(
            self, arbiter2_module):
        """Whatever verdicts survive an expired deadline match the
        unconstrained engine's exactly."""
        clean = BmcModelChecker(arbiter2_module, bound=6)
        expired = self._expired_engine(arbiter2_module)
        for assertion in random_assertions(arbiter2_module, 12, seed=23):
            baseline = clean.check(assertion)
            result = expired.check(assertion)
            if not result.timed_out:
                assert result.verdict is baseline.verdict
                if baseline.counterexample is not None:
                    assert (result.counterexample.input_vectors
                            == baseline.counterexample.input_vectors)

    def test_kinduction_degrades_to_bounded_search(self, arbiter2_module,
                                                   monkeypatch):
        """A timed-out inductive step downgrades the proof tier — the
        bounded search still finishes, so FALSE verdicts keep their
        witness and surviving TRUEs come back as honest timed-out
        UNKNOWNs instead of unbounded proofs."""
        engine = KInductionModelChecker(arbiter2_module, bound=6,
                                        induction_k=4, query_timeout=100.0)
        baseline = KInductionModelChecker(arbiter2_module, bound=6,
                                          induction_k=4)

        def step_times_out(assertion, k):
            raise SatBudgetExceeded("chaos: induction step over budget")

        monkeypatch.setattr(engine, "_step_holds", step_times_out)
        saw_degraded = saw_false = False
        for assertion in random_assertions(arbiter2_module, 12, seed=23):
            expected = baseline.check(assertion)
            result = engine.check(assertion)
            if expected.verdict is Verdict.FALSE:
                saw_false = True
                assert result.verdict is Verdict.FALSE
                assert not result.timed_out  # witness is budget-independent
                assert (result.counterexample.input_vectors
                        == expected.counterexample.input_vectors)
            else:
                saw_degraded = True
                assert result.verdict is Verdict.UNKNOWN
                assert result.timed_out
                assert result.details.get("degraded") == "bmc"
        assert saw_degraded and saw_false
        stats = engine.reuse_stats()
        assert stats["induction_step_timeouts"] > 0
        assert stats["query_timeouts"] > 0

    def test_query_timeout_excluded_from_proof_cache_key(self, arbiter2_module):
        """Timeouts withhold verdicts, never change them, so cache entries
        are shared across timeout settings."""
        plain = FormalVerifier(arbiter2_module, engine="bmc", bound=6)
        budgeted = FormalVerifier(arbiter2_module, engine="bmc", bound=6,
                                  query_timeout=30.0)
        assert plain._proof_engine_key() == budgeted._proof_engine_key()

    def test_nonpositive_timeout_rejected(self, arbiter2_module):
        with pytest.raises(ValueError):
            FormalVerifier(arbiter2_module, engine="bmc", query_timeout=0.0)
        with pytest.raises(ValueError):
            GoldMineConfig(formal_query_timeout=-1.0)


# ----------------------------------------------------------------------
class TestChaosPlan:
    def test_seeded_plans_are_reproducible(self):
        first = ChaosPlan.seeded(7, workers=4, faults=2)
        second = ChaosPlan.seeded(7, workers=4, faults=2)
        assert first.faults == second.faults
        assert ChaosPlan.seeded(8, workers=4, faults=2).faults != first.faults \
            or True  # different seeds may collide; reproducibility is the claim

    def test_faults_are_consumed_once(self):
        plan = ChaosPlan(faults={0: WorkerFault(FAULT_KILL)})
        assert plan.take_fault(0) is not None
        assert plan.take_fault(0) is None
        assert plan.exhausted

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            WorkerFault("segfault")
        with pytest.raises(ValueError):
            WorkerFault(FAULT_KILL, after_messages=-1)


# ----------------------------------------------------------------------
def _shards_cover_all_workers(assertions, workers: int) -> bool:
    return len({assertion_shard(a, workers) for a in assertions}) == workers


class TestPoolSupervision:
    """Kill/wedge recovery at the batch level: identical results, counted."""

    WORKERS = 2

    def _baseline(self, module, assertions):
        engine = build_engine(module, "bmc", bound=6)
        return [engine.check(a) for a in assertions]

    def _assert_identical(self, baseline, results, count):
        assert sorted(results) == list(range(count))
        for sequence, expected in enumerate(baseline):
            got = results[sequence]
            assert got.verdict is expected.verdict
            if expected.counterexample is None:
                assert got.counterexample is None
            else:
                assert (got.counterexample.input_vectors
                        == expected.counterexample.input_vectors)
                assert (got.counterexample.window_start
                        == expected.counterexample.window_start)

    def test_killed_worker_respawns_and_requeues(self, arbiter2_module):
        assertions = random_assertions(arbiter2_module, 12, seed=23)
        assert _shards_cover_all_workers(assertions, self.WORKERS)
        baseline = self._baseline(arbiter2_module, assertions)
        plan = ChaosPlan(faults={0: WorkerFault(FAULT_KILL, after_messages=0)})
        with chaos.injected(plan):
            pool = FormalWorkerPool(arbiter2_module, "bmc", {"bound": 6},
                                    workers=self.WORKERS)
            try:
                results = pool.check_batch(list(enumerate(assertions)))
            finally:
                pids = [p.pid for p in pool._live]
                pool.close()
        assert plan.exhausted  # the fault was actually delivered
        assert pool.restarts == 1
        assert pool.wedge_kills == 0
        assert pool.fallback_checks == 0
        self._assert_identical(baseline, results, len(assertions))
        assert_no_orphans(pids)

    def test_wedged_worker_killed_and_respawned(self, arbiter2_module):
        assertions = random_assertions(arbiter2_module, 12, seed=23)
        baseline = self._baseline(arbiter2_module, assertions)
        plan = ChaosPlan(faults={1: WorkerFault(FAULT_WEDGE, after_messages=0)},
                         wedge_timeout=1.0)
        with chaos.injected(plan):
            pool = FormalWorkerPool(arbiter2_module, "bmc", {"bound": 6},
                                    workers=self.WORKERS)
            try:
                results = pool.check_batch(list(enumerate(assertions)))
            finally:
                pids = [p.pid for p in pool._live]
                pool.close()
        assert pool.wedge_kills == 1
        assert pool.restarts == 1
        self._assert_identical(baseline, results, len(assertions))
        assert_no_orphans(pids)

    def test_exhausted_budget_falls_back_in_process(self, arbiter2_module):
        assertions = random_assertions(arbiter2_module, 12, seed=23)
        baseline = self._baseline(arbiter2_module, assertions)
        plan = ChaosPlan(faults={0: WorkerFault(FAULT_KILL, after_messages=0)},
                         max_restarts=0)
        with chaos.injected(plan):
            pool = FormalWorkerPool(arbiter2_module, "bmc", {"bound": 6},
                                    workers=self.WORKERS)
            try:
                results = pool.check_batch(list(enumerate(assertions)))
            finally:
                pids = [p.pid for p in pool._live]
                pool.close()
        assert pool.restarts == 0
        assert pool.fallback_checks > 0
        self._assert_identical(baseline, results, len(assertions))
        assert_no_orphans(pids)

    def test_fault_at_pinned_message_index(self, arbiter2_module):
        """A worker that answers its first batch and dies on the second
        exercises requeue on a warm (restarted-cold) engine — results
        must still be canonical."""
        assertions = random_assertions(arbiter2_module, 12, seed=23)
        baseline = self._baseline(arbiter2_module, assertions)
        plan = ChaosPlan(faults={0: WorkerFault(FAULT_KILL, after_messages=1)})
        indexed = list(enumerate(assertions))
        with chaos.injected(plan):
            pool = FormalWorkerPool(arbiter2_module, "bmc", {"bound": 6},
                                    workers=self.WORKERS)
            try:
                first = pool.check_batch(indexed)
                second = pool.check_batch(indexed)
            finally:
                pool.close()
        assert pool.restarts == 1
        self._assert_identical(baseline, first, len(assertions))
        self._assert_identical(baseline, second, len(assertions))

    def test_supervision_counters_in_reuse_stats(self, arbiter2_module):
        assertions = random_assertions(arbiter2_module, 8, seed=9)
        plan = ChaosPlan(faults={0: WorkerFault(FAULT_KILL, after_messages=0)})
        with chaos.injected(plan):
            pool = FormalWorkerPool(arbiter2_module, "bmc", {"bound": 6},
                                    workers=self.WORKERS)
            try:
                pool.check_batch(list(enumerate(assertions)))
                reuse = pool.reuse_stats()
            finally:
                pool.close()
        assert reuse["worker_restarts"] == 1
        assert reuse["worker_wedge_kills"] == 0
        assert reuse["fallback_checks"] == 0
        assert reuse["dispatched"] == 8

    def test_restart_budget_arithmetic(self):
        budget = supervise.RestartBudget(max_restarts=2, backoff=0.5, cap=0.8)
        assert budget.next_delay(0) == 0.5
        assert budget.next_delay(0) == 0.8  # doubled, then capped
        assert budget.next_delay(0) is None  # exhausted
        assert budget.used(0) == 2 and budget.exhausted(0)
        assert budget.next_delay(1) == 0.5  # budgets are per slot
        assert budget.total_used() == 3


# ----------------------------------------------------------------------
class TestClosureChaosIdentity:
    """The acceptance gate: chaos runs are byte-identical to clean runs."""

    SCHEDULES = [
        ChaosPlan(faults={0: WorkerFault(FAULT_KILL, after_messages=0)}),
        ChaosPlan(faults={1: WorkerFault(FAULT_KILL, after_messages=1)}),
        ChaosPlan(faults={1: WorkerFault(FAULT_WEDGE, after_messages=0)}),
        ChaosPlan(faults={0: WorkerFault(FAULT_KILL, after_messages=0)},
                  max_restarts=0),  # straight to in-process fallback
        ChaosPlan.seeded(7, workers=2, faults=2),
    ]

    @pytest.mark.parametrize("schedule", range(len(SCHEDULES)))
    def test_chaos_closure_identical_to_clean(self, schedule):
        baseline = canonical(closure_artifact("arbiter2", 1, engine="bmc",
                                              workers=2, max_iterations=6))
        with chaos.injected(self.SCHEDULES[schedule]):
            chaotic = closure_artifact("arbiter2", 1, engine="bmc",
                                       workers=2, max_iterations=6)
        assert canonical(chaotic) == baseline

    def test_chaos_with_proof_cache_identical(self, tmp_path):
        baseline = canonical(closure_artifact("arbiter2", 1, engine="bmc",
                                              workers=2, max_iterations=6))
        cache_file = str(tmp_path / "proofs.json")
        plan = ChaosPlan(faults={0: WorkerFault(FAULT_KILL, after_messages=0)})
        with chaos.injected(plan):
            first = closure_artifact("arbiter2", 1, engine="bmc", workers=2,
                                     proof_cache=cache_file, max_iterations=6)
        assert canonical(first) == baseline
        # Corrupt the persisted cache; the reload quarantines and re-proves.
        chaos.truncate_file(cache_file, keep_ratio=0.4)
        ProofCache.reset_shared()
        second = closure_artifact("arbiter2", 1, engine="bmc", workers=2,
                                  proof_cache=cache_file, max_iterations=6)
        assert canonical(second) == baseline
        assert list(tmp_path.glob("proofs.json.corrupt-*"))


# ----------------------------------------------------------------------
class TestOrphanHygiene:
    def test_finalizer_reaps_unclosed_pool(self, arbiter2_module):
        pool = FormalWorkerPool(arbiter2_module, "bmc", {"bound": 6}, workers=2)
        pool.ensure_started()
        pids = [p.pid for p in pool._live]
        assert pids
        del pool
        gc.collect()
        assert_no_orphans(pids)

    def test_workers_self_exit_when_parent_dies(self, arbiter2_module,
                                                tmp_path):
        """A parent that vanishes without any cleanup (``os._exit``, the
        SIGKILL stand-in) must not strand workers: they poll the parent
        between requests and exit on their own."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        pid_file = tmp_path / "worker_pids.json"

        def doomed_parent():
            inner = FormalWorkerPool(arbiter2_module, "bmc", {"bound": 6},
                                     workers=2)
            inner.ensure_started()
            pid_file.write_text(json.dumps([p.pid for p in inner._live]))
            os._exit(0)  # skips atexit, finalizers, daemon cleanup — all of it

        parent = ctx.Process(target=doomed_parent)
        parent.start()
        parent.join(30.0)
        assert parent.exitcode == 0
        pids = json.loads(pid_file.read_text())
        assert len(pids) == 2
        # Not our children, so poll liveness directly (no waitpid).
        deadline = time.monotonic() + 10.0
        pending = set(pids)
        while pending and time.monotonic() < deadline:
            pending = {pid for pid in pending if _pid_alive(pid)}
            time.sleep(0.1)
        assert not pending, f"orphaned workers survived: {sorted(pending)}"

    def test_stop_process_escalates_past_sigterm(self):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")

        def stubborn():
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            while True:
                time.sleep(0.05)

        process = ctx.Process(target=stubborn, daemon=True)
        process.start()
        time.sleep(0.2)  # let it install the handler
        supervise.stop_process(process, grace=0.5)
        assert not process.is_alive()
        assert process.exitcode == -signal.SIGKILL


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # A zombie answers kill(0); read its state to tell.
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split(")")[-1].split()[0] != "Z"
    except OSError:
        return False
