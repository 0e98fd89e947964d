"""Differential suite: serial ≡ parallel ≡ cached formal verification.

The parallel formal service (:mod:`repro.formal.parallel`) and the proof
cache (:mod:`repro.formal.proofcache`) are pure accelerators: for any
worker count and any cache state, verdicts, counterexamples, iteration
records and the serialized ``ClosureResult`` must be **identical** to the
serial engine's (modulo the wall-clock/telemetry fields
``deterministic_json`` strips).  These tests hold both layers to that
contract at the batch level and through full closure runs, across
designs × seeds × engines.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.core.results import ClosureResult
from repro.designs import info as design_info
from repro.formal.checker import FormalVerifier
from repro.formal.parallel import FormalWorkerPool
from repro.formal.proofcache import ProofCache
from repro.formal.result import FormalEngineError
from repro.sim.stimulus import RandomStimulus

# Sibling test module (pytest puts this directory on sys.path).
from test_incremental_bmc import random_assertions

#: Plain BMC: the tiered engine at induction depth 0.
BMC = {"bound": 6, "induction_k": 0}


@pytest.fixture(autouse=True)
def _isolated_shared_cache():
    """Each test sees a fresh process-shared proof-cache registry."""
    ProofCache.reset_shared()
    yield
    ProofCache.reset_shared()


def closure_artifact(design: str, seed: int, *, workers: int = 1,
                     proof_cache: bool | str = False,
                     engine: str = "explicit", induction_k: int = 8,
                     max_iterations: int = 10) -> dict:
    """One full refinement run, reduced to its deterministic artifact."""
    meta = design_info(design)
    config = GoldMineConfig(window=meta.window, engine=engine,
                            induction_k=induction_k,
                            formal_workers=workers,
                            formal_proof_cache=proof_cache,
                            max_iterations=max_iterations)
    closure = CoverageClosure(meta.build(),
                              outputs=list(meta.mining_outputs) or None,
                              config=config)
    result = closure.run(RandomStimulus(10, seed=seed))
    return result.deterministic_json()


def canonical(document: dict) -> str:
    return json.dumps(document, sort_keys=True)


# ----------------------------------------------------------------------
class TestBatchEquivalence:
    """Pool dispatch must reproduce the serial engine query for query."""

    @pytest.mark.parametrize("engine", ["tiered", "explicit"])
    def test_verdicts_and_counterexamples_identical(self, arbiter2_module, engine):
        assertions = random_assertions(arbiter2_module, 12, seed=23)
        serial = FormalVerifier(arbiter2_module, engine=engine, bound=6,
                                induction_k=0)
        baseline = serial.check_all(assertions)
        for workers in (2, 4):
            verifier = FormalVerifier(arbiter2_module, engine=engine, bound=6,
                                      induction_k=0, workers=workers)
            try:
                results = verifier.check_all(assertions)
            finally:
                verifier.close()
            for expected, got in zip(baseline, results):
                assert got.verdict is expected.verdict
                if expected.counterexample is None:
                    assert got.counterexample is None
                else:
                    assert (got.counterexample.input_vectors
                            == expected.counterexample.input_vectors)
                    assert (got.counterexample.window_start
                            == expected.counterexample.window_start)

    def test_statistics_match_serial_semantics(self, arbiter2_module):
        """Duplicates count as cache hits, checks count uniques — exactly
        like sequential ``check`` calls, so artifacts cannot depend on the
        execution mode."""
        assertions = random_assertions(arbiter2_module, 6, seed=4)
        serial = FormalVerifier(arbiter2_module, engine="tiered", bound=6,
                                induction_k=0)
        serial.check_all(assertions + assertions)
        parallel = FormalVerifier(arbiter2_module, engine="tiered", bound=6,
                                  induction_k=0, workers=2)
        try:
            parallel.check_all(assertions + assertions)
        finally:
            parallel.close()
        assert parallel.stats.checks == serial.stats.checks
        assert parallel.stats.cache_hits == serial.stats.cache_hits
        assert parallel.stats.true_count == serial.stats.true_count
        assert parallel.stats.false_count == serial.stats.false_count

    @pytest.mark.usefixtures("solver_only")
    def test_worker_reuse_counters_surface(self, arbiter2_module):
        verifier = FormalVerifier(arbiter2_module, engine="tiered", bound=6,
                                  induction_k=0, workers=2)
        try:
            verifier.check_all(random_assertions(arbiter2_module, 8, seed=9))
            # Per batch only the parent-side dispatch counters refresh (the
            # worker round trip is deferred to close()).
            assert verifier.stats.reuse["formal_workers"] == 2
            assert verifier.stats.reuse["dispatched"] == 8
        finally:
            verifier.close()
        # close() merges the workers' solver counters before stopping them.
        assert verifier.stats.reuse["queries"] > 0
        assert verifier.stats.reuse["dispatched"] == 8


class TestPoolLifecycle:
    def test_pool_restarts_after_close(self, arbiter2_module):
        assertions = random_assertions(arbiter2_module, 4, seed=2)
        pool = FormalWorkerPool(arbiter2_module, "tiered", BMC, workers=2)
        first = pool.check_batch(list(enumerate(assertions)))
        pool.close()
        assert not pool.started
        second = pool.check_batch(list(enumerate(assertions)))
        pool.close()
        assert [first[i].verdict for i in range(len(assertions))] == \
            [second[i].verdict for i in range(len(assertions))]

    def test_worker_engine_failure_propagates(self, arbiter2_module):
        pool = FormalWorkerPool(arbiter2_module, "no-such-engine", {}, workers=1)
        try:
            with pytest.raises(FormalEngineError):
                pool.check_batch([(0, random_assertions(arbiter2_module, 1)[0])])
            # The failed batch tears the pool down, so no stale queued
            # responses can be merged (by per-batch sequence id) into a
            # retried batch.
            assert not pool.started
        finally:
            pool.close()

    def test_daemonic_parent_falls_back_to_in_process(self, arbiter2_module,
                                                      monkeypatch):
        """Inside a daemonic pool job (python -m repro run --workers N)
        spawning children is forbidden; a workers>1 verifier must degrade
        to in-process checking with identical results, not crash."""
        monkeypatch.setattr(FormalVerifier, "_can_spawn_workers",
                            staticmethod(lambda: False))
        assertions = random_assertions(arbiter2_module, 6, seed=23)
        serial = FormalVerifier(arbiter2_module, engine="tiered", bound=6,
                                induction_k=0)
        verifier = FormalVerifier(arbiter2_module, engine="tiered", bound=6,
                                  induction_k=0, workers=4)
        try:
            results = verifier.check_all(assertions)
        finally:
            verifier.close()
        assert verifier._pool is None  # never even constructed
        for expected, got in zip(serial.check_all(assertions), results):
            assert got.verdict is expected.verdict

    def test_sigkill_mid_batch_recovers_identically(self, arbiter2_module):
        """An external SIGKILL on a worker that already holds a dispatched
        shard must not lose or corrupt the batch: the supervisor respawns
        the slot, requeues the shard, and the merged results match the
        serial engine field for field."""
        import os
        import signal

        from repro.formal.checker import build_engine

        assertions = random_assertions(arbiter2_module, 12, seed=23)
        engine = build_engine(arbiter2_module, "tiered", **BMC)
        baseline = [engine.check(a) for a in assertions]
        pool = FormalWorkerPool(arbiter2_module, "tiered", BMC, workers=2)
        try:
            pool.ensure_started()
            os.kill(pool._workers.slots[0].process.pid, signal.SIGKILL)
            results = pool.check_batch(list(enumerate(assertions)))
        finally:
            pool.close()
        assert pool.restarts == 1
        for sequence, expected in enumerate(baseline):
            got = results[sequence]
            assert got.verdict is expected.verdict
            if expected.counterexample is not None:
                assert (got.counterexample.input_vectors
                        == expected.counterexample.input_vectors)

    def test_sharding_is_deterministic_and_total(self, arbiter2_module):
        from repro.formal.proofcache import assertion_shard

        assertions = random_assertions(arbiter2_module, 20, seed=1)
        for workers in (1, 2, 4, 7):
            shards = [assertion_shard(a, workers) for a in assertions]
            assert shards == [assertion_shard(a, workers) for a in assertions]
            assert all(0 <= shard < workers for shard in shards)
        renamed = [a.with_name(f"other_{i}") for i, a in enumerate(assertions)]
        assert [assertion_shard(a, 4) for a in assertions] == \
            [assertion_shard(a, 4) for a in renamed]


# ----------------------------------------------------------------------
class TestClosureDifferential:
    """The acceptance contract: serial ≡ parallel ≡ cached closure runs."""

    DESIGNS = ("arbiter2", "cex_small", "b01")
    SEEDS = (0, 3)

    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_worker_counts_produce_identical_artifacts(self, design, seed):
        baseline = canonical(closure_artifact(design, seed, workers=1))
        for workers in (2, 4):
            assert canonical(closure_artifact(design, seed, workers=workers)) \
                == baseline

    @pytest.mark.parametrize("design", DESIGNS)
    def test_cold_and_warm_proof_cache_identical(self, design, tmp_path):
        seed = 3
        baseline = canonical(closure_artifact(design, seed))
        cache_file = str(tmp_path / "proofs.json")
        cold = closure_artifact(design, seed, workers=2, proof_cache=cache_file)
        assert canonical(cold) == baseline
        # Second run in the same process: warm from the shared instance.
        warm = closure_artifact(design, seed, workers=2, proof_cache=cache_file)
        assert canonical(warm) == baseline
        # Third run after dropping the in-memory registry: warm from disk.
        ProofCache.reset_shared()
        disk = closure_artifact(design, seed, workers=2, proof_cache=cache_file)
        assert canonical(disk) == baseline
        cache = ProofCache.resolve(cache_file)
        assert cache.hits > 0

    def test_bmc_closure_identical_across_modes(self):
        """Plain BMC (``tiered`` at ``induction_k=0``) across worker counts
        and proof-cache states."""
        seed = 1
        bmc = {"engine": "tiered", "induction_k": 0, "max_iterations": 6}
        baseline = canonical(closure_artifact("arbiter2", seed, **bmc))
        for workers in (2, 4):
            assert canonical(closure_artifact("arbiter2", seed, workers=workers,
                                              **bmc)) == baseline
        cold = closure_artifact("arbiter2", seed, workers=2, proof_cache=True,
                                **bmc)
        warm = closure_artifact("arbiter2", seed, workers=2, proof_cache=True,
                                **bmc)
        assert canonical(cold) == baseline
        assert canonical(warm) == baseline

    def test_tiered_closure_identical_across_worker_counts(self):
        """The unbounded proof tier rides the same worker protocol: for
        the ``tiered`` engine, serial and parallel {1,2,4} runs must
        produce byte-identical deterministic artifacts — proof strengths
        included, since ``proof_strength`` is part of the verdict payload
        ``deterministic_json`` keeps."""
        seed = 1
        baseline = canonical(closure_artifact("arbiter2", seed, engine="tiered",
                                              max_iterations=6))
        for workers in (1, 2, 4):
            assert canonical(closure_artifact("arbiter2", seed, engine="tiered",
                                              workers=workers,
                                              max_iterations=6)) == baseline

    def test_proof_strength_survives_sharding(self, arbiter4_module):
        """Worker pools pickle whole ``CheckResult`` objects, so each
        verdict's proof strength must cross the protocol unchanged for
        every worker count — and the corpus must actually contain
        unbounded proofs for this to mean anything."""
        from repro.formal.result import PROOF_UNBOUNDED

        assertions = random_assertions(arbiter4_module, 18, seed=101)
        serial = FormalVerifier(arbiter4_module, engine="tiered", bound=8)
        baseline = serial.check_all(assertions)
        assert any(result.proof_strength == PROOF_UNBOUNDED
                   for result in baseline)
        for workers in (2, 4):
            verifier = FormalVerifier(arbiter4_module, engine="tiered", bound=8,
                                      workers=workers)
            try:
                results = verifier.check_all(assertions)
            finally:
                verifier.close()
            for expected, got in zip(baseline, results):
                assert got.verdict is expected.verdict
                assert got.proof_strength == expected.proof_strength
                assert got.details.get("induction_k") \
                    == expected.details.get("induction_k")

    def test_proof_strength_part_of_deterministic_artifact(self):
        document = closure_artifact("arbiter2", 1, engine="tiered",
                                    max_iterations=6)
        strengths = document["proof_strength"]
        assert strengths  # a converged tiered run proves/passes something
        assert set(strengths.values()) <= {"bounded", "unbounded"}
        restored = ClosureResult.from_json(document)
        assert restored.proof_strength == strengths

    def test_deterministic_json_round_trips(self):
        """The deterministic artifact stays loadable by ``from_json`` (the
        stripped fields fall back to their defaults)."""
        document = closure_artifact("arbiter2", 0)
        restored = ClosureResult.from_json(document)
        assert restored.formal_seconds == 0.0
        assert restored.formal_reuse == {}
        assert canonical(restored.deterministic_json()) == canonical(document)
