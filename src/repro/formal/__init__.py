"""Formal verification engines (GoldMine's "formal verifier" component).

Three independent back ends can check a mined candidate assertion against
the design and produce a counterexample input sequence from reset when it
fails:

* :mod:`repro.formal.explicit` — explicit-state reachability plus bounded
  path checking.  Exact for the small designs the paper evaluates; this is
  the default engine of the refinement loop.
* :mod:`repro.formal.induction` — the ``tiered`` SAT engine, built on the
  in-house CDCL solver: the depth-0 inductive step runs first and proves
  most true candidates without a from-reset query; otherwise the bounded
  search of :mod:`repro.formal.bmc` falsifies, then strengthened
  k-induction on the same persistent contexts escalates from depth 1 to
  ``induction_k`` for proof (``induction_k=0`` is plain BMC with
  one-step induction, the :class:`~repro.formal.bmc.BmcModelChecker`
  baseline).  Every check
  runs on the assertion's cone-of-influence slice (:mod:`repro.ir`) with
  one persistent solver context per slice: each query encodes its goal,
  then assumes the goal's literals; learned clauses carry across the
  whole candidate batch.  Every result carries a ``proof_strength``
  (``unbounded`` for real proofs, ``bounded`` for survived-the-search
  verdicts) that flows through the worker protocol, the proof cache and
  the closure-result JSON.
* :mod:`repro.formal.bdd_engine` — BDD-based symbolic reachability with
  ring-by-ring counterexample reconstruction.

:class:`repro.formal.checker.FormalVerifier` is the facade the rest of the
library uses; it selects an engine and keeps per-run statistics (number of
checks, counterexamples, cumulative time) mirroring the runtime discussion
in Section 7 of the paper.

Two scaling layers sit behind the facade (PR 5):

* :mod:`repro.formal.parallel` — a pool of persistent verification worker
  processes; batches are sharded by a deterministic hash of each
  candidate's canonical form and merged back in submission order, with
  results identical to the serial engine for every worker count
  (``FormalVerifier(workers=N)`` / ``GoldMineConfig.formal_workers``).
* :mod:`repro.formal.proofcache` — cross-run verdict reuse keyed by
  (design content hash, canonical assertion, engine configuration),
  shared in-memory and optionally persisted to disk
  (``GoldMineConfig.formal_proof_cache``).

Every engine reports **canonical counterexamples** — a pure function of
(design, assertion, engine configuration), independent of solver history —
which is the invariant both layers rest on.

The execution layer is fault-tolerant: the worker pool runs on the
shared supervised substrate (:mod:`repro.workers`) — dead/wedged workers
are respawned with their shard deterministically requeued, within a
bounded per-slot restart budget, then served by an in-process fallback
— every query can carry a wall-clock deadline
(``GoldMineConfig.formal_query_timeout`` — expiry yields an uncached
``timed_out`` UNKNOWN; a timed-out inductive step of ``tiered`` still
lets the bounded search finish, on a fresh budget after step 0, so a
check takes at most two budgets), and :mod:`repro.chaos` replays pinned
fault schedules to prove recovered runs byte-identical to clean ones.
"""

from repro.formal.bmc import BmcModelChecker
from repro.formal.checker import FormalVerifier, VerifierStatistics, build_engine
from repro.formal.explicit import ExplicitModelChecker
from repro.formal.induction import KInductionModelChecker
from repro.formal.parallel import FormalWorkerPool
from repro.formal.proofcache import (
    ProofCache,
    canonical_assertion_key,
    design_fingerprint,
)
from repro.formal.result import (
    PROOF_BOUNDED,
    PROOF_UNBOUNDED,
    CheckResult,
    Counterexample,
    FormalEngineError,
)
from repro.formal.statespace import StateSpace

__all__ = [
    "BmcModelChecker",
    "CheckResult",
    "Counterexample",
    "ExplicitModelChecker",
    "FormalEngineError",
    "FormalVerifier",
    "FormalWorkerPool",
    "KInductionModelChecker",
    "PROOF_BOUNDED",
    "PROOF_UNBOUNDED",
    "ProofCache",
    "StateSpace",
    "VerifierStatistics",
    "build_engine",
    "canonical_assertion_key",
    "design_fingerprint",
]
