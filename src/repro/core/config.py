"""Configuration shared by the GoldMine engine and the refinement loop."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping


@dataclass
class GoldMineConfig:
    """Tuning knobs for mining and refinement.

    Attributes mirror the concepts discussed in the paper:

    * ``window`` — the mining window length (Section 2.1): the number of
      observed cycles an assertion's antecedent may span.
    * ``max_depth`` — optional cap on decision-tree depth, i.e. on the
      number of propositions per assertion ("incremental refinement only
      applied up to a certain depth", Section 7.1).
    * ``include_internal_state`` — whether registers/internal signals are
      visible to the miner (Section 3.1's "flat single-cycle picture").
    * ``engine`` — formal back end: ``explicit`` (exact, default), ``bmc``
      (incremental SAT on each assertion's cone-of-influence slice),
      ``k-induction`` (BMC base case + simple-path inductive step, proves
      assertions *unbounded*), ``tiered`` (portfolio: BMC falsification
      tier, then induction escalation for proof) or ``bdd``.
    * ``bound`` — search depth of the SAT engines (at least 1; raised to
      the assertion's span when shorter).
    * ``induction_k`` — maximum induction depth for the ``k-induction``
      and ``tiered`` engines (ignored by the others).  Larger values
      prove more assertions at the cost of deeper step queries.
    * ``max_iterations`` — safety bound on counterexample iterations.
    * ``max_states`` / ``max_input_combinations`` — explicit-engine
      limits on reachable states and on enumerated input vectors per
      step (both at least 1).
    * ``formal_workers`` — process parallelism of the formal stage: ``1``
      checks candidates in-process, ``N > 1`` shards every batch across
      ``N`` persistent model-checking worker processes
      (:mod:`repro.formal.parallel`).  Results — verdicts *and*
      counterexamples — are identical for every worker count; only the
      wall clock changes.
    * ``formal_proof_cache`` — cross-run verdict reuse
      (:mod:`repro.formal.proofcache`): ``False`` disables it, ``True``
      shares verdicts in-memory between every run in the process, a path
      string additionally persists them to that JSON file (conventionally
      under ``artifacts/``) so sweeps across seeds/jobs stop re-proving
      identical candidates.  Cache hits reproduce byte-identical results.
    * ``formal_query_timeout`` — optional wall-clock budget in seconds
      for each individual formal query (``None`` = unbounded, the
      default).  On expiry the SAT engines abandon the query and report
      an UNKNOWN-style result flagged ``timed_out`` — never cached or
      memoised, since more budget might have produced a verdict — and
      the ``tiered``/``k-induction`` engines degrade the unbounded proof
      tier to plain bounded search before giving up.  Enforced
      identically in-process and inside worker processes.

    The seed and every counterexample are replayed on the compiled
    :class:`~repro.sim.simulator.Simulator`.
    """

    #: Read-only constants, not fields: the closure benchmark
    #: (``perfbench/workloads.py``) still passes ``config.sim_engine`` and
    #: ``config.sim_lanes`` to :class:`~repro.coverage.runner.CoverageRunner`.
    #: They exist only for that line.
    sim_engine: ClassVar[str] = "scalar"
    sim_lanes: ClassVar[int] = 1

    window: int = 1
    max_depth: int | None = None
    include_internal_state: bool = True
    engine: str = "explicit"
    bound: int = 10
    induction_k: int = 8
    max_iterations: int = 64
    max_states: int = 50_000
    max_input_combinations: int = 4_096
    formal_workers: int = 1
    formal_proof_cache: bool | str = False
    formal_query_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth cannot be negative")
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")
        if self.max_input_combinations < 1:
            raise ValueError("max_input_combinations must be at least 1")
        if self.formal_workers < 1:
            raise ValueError("formal_workers must be at least 1")
        if self.formal_query_timeout is not None and self.formal_query_timeout <= 0:
            raise ValueError("formal_query_timeout must be positive when set")
        if self.induction_k < 0:
            raise ValueError("induction_k cannot be negative")
        from repro.formal.checker import FormalVerifier

        if self.engine not in FormalVerifier.ENGINES:
            raise ValueError(
                f"engine must be one of {FormalVerifier.ENGINES}, got '{self.engine}'"
            )
        if self.bound < 1:
            raise ValueError("bound must be at least 1")

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Plain-dict form recorded in run manifests (see :mod:`repro.runner`)."""
        from dataclasses import asdict

        return asdict(self)

    @staticmethod
    def from_json(data: Mapping) -> "GoldMineConfig":
        """Rebuild a config from :meth:`to_json` output (unknown keys ignored,
        so manifests written by newer versions, and the retired miner, IR,
        random-data-generator and simulation-engine fields of older ones,
        still load)."""
        from dataclasses import fields

        known = {f.name for f in fields(GoldMineConfig)}
        return GoldMineConfig(**{k: v for k, v in dict(data).items() if k in known})
