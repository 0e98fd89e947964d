"""Closure-job rosters, their execution, and the correctness oracle.

A *closure job* is what the ``sweep`` experiment runs for one (design,
seed) pair: build the design, run :meth:`CoverageClosure.run` on the
generated seed stimulus, then measure the refined suite's coverage with
:class:`CoverageRunner`.  Each workload is a roster of such jobs under one
:class:`GoldMineConfig`.  Rosters are generated from the workload seed
before any timing starts; a job receives only its stimulus vectors.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field

from repro.assertions.evaluate import assertion_holds_on_trace
from repro.core.config import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.coverage.runner import CoverageRunner
from repro.designs import design_names, info
from repro.sim.simulator import Simulator

#: Coverage kinds averaged into ``suite_coverage_pct``.
COVERAGE_KINDS = ("line", "branch", "cond", "expr", "toggle", "fsm")

#: Configs are plain dicts rebuilt with ``GoldMineConfig.from_json``, which
#: ignores unknown keys: once an engine knob is retired from the config,
#: the workload keeps running on the one remaining production path.
PAPER_DEFAULT = {"engine": "explicit", "sim_engine": "scalar",
                 "mine_engine": "rowwise", "max_iterations": 24}
#: One formal worker: with two, the workers and a neighbour share two
#: vCPUs, and the slowdown that causes escapes the single-process host
#: probe the timings are scaled by, so the worker pool goes unmeasured.
FAST_STACK = {"engine": "tiered", "sim_engine": "batched", "sim_lanes": 64,
              "mine_engine": "columnar", "ir_opt": True, "formal_workers": 1,
              "max_iterations": 24}

#: State-bearing designs of the fig16/table3 random-seeding method.
STATEFUL_DESIGNS = ("arbiter4", "b01", "b06", "b12", "fetch", "wbstage",
                    "counter_block")
#: Designs whose short-seeded exact closure cost swings with the seed
#: (decode: 1.3-4.0 s over five seeds), which would swamp the sweep time.
EXACT_ZERO_SEED_ONLY = ("decode",)
#: Deeper exact jobs the explicit engine still finishes (design, window).
#: arbiter4 at window 2 (4-6 s) is left out: it held a run to two passes,
#: too few runs per job for a steady median.
EXACT_DEEP = (("b12", 2), ("counter_block", 2), ("b01", 3), ("b06", 3))
#: Designs left out of the SAT stack's roster: their jobs take 1.3-2.5 s at
#: window 2 and 2-60 s at window 3, and held a run to two passes.
SAT_SKIP = ("arbiter4", "b12", "decode")

SHORT_SEED_CYCLES = 10
#: Enough seeded jobs that the median job lies inside a cluster of
#: similar jobs whatever the seed, not in a gap between two clusters.
SHORT_SEEDS_PER_DESIGN = 4
LONG_SEED_CYCLES = 2000
LONG_SEEDS_PER_DESIGN = 4


@dataclass(frozen=True)
class Job:
    design: str
    window: int
    #: From-reset seed stimulus; empty for a zero-seed job.
    vectors: tuple = ()

    @property
    def label(self) -> str:
        return f"{self.design}/w{self.window}/seed{len(self.vectors)}"


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    jobs: tuple[Job, ...]


def random_vectors(design: str, cycles: int, seed: int) -> tuple:
    """Uniform random data-input vectors for ``design`` (the data generator)."""
    module = info(design).build()
    rng = random.Random(seed)
    return tuple(
        tuple((name, rng.randrange(1 << module.width_of(name)))
              for name in module.data_input_names)
        for _ in range(cycles))


def build_workload(name: str, seed: int) -> Workload:
    """The job roster of workload ``name`` for workload seed ``seed``."""
    rng = random.Random(f"{name}:{seed}")

    def seeded(design: str, window: int, cycles: int) -> Job:
        return Job(design, window,
                   random_vectors(design, cycles, rng.randrange(1 << 30)))

    if name == "exact-closure":
        jobs = [Job(d, info(d).window) for d in design_names()]
        jobs += [seeded(d, info(d).window, SHORT_SEED_CYCLES)
                 for d in design_names() if d not in EXACT_ZERO_SEED_ONLY
                 for _ in range(SHORT_SEEDS_PER_DESIGN)]
        jobs += [Job(d, w) for d, w in EXACT_DEEP]
        return Workload(name, PAPER_DEFAULT, tuple(jobs))
    if name == "sat-closure":
        # Zero-seed jobs only, so the roster is the same for every seed:
        # short seeded jobs on this stack moved the median job by up to
        # 40% from seed to seed.  Seeded closure runs on the other two.
        # The cheap window-1 jobs bring the roster to 30, so the tail
        # percentile (ten jobs beyond it) lies above the median.
        jobs = [Job(d, w) for d in design_names() if d not in SAT_SKIP
                for w in (1, 2, 3)]
        return Workload(name, FAST_STACK, tuple(jobs))
    if name == "random-seeded":
        jobs = [seeded(d, info(d).window, LONG_SEED_CYCLES)
                for d in STATEFUL_DESIGNS
                for _ in range(LONG_SEEDS_PER_DESIGN)]
        return Workload(name, PAPER_DEFAULT, tuple(jobs))
    if name == SMOKE:
        jobs = [Job("arbiter2", 2), seeded("b01", 2, SHORT_SEED_CYCLES)]
        return Workload(name, FAST_STACK, tuple(jobs))
    raise KeyError(f"unknown workload '{name}'")


WORKLOADS = ("exact-closure", "sat-closure", "random-seeded")
#: Two-job roster on the fast stack, used only by ``selftest.py``.
SMOKE = "smoke"


@dataclass
class JobRun:
    """What one executed closure job produced, and its latency."""

    seconds: float
    result: object
    stats: object
    report: object
    rows: int
    coverage_cycles: int


@dataclass
class JobOutcome:
    """Compact record of one job kept for the whole run.

    Only digests, counts and verdicts are kept: holding every pass's
    results alive would grow the heap pass by pass and slow the garbage
    collector inside later jobs.
    """

    job: Job
    seconds: float
    cpu: float = 0.0
    #: Host-speed probe seconds measured right before the job ran.
    probe: float = 0.0
    digest: str = "error"
    error: str | None = None
    #: Set by the :class:`Oracle`; ``None`` means the job passed.
    violation: str | None = None
    quality: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    #: ``formal_reuse`` entries carrying worker span totals (traced runs).
    worker_spans: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None or self.violation is not None


def run_job(job: Job, config: GoldMineConfig) -> JobRun:
    """Execute one closure job; the returned latency covers all of it."""
    meta = info(job.design)
    seed = [dict(vector) for vector in job.vectors] or None
    start = time.perf_counter()
    module = meta.build()
    closure = CoverageClosure(module, outputs=list(meta.mining_outputs) or None,
                              config=config)
    result = closure.run(seed)
    runner = CoverageRunner(meta.build(), fsm_signals=meta.fsm_signals or None,
                            engine=config.sim_engine, lanes=config.sim_lanes)
    runner.run_suite(result.test_suite)
    report = runner.report()
    seconds = time.perf_counter() - start
    rows = sum(len(context.tree.dataset) for context in closure.contexts)
    return JobRun(seconds, result, closure.verifier.stats, report, rows,
                  runner.cycles_run)


def job_config(workload: Workload, job: Job) -> GoldMineConfig:
    return GoldMineConfig.from_json({**workload.config, "window": job.window})


# ----------------------------------------------------------------------
# outputs of a job: digest, quality, work counters
# ----------------------------------------------------------------------
def result_digest(result) -> str:
    text = json.dumps(result.deterministic_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def quality(run: JobRun) -> dict:
    result, report = run.result, run.report
    kinds = [report.get(kind) for kind in COVERAGE_KINDS
             if report.get(kind) is not None]
    return {
        "input_space_pct": 100.0 * result.input_space_coverage(),
        "suite_coverage_pct": sum(kinds) / len(kinds),
        "converged": int(result.converged),
        "suite_cycles": result.total_test_cycles(),
    }


def work_counters(run: JobRun, skip_prefix: str) -> dict:
    """Deterministic work counts of one job (formal, SAT, IR, loop, data).

    Keys starting with ``skip_prefix`` are tracing side-channel entries
    merged in from worker processes, not program counters.
    """
    result, stats = run.result, run.stats
    counters = {key: value for key, value in result.formal_reuse.items()
                if not key.startswith(skip_prefix)}
    counters.update({
        "checks": stats.checks, "true": stats.true_count,
        "false": stats.false_count, "unknown": stats.unknown_count,
        "dedup_hits": stats.cache_hits,
        "iterations": result.iteration_count,
        "counterexamples": sum(r.counterexamples for r in result.iterations),
        "candidates": sum(r.candidates_checked for r in result.iterations),
        "mining_rows": run.rows,
        "coverage_cycles": run.coverage_cycles,
    })
    return counters


# ----------------------------------------------------------------------
# correctness oracle
# ----------------------------------------------------------------------
def oracle_violation(design: str, result) -> str | None:
    """Replay the refined suite on the scalar simulator and check every
    accepted assertion on every replayed trace.

    Returns a description of the first violation, or ``None``.
    """
    simulator = Simulator(info(design).build())
    assertions = result.all_true_assertions
    for index, sequence in enumerate(result.test_suite):
        trace = simulator.run_vectors(sequence)
        for assertion in assertions:
            if not assertion_holds_on_trace(assertion, trace):
                return (f"assertion {assertion.name or assertion.describe()} "
                        f"violated by suite sequence {index}")
    return None


class Oracle:
    """Checks job results, memoised by result digest.

    Identical deterministic results get identical verdicts, so a digest
    already checked in an earlier pass is not replayed again.
    """

    def __init__(self):
        self._verdicts: dict[tuple[str, str], str | None] = {}

    def check(self, design: str, result, digest: str) -> str | None:
        """The violation found in ``result``, or ``None`` if it passes."""
        key = (design, digest)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = oracle_violation(design, result)
            except Exception as exc:  # noqa: BLE001 - any crash fails the job
                self._verdicts[key] = f"oracle raised {exc!r}"
        return self._verdicts[key]
