"""Declarative experiment registry for the parallel runner.

An :class:`ExperimentSpec` turns one paper figure/table driver (or an
ad-hoc sweep) into a declarative description the orchestration layer can
schedule:

* ``expand(options)`` decomposes the experiment into independent
  :class:`JobSpec` jobs — one per (design × seed × config) closure run
  wherever the driver iterates over designs — so a worker pool can fan
  them out.
* ``execute(params)`` runs one job in the current process and returns a
  JSON-serializable payload shard (an
  :class:`repro.experiments.common.ExperimentResult` dict) plus the number
  of simulated test cycles.  Payloads must be deterministic for fixed
  params: the serial and parallel paths are required to produce identical
  artifact JSON (modulo wall-clock fields, which live in the job record,
  not the payload).

Only ``(experiment_name, job_id, params)`` tuples cross process
boundaries; each worker resolves the spec in its own interpreter, so
specs may carry arbitrary callables.  The pool uses the ``fork`` start
method where available so specs registered at runtime are inherited by
workers; under ``spawn`` (Windows) only the import-time built-ins
resolve in children.

The built-in specs (every paper artifact plus the ``sweep`` experiment)
are registered on first lookup by importing :mod:`repro.runner.specs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence


@dataclass(frozen=True)
class JobSpec:
    """One independent unit of work: a single closure/coverage run.

    ``job_id`` is stable across runs (it keys checkpoint records, so a
    resumed run can skip completed jobs) and unique within an experiment.
    ``params`` must be picklable and JSON-serializable.
    """

    experiment: str
    job_id: str
    params: Mapping

    def task(self) -> tuple[str, str, dict]:
        """The picklable form shipped to pool workers."""
        return (self.experiment, self.job_id, dict(self.params))


@dataclass
class RunOptions:
    """User-facing knobs shared by every experiment (the CLI flags).

    ``engine``/``lanes`` select the simulation back end threaded through
    every driver (see ``GoldMineConfig.sim_engine``); ``formal_engine``
    selects the formal back end the refinement loop verifies candidates
    with (``explicit``, ``bmc`` — the incremental SAT path,
    ``k-induction``, ``tiered``, ``bdd``); ``induction_k`` caps the
    induction depth of the two unbounded-proof engines (ignored by the
    rest); ``formal_workers`` fans each run's candidate batches out to
    that many persistent verification worker processes
    (``GoldMineConfig.formal_workers`` — results are identical for every
    count, see :mod:`repro.formal.parallel`); ``formal_timeout`` caps
    each individual formal query's wall clock in seconds (expired
    queries come back as uncached, ``timed_out`` UNKNOWNs, and the
    unbounded-proof engines degrade to bounded search first — see
    ``GoldMineConfig.formal_query_timeout``); ``proof_cache`` enables
    cross-run verdict reuse (``True`` for in-memory sharing, a path to
    persist under ``artifacts/``, see :mod:`repro.formal.proofcache`);
    ``smoke`` shrinks workloads to seconds for CI and doc
    checks; ``designs``/``seeds`` restrict or parameterize the job matrix
    where an experiment iterates over designs; ``max_iterations``
    overrides the refinement budget.
    """

    engine: str = "scalar"
    lanes: int = 64
    formal_engine: str = "explicit"
    induction_k: int = 8
    formal_workers: int = 1
    formal_timeout: float | None = None
    proof_cache: bool | str = False
    smoke: bool = False
    designs: tuple[str, ...] | None = None
    seeds: tuple[int, ...] = (0,)
    seed_cycles: int | None = None
    max_iterations: int | None = None

    def identity(self) -> dict:
        """The option values in effect, recorded in the run manifest.

        Informational: resume compatibility is decided by the expanded
        job set's signature (see
        :func:`repro.runner.checkpoint.jobs_signature`), so a flag an
        experiment ignores never blocks a resume.
        """
        return {
            "engine": self.engine,
            "lanes": self.lanes,
            "formal_engine": self.formal_engine,
            "induction_k": self.induction_k,
            "formal_workers": self.formal_workers,
            "formal_timeout": self.formal_timeout,
            "proof_cache": self.proof_cache,
            "smoke": self.smoke,
            "designs": list(self.designs) if self.designs is not None else None,
            "seeds": list(self.seeds),
            "seed_cycles": self.seed_cycles,
            "max_iterations": self.max_iterations,
        }

    def pick_designs(self, default: Sequence[str],
                     smoke_subset: Sequence[str] | None = None) -> list[str]:
        """Design list for expansion: explicit > smoke subset > default.

        Duplicates are dropped (first occurrence wins) — job ids must be
        unique within a run or the checkpoint would double-count.
        """
        if self.designs is not None:
            chosen = self.designs
        elif self.smoke and smoke_subset is not None:
            chosen = smoke_subset
        else:
            chosen = default
        return list(dict.fromkeys(chosen))


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry: how to shard and execute one experiment."""

    name: str
    description: str
    artifact: str
    expand: Callable[[RunOptions], "list[JobSpec]"]
    execute: Callable[[Mapping], "tuple[dict, int]"]
    #: Rough full-scale wall-clock on one worker, shown by ``repro list``.
    runtime_hint: str = ""


_REGISTRY: dict[str, ExperimentSpec] = {}
_BUILTIN_LOADED = False


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Register an experiment spec (last registration wins)."""
    _REGISTRY[spec.name] = spec
    return spec


def _ensure_builtin() -> None:
    global _BUILTIN_LOADED
    if not _BUILTIN_LOADED:
        _BUILTIN_LOADED = True
        import repro.runner.specs  # noqa: F401  (registers on import)


def get_experiment(name: str) -> ExperimentSpec:
    _ensure_builtin()
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment '{name}'; available: {experiment_names()}"
        ) from exc


def experiment_names() -> list[str]:
    _ensure_builtin()
    return sorted(_REGISTRY)
