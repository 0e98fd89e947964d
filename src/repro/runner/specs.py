"""Built-in experiment specs: every paper figure/table as a sharded job set.

Each spec wraps one driver module from :mod:`repro.experiments`.  Where a
driver iterates over designs (fig13/fig14/fig16, table1/table3, the engine
ablation), expansion emits one job per design so the pool can run them in
parallel; single-subject drivers stay one job.  A job's params are exactly
its driver's ``run()`` keyword arguments (the ``"config"`` param carries
:meth:`GoldMineConfig.to_json`), so one executor serves every spec: it
calls ``run(**params)`` and returns the result's
:meth:`~repro.experiments.common.ExperimentResult.to_json` payload and its
test cycles.  Aggregation is therefore uniform too (see
:mod:`repro.runner.report`).

The ``sweep`` experiment is the ad-hoc entry point: a (design × seed)
matrix of coverage-closure runs over any registered designs, for scaling
studies that have no paper counterpart.
"""

from __future__ import annotations

import importlib
from functools import partial
from typing import Mapping

from repro.core.config import GoldMineConfig
from repro.runner.registry import ExperimentSpec, JobSpec, RunOptions, register


def _run_driver(driver: str, params: Mapping) -> tuple[dict, int]:
    """Execute one job of any spec: ``repro.experiments.<driver>.run(**params)``
    with the ``"config"`` param rebuilt into a :class:`GoldMineConfig`."""
    kwargs = dict(params)
    kwargs["config"] = GoldMineConfig.from_json(kwargs["config"])
    result = importlib.import_module(f"repro.experiments.{driver}").run(**kwargs)
    return result.as_experiment_result().to_json(), result.test_cycles()


def _iterations(options: RunOptions, full: int, smoke: int) -> int:
    if options.max_iterations is not None:
        return options.max_iterations
    return smoke if options.smoke else full


def _reject_designs(options: RunOptions, experiment: str, fixed: str) -> None:
    """Fixed-subject experiments must not silently ignore ``--designs``."""
    if options.designs is not None and set(options.designs) != {fixed}:
        raise KeyError(
            f"{experiment} always runs on '{fixed}'; --designs cannot "
            f"change its subject (got {list(options.designs)})")


def _job(experiment: str, subject: str, options: RunOptions, **params) -> JobSpec:
    """The job ``<experiment>/<subject>``: its params are the driver's
    ``run()`` kwargs plus the run's engine config."""
    return JobSpec(experiment, f"{experiment}/{subject}",
                   {**params, "config": options.config.to_json()})


# ----------------------------------------------------------------------
# fig12 — arbiter coverage by counterexample iteration
# ----------------------------------------------------------------------
def _fig12_expand(options: RunOptions) -> list[JobSpec]:
    _reject_designs(options, "fig12", "arbiter2")
    return [_job("fig12", "arbiter2", options, window=2,
                 max_iterations=_iterations(options, 16, 8))]


# ----------------------------------------------------------------------
# fig13 — design-space coverage by iteration (one job per subject)
# ----------------------------------------------------------------------
def _fig13_expand(options: RunOptions) -> list[JobSpec]:
    from repro.experiments.fig13_design_space import DEFAULT_SUBJECTS

    # One job per (design, output) subject; a design may contribute
    # several subjects, so group them rather than keying by design alone.
    by_design: dict[str, list[tuple[str, str, str]]] = {}
    for design, output, group in DEFAULT_SUBJECTS:
        by_design.setdefault(design, []).append((design, output, group))
    designs = options.pick_designs(list(by_design),
                                   smoke_subset=("cex_small", "arbiter2"))
    return [_job("fig13", f"{design}.{output}", options,
                 subjects=[[design, output, group]], seed_cycles=4, random_seed=1,
                 max_iterations=_iterations(options, 20, 12))
            for name in designs for design, output, group in by_design[name]]


# ----------------------------------------------------------------------
# fig14 — expression coverage by iteration (one job per design)
# ----------------------------------------------------------------------
def _fig14_expand(options: RunOptions) -> list[JobSpec]:
    from repro.experiments.fig14_expression import DEFAULT_SUBJECTS

    designs = options.pick_designs(DEFAULT_SUBJECTS,
                                   smoke_subset=("cex_small", "arbiter2"))
    return [_job("fig14", design, options, subjects=[design], seed_cycles=3,
                 random_seed=3, max_iterations=_iterations(options, 20, 12))
            for design in designs]


# ----------------------------------------------------------------------
# fig15 — improving an already-high-coverage block
# ----------------------------------------------------------------------
def _fig15_expand(options: RunOptions) -> list[JobSpec]:
    _reject_designs(options, "fig15", "wbstage")
    return [_job("fig15", "wbstage", options, design_name="wbstage",
                 random_cycles=15 if options.smoke else 30, random_seed=2,
                 max_iterations=_iterations(options, 16, 8))]


# ----------------------------------------------------------------------
# fig16 — random vs GoldMine coverage on ITC'99-style designs
# ----------------------------------------------------------------------
def _fig16_expand(options: RunOptions) -> list[JobSpec]:
    from repro.experiments.fig16_itc99 import DEFAULT_CYCLES

    designs = options.pick_designs(list(DEFAULT_CYCLES),
                                   smoke_subset=("b01", "b02"))
    return [_job("fig16", design, options, designs=[design],
                 cycles={design: DEFAULT_CYCLES.get(design, 100)},
                 random_seed=13, goldmine_seed_cycles=25,
                 max_iterations=_iterations(options, 16, 10), max_depth=8)
            for design in designs]


# ----------------------------------------------------------------------
# table1 — zero-initial-patterns limit study (one job per output)
# ----------------------------------------------------------------------
def _table1_expand(options: RunOptions) -> list[JobSpec]:
    from repro.experiments.table1_zero_seed import DEFAULT_SUBJECTS

    by_design: dict[str, list[tuple[str, str]]] = {}
    for design, output in DEFAULT_SUBJECTS:
        by_design.setdefault(design, []).append((design, output))
    designs = options.pick_designs(list(by_design), smoke_subset=("arbiter2",))
    return [_job("table1", f"{design}.{output}", options,
                 subjects=[[design, output]],
                 max_iterations=_iterations(options, 24, 16))
            for name in designs for design, output in by_design[name]]


# ----------------------------------------------------------------------
# table2 — fault detection by the mined assertion suite
# ----------------------------------------------------------------------
def _table2_expand(options: RunOptions) -> list[JobSpec]:
    _reject_designs(options, "table2", "fetch")
    return [_job("table2", "fetch", options, design_name="fetch",
                 seed_cycles=12 if options.smoke else 30, random_seed=7,
                 max_iterations=_iterations(options, 16, 8), mode="formal")]


# ----------------------------------------------------------------------
# table3 — directed/random vs GoldMine on Rigel modules (job per module)
# ----------------------------------------------------------------------
def _table3_expand(options: RunOptions) -> list[JobSpec]:
    from repro.experiments.table3_rigel import DEFAULT_MODULES

    designs = options.pick_designs(DEFAULT_MODULES, smoke_subset=("wbstage",))
    return [_job("table3", design, options, modules=[design],
                 baseline_cycles=200 if options.smoke else 1_000, baseline_seed=11,
                 max_iterations=_iterations(options, 16, 10))
            for design in designs]


# ----------------------------------------------------------------------
# walkthrough — the Section 6 worked example
# ----------------------------------------------------------------------
def _walkthrough_expand(options: RunOptions) -> list[JobSpec]:
    _reject_designs(options, "walkthrough", "arbiter2")
    return [_job("walkthrough", "arbiter2", options, window=2,
                 max_iterations=_iterations(options, 16, 8))]


# ----------------------------------------------------------------------
# ablation: incremental vs rebuilt decision trees
# ----------------------------------------------------------------------
def _ablation_incremental_expand(options: RunOptions) -> list[JobSpec]:
    _reject_designs(options, "ablation-incremental", "arbiter4")
    return [_job("ablation-incremental", "arbiter4", options,
                 design_name="arbiter4", output="gnt0",
                 seed_cycles=8 if options.smoke else 12, random_seed=5,
                 max_iterations=_iterations(options, 24, 14))]


# ----------------------------------------------------------------------
# ablation: formal engine comparison (one job per design)
# ----------------------------------------------------------------------
def _ablation_engines_expand(options: RunOptions) -> list[JobSpec]:
    designs = options.pick_designs(("arbiter2", "arbiter4", "b01"),
                                   smoke_subset=("arbiter2",))
    return [_job("ablation-engines", design, options, designs=[design],
                 seed_cycles=10, random_seed=9,
                 max_iterations=_iterations(options, 16, 10), bmc_bound=8,
                 max_assertions_per_design=10 if options.smoke else 40)
            for design in designs]


# ----------------------------------------------------------------------
# sweep — ad-hoc (design × seed) closure matrix
# ----------------------------------------------------------------------
def _sweep_expand(options: RunOptions) -> list[JobSpec]:
    from repro.designs import design_names

    designs = options.pick_designs(design_names(), smoke_subset=("arbiter2",))
    seed_cycles = options.seed_cycles if options.seed_cycles is not None else \
        (10 if options.smoke else 25)
    return [_job("sweep", f"{design}/seed{seed}", options, design=design,
                 seed=seed, seed_cycles=seed_cycles,
                 max_iterations=_iterations(options, 24, 12))
            for design in designs for seed in options.seeds]


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------
def _builtin(name: str, artifact: str, description: str, driver: str,
             expand, runtime_hint: str) -> None:
    register(ExperimentSpec(name=name, artifact=artifact, description=description,
                            expand=expand, execute=partial(_run_driver, driver),
                            runtime_hint=runtime_hint))


_builtin("fig12", "Figure 12", "Arbiter input-space/expression coverage by iteration",
         "fig12_arbiter", _fig12_expand, "~1 s")
_builtin("fig13", "Figure 13", "Design-space coverage by iteration, five designs",
         "fig13_design_space", _fig13_expand, "~1 s")
_builtin("fig14", "Figure 14", "Expression coverage by iteration, three designs",
         "fig14_expression", _fig14_expand, "~1 s")
_builtin("fig15", "Figure 15", "Improving an already-high-coverage block",
         "fig15_high_coverage", _fig15_expand, "~1 s")
_builtin("fig16", "Figure 16", "Random vs GoldMine coverage on ITC'99-style designs",
         "fig16_itc99", _fig16_expand, "~2 s")
_builtin("table1", "Table 1", "Zero-initial-patterns limit study",
         "table1_zero_seed", _table1_expand, "~1 s")
_builtin("table2", "Table 2", "Fault detection by the mined assertion suite",
         "table2_faults", _table2_expand, "~1 s")
_builtin("table3", "Table 3", "Directed/random vs GoldMine coverage on Rigel modules",
         "table3_rigel", _table3_expand, "~1 s")
_builtin("walkthrough", "Section 6", "Worked example: two-port arbiter refinement narrative",
         "arbiter_walkthrough", _walkthrough_expand, "~1 s")
_builtin("ablation-incremental", "Ablation E10", "Incremental vs rebuilt decision trees",
         "ablation_incremental", _ablation_incremental_expand, "~1 s")
_builtin("ablation-engines", "Ablation E11", "Explicit vs BMC vs BDD formal back ends",
         "ablation_engines", _ablation_engines_expand, "~3 s")
_builtin("sweep", "ad-hoc", "(design × seed) coverage-closure matrix over any designs",
         "sweep", _sweep_expand, "varies")
