"""Built-in experiment specs: every paper figure/table as a sharded job set.

Each spec wraps one driver from :mod:`repro.experiments`.  Where a driver
iterates over designs (fig13/fig14/fig16, table1/table3, the engine
ablation), expansion emits one job per design so the pool can run them in
parallel; single-subject drivers stay one job.  Every job payload is the
driver's :class:`~repro.experiments.common.ExperimentResult` serialized
with :meth:`to_json`, so aggregation is uniform (see
:mod:`repro.runner.report`).

The ``sweep`` experiment is the ad-hoc entry point: a (design × seed)
matrix of coverage-closure runs over any registered designs, for scaling
studies that have no paper counterpart.
"""

from __future__ import annotations

from typing import Mapping

from repro.runner.registry import ExperimentSpec, JobSpec, RunOptions, register


def _iterations(options: RunOptions, full: int, smoke: int) -> int:
    if options.max_iterations is not None:
        return options.max_iterations
    return smoke if options.smoke else full


def _engine_params(options: RunOptions) -> dict:
    return {"sim_engine": options.engine, "sim_lanes": options.lanes,
            "formal_engine": options.formal_engine,
            "induction_k": options.induction_k,
            "formal_workers": options.formal_workers,
            "formal_query_timeout": options.formal_timeout,
            "proof_cache": options.proof_cache}


def _reject_designs(options: RunOptions, experiment: str, fixed: str) -> None:
    """Fixed-subject experiments must not silently ignore ``--designs``."""
    if options.designs is not None and set(options.designs) != {fixed}:
        raise KeyError(
            f"{experiment} always runs on '{fixed}'; --designs cannot "
            f"change its subject (got {list(options.designs)})")


# ----------------------------------------------------------------------
# fig12 — arbiter coverage by counterexample iteration
# ----------------------------------------------------------------------
def _fig12_expand(options: RunOptions) -> list[JobSpec]:
    _reject_designs(options, "fig12", "arbiter2")
    params = {"window": 2, "max_iterations": _iterations(options, 16, 8),
              **_engine_params(options)}
    return [JobSpec("fig12", "fig12/arbiter2", params)]


def _fig12_execute(params: Mapping) -> tuple[dict, int]:
    from repro.experiments import fig12_arbiter

    result = fig12_arbiter.run(**dict(params))
    payload = result.as_experiment_result().to_json()
    payload["notes"].append(f"converged={result.converged} "
                            f"assertions={result.assertion_count}")
    return payload, result.test_suite_cycles


# ----------------------------------------------------------------------
# fig13 — design-space coverage by iteration (one job per design)
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
    jobs = []
    for design in designs:
        for design, output, group in by_design[design]:
            params = {"subject": [design, output, group], "seed_cycles": 4,
                      "random_seed": 1,
                      "max_iterations": _iterations(options, 20, 12),
                      **_engine_params(options)}
            jobs.append(JobSpec("fig13", f"fig13/{design}.{output}", params))
    return jobs


def _fig13_execute(params: Mapping) -> tuple[dict, int]:
    from repro.experiments import fig13_design_space

    params = dict(params)
    subject = tuple(params.pop("subject"))
    result = fig13_design_space.run(subjects=(subject,), **params)
    cycles = sum(series.test_suite_cycles for series in result.series)
    return result.as_experiment_result().to_json(), cycles


# ----------------------------------------------------------------------
# fig14 — expression coverage by iteration (one job per design)
# ----------------------------------------------------------------------
def _fig14_expand(options: RunOptions) -> list[JobSpec]:
    from repro.experiments.fig14_expression import DEFAULT_SUBJECTS

    designs = options.pick_designs(DEFAULT_SUBJECTS,
                                   smoke_subset=("cex_small", "arbiter2"))
    jobs = []
    for design in designs:
        params = {"design": design, "seed_cycles": 3, "random_seed": 3,
                  "max_iterations": _iterations(options, 20, 12),
                  **_engine_params(options)}
        jobs.append(JobSpec("fig14", f"fig14/{design}", params))
    return jobs


def _fig14_execute(params: Mapping) -> tuple[dict, int]:
    from repro.experiments import fig14_expression

    params = dict(params)
    design = params.pop("design")
    result = fig14_expression.run(subjects=(design,), **params)
    cycles = sum(series.test_suite_cycles for series in result.series)
    return result.as_experiment_result().to_json(), cycles


# ----------------------------------------------------------------------
# fig15 — improving an already-high-coverage block
# ----------------------------------------------------------------------
def _fig15_expand(options: RunOptions) -> list[JobSpec]:
    _reject_designs(options, "fig15", "wbstage")
    params = {"design_name": "wbstage",
              "random_cycles": 15 if options.smoke else 30,
              "random_seed": 2, "max_iterations": _iterations(options, 16, 8),
              **_engine_params(options)}
    return [JobSpec("fig15", "fig15/wbstage", params)]


def _fig15_execute(params: Mapping) -> tuple[dict, int]:
    from repro.experiments import fig15_high_coverage

    result = fig15_high_coverage.run(**dict(params))
    payload = result.as_experiment_result().to_json()
    payload["notes"].append(f"added_test_cycles={result.added_test_cycles}")
    return payload, result.random_cycles + result.added_test_cycles


# ----------------------------------------------------------------------
# fig16 — random vs GoldMine coverage on ITC'99-style designs
# ----------------------------------------------------------------------
def _fig16_expand(options: RunOptions) -> list[JobSpec]:
    from repro.experiments.fig16_itc99 import DEFAULT_CYCLES

    designs = options.pick_designs(list(DEFAULT_CYCLES),
                                   smoke_subset=("b01", "b02"))
    jobs = []
    for design in designs:
        params = {"design": design,
                  "cycles": DEFAULT_CYCLES.get(design, 100),
                  "random_seed": 13, "goldmine_seed_cycles": 25,
                  "max_iterations": _iterations(options, 16, 10),
                  "max_depth": 8, **_engine_params(options)}
        jobs.append(JobSpec("fig16", f"fig16/{design}", params))
    return jobs


def _fig16_execute(params: Mapping) -> tuple[dict, int]:
    from repro.experiments import fig16_itc99

    params = dict(params)
    design = params.pop("design")
    budget = params.pop("cycles")
    result = fig16_itc99.run(designs=[design], cycles={design: budget}, **params)
    payload = result.as_experiment_result().to_json()
    return payload, sum(row.cycles for row in result.rows)


# ----------------------------------------------------------------------
# table1 — zero-initial-patterns limit study (one job per output)
# ----------------------------------------------------------------------
def _table1_expand(options: RunOptions) -> list[JobSpec]:
    from repro.experiments.table1_zero_seed import DEFAULT_SUBJECTS

    by_design: dict[str, list[tuple[str, str]]] = {}
    for design, output in DEFAULT_SUBJECTS:
        by_design.setdefault(design, []).append((design, output))
    designs = options.pick_designs(list(by_design), smoke_subset=("arbiter2",))
    jobs = []
    for design in designs:
        for design, output in by_design[design]:
            params = {"subject": [design, output],
                      "max_iterations": _iterations(options, 24, 16),
                      **_engine_params(options)}
            jobs.append(JobSpec("table1", f"table1/{design}.{output}", params))
    return jobs


def _table1_execute(params: Mapping) -> tuple[dict, int]:
    from repro.experiments import table1_zero_seed

    params = dict(params)
    subject = tuple(params.pop("subject"))
    result = table1_zero_seed.run(subjects=(subject,), **params)
    payload = result.as_experiment_result().to_json()
    series = result.series[0]
    if series.iterations_to_closure is not None:
        payload["notes"].append(
            f"{series.design}.{series.output}: closed at iteration "
            f"{series.iterations_to_closure}")
    return payload, series.test_suite_cycles


# ----------------------------------------------------------------------
# table2 — fault detection by the mined assertion suite
# ----------------------------------------------------------------------
def _table2_expand(options: RunOptions) -> list[JobSpec]:
    _reject_designs(options, "table2", "fetch")
    params = {"design_name": "fetch",
              "seed_cycles": 12 if options.smoke else 30,
              "random_seed": 7, "max_iterations": _iterations(options, 16, 8),
              "mode": "formal", **_engine_params(options)}
    return [JobSpec("table2", "table2/fetch", params)]


def _table2_execute(params: Mapping) -> tuple[dict, int]:
    from repro.experiments import table2_faults

    result = table2_faults.run(**dict(params))
    payload = result.as_experiment_result().to_json()
    payload["notes"].append(f"all_detected={result.all_detected}")
    return payload, result.test_suite_cycles


# ----------------------------------------------------------------------
# table3 — directed/random vs GoldMine on Rigel modules (job per module)
# ----------------------------------------------------------------------
def _table3_expand(options: RunOptions) -> list[JobSpec]:
    from repro.experiments.table3_rigel import DEFAULT_MODULES

    designs = options.pick_designs(DEFAULT_MODULES, smoke_subset=("wbstage",))
    jobs = []
    for design in designs:
        params = {"module": design,
                  "baseline_cycles": 200 if options.smoke else 1_000,
                  "baseline_seed": 11,
                  "max_iterations": _iterations(options, 16, 10),
                  **_engine_params(options)}
        jobs.append(JobSpec("table3", f"table3/{design}", params))
    return jobs


def _table3_execute(params: Mapping) -> tuple[dict, int]:
    from repro.experiments import table3_rigel

    params = dict(params)
    module = params.pop("module")
    result = table3_rigel.run(modules=(module,), **params)
    payload = result.as_experiment_result().to_json()
    return payload, sum(row.cycles for row in result.rows)


# ----------------------------------------------------------------------
# walkthrough — the Section 6 worked example
# ----------------------------------------------------------------------
def _walkthrough_expand(options: RunOptions) -> list[JobSpec]:
    _reject_designs(options, "walkthrough", "arbiter2")
    params = {"window": 2, "max_iterations": _iterations(options, 16, 8),
              **_engine_params(options)}
    return [JobSpec("walkthrough", "walkthrough/arbiter2", params)]


def _walkthrough_execute(params: Mapping) -> tuple[dict, int]:
    from repro.experiments import arbiter_walkthrough
    from repro.experiments.common import ExperimentResult

    result = arbiter_walkthrough.run(**dict(params))
    payload = ExperimentResult(
        name="walkthrough",
        description="Section 6 worked example: two-port arbiter refinement",
    )
    payload.add_series("input_space_%",
                       [snap.input_space_percent for snap in result.snapshots])
    payload.add_series("expression_%",
                       [snap.expression_percent for snap in result.snapshots])
    payload.notes.append(f"converged={result.converged}")
    payload.notes.extend(f"SVA: {sva}" for sva in result.final_assertions_sva)
    return payload.to_json(), result.test_suite_cycles


# ----------------------------------------------------------------------
# ablation: incremental vs rebuilt decision trees
# ----------------------------------------------------------------------
def _ablation_incremental_expand(options: RunOptions) -> list[JobSpec]:
    _reject_designs(options, "ablation-incremental", "arbiter4")
    params = {"design_name": "arbiter4", "output": "gnt0",
              "seed_cycles": 8 if options.smoke else 12, "random_seed": 5,
              "max_iterations": _iterations(options, 24, 14),
              **_engine_params(options)}
    return [JobSpec("ablation-incremental", "ablation-incremental/arbiter4", params)]


def _ablation_incremental_execute(params: Mapping) -> tuple[dict, int]:
    from repro.experiments import ablation_incremental
    from repro.experiments.common import ExperimentResult

    result = ablation_incremental.run(**dict(params))
    payload = ExperimentResult(
        name="ablation-incremental",
        description="Incremental vs rebuilt decision trees (ablation E10)",
    )
    # seconds is wall-clock and deliberately left out of the payload: the
    # job record carries timing, the payload must stay deterministic.
    for outcome in (result.incremental, result.rebuilt):
        payload.add_series(outcome.variant, [
            float(outcome.converged), float(outcome.iterations),
            float(outcome.formal_checks), float(outcome.true_assertions),
            100.0 * outcome.input_space_coverage,
        ])
    payload.notes.append("series values: [converged, iterations, formal_checks, "
                         "true_assertions, input_space_%]")
    payload.notes.append(f"shared_assertions={result.shared_assertions}")
    return payload.to_json(), 0


# ----------------------------------------------------------------------
# ablation: formal engine comparison (one job per design)
# ----------------------------------------------------------------------
def _ablation_engines_expand(options: RunOptions) -> list[JobSpec]:
    designs = options.pick_designs(("arbiter2", "arbiter4", "b01"),
                                   smoke_subset=("arbiter2",))
    jobs = []
    for design in designs:
        params = {"design": design, "seed_cycles": 10, "random_seed": 9,
                  "max_iterations": _iterations(options, 16, 10),
                  "bmc_bound": 8,
                  "max_assertions_per_design": 10 if options.smoke else 40,
                  **_engine_params(options)}
        jobs.append(JobSpec("ablation-engines", f"ablation-engines/{design}", params))
    return jobs


def _ablation_engines_execute(params: Mapping) -> tuple[dict, int]:
    from repro.experiments import ablation_engines
    from repro.experiments.common import CoverageRow, ExperimentResult

    params = dict(params)
    design = params.pop("design")
    comparisons = ablation_engines.run(designs=(design,), **params)
    payload = ExperimentResult(
        name="ablation-engines",
        description="Formal back-end comparison (ablation E11)",
    )
    for comparison in comparisons:
        for engine_name, stats in sorted(comparison.stats.items()):
            payload.add_row(CoverageRow(
                design=comparison.design, method=engine_name, cycles=stats.checks,
                metrics={"true": float(stats.true_verdicts),
                         "false": float(stats.false_verdicts),
                         "unknown": float(stats.unknown_verdicts)},
            ))
        payload.notes.append(
            f"{comparison.design}: disagreements={comparison.disagreements} "
            f"bmc_contradictions={comparison.bmc_contradictions}")
    return payload.to_json(), 0


# ----------------------------------------------------------------------
# sweep — ad-hoc (design × seed) closure matrix
# ----------------------------------------------------------------------
def _sweep_expand(options: RunOptions) -> list[JobSpec]:
    from repro.designs import design_names

    designs = options.pick_designs(design_names(), smoke_subset=("arbiter2",))
    seed_cycles = options.seed_cycles if options.seed_cycles is not None else \
        (10 if options.smoke else 25)
    jobs = []
    for design in designs:
        for seed in options.seeds:
            params = {"design": design, "seed": seed, "seed_cycles": seed_cycles,
                      "max_iterations": _iterations(options, 24, 12),
                      **_engine_params(options)}
            jobs.append(JobSpec("sweep", f"sweep/{design}/seed{seed}", params))
    return jobs


def _sweep_execute(params: Mapping) -> tuple[dict, int]:
    from repro.core.config import GoldMineConfig
    from repro.core.refinement import CoverageClosure
    from repro.coverage.runner import CoverageRunner
    from repro.designs import info as design_info
    from repro.experiments.common import CoverageRow, ExperimentResult
    from repro.sim.stimulus import RandomStimulus

    design = params["design"]
    seed = params["seed"]
    meta = design_info(design)
    module = meta.build()
    config = GoldMineConfig(window=meta.window,
                            max_iterations=params["max_iterations"],
                            sim_engine=params["sim_engine"],
                            sim_lanes=params["sim_lanes"],
                            engine=params.get("formal_engine", "explicit"),
                            induction_k=params.get("induction_k", 8),
                            formal_workers=params.get("formal_workers", 1),
                            formal_proof_cache=params.get("proof_cache", False),
                            formal_query_timeout=params.get(
                                "formal_query_timeout"))
    closure = CoverageClosure(module, outputs=list(meta.mining_outputs) or None,
                              config=config)
    seed_cycles = params["seed_cycles"]
    stimulus = RandomStimulus(seed_cycles, seed=seed) if seed_cycles > 0 else None
    result = closure.run(stimulus)

    runner = CoverageRunner(meta.build(), fsm_signals=meta.fsm_signals or None,
                            engine=params["sim_engine"], lanes=params["sim_lanes"])
    runner.run_suite(result.test_suite)
    report = runner.report()

    cycles = result.total_test_cycles()
    payload = ExperimentResult(
        name="sweep",
        description="Ad-hoc coverage-closure sweep over (design × seed)",
    )
    metrics = {name: (report.get(name, 0.0) or 0.0)
               for name in ("line", "branch", "cond", "expr", "toggle", "fsm")
               if report.get(name) is not None}
    metrics["input_space"] = 100.0 * result.input_space_coverage()
    payload.add_row(CoverageRow(design=design, method=f"seed{seed}",
                                cycles=cycles, metrics=metrics))
    payload.notes.append(
        f"{design}/seed{seed}: converged={result.converged} "
        f"iterations={result.iteration_count} "
        f"assertions={len(result.all_true_assertions)} "
        f"formal_checks={result.formal_checks}")
    return payload.to_json(), cycles


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------
register(ExperimentSpec(
    name="fig12", artifact="Figure 12",
    description="Arbiter input-space/expression coverage by iteration",
    expand=_fig12_expand, execute=_fig12_execute, runtime_hint="~1 s"))
register(ExperimentSpec(
    name="fig13", artifact="Figure 13",
    description="Design-space coverage by iteration, five designs",
    expand=_fig13_expand, execute=_fig13_execute, runtime_hint="~5 s"))
register(ExperimentSpec(
    name="fig14", artifact="Figure 14",
    description="Expression coverage by iteration, three designs",
    expand=_fig14_expand, execute=_fig14_execute, runtime_hint="~1 s"))
register(ExperimentSpec(
    name="fig15", artifact="Figure 15",
    description="Improving an already-high-coverage block",
    expand=_fig15_expand, execute=_fig15_execute, runtime_hint="~1 s"))
register(ExperimentSpec(
    name="fig16", artifact="Figure 16",
    description="Random vs GoldMine coverage on ITC'99-style designs",
    expand=_fig16_expand, execute=_fig16_execute, runtime_hint="~2 s"))
register(ExperimentSpec(
    name="table1", artifact="Table 1",
    description="Zero-initial-patterns limit study",
    expand=_table1_expand, execute=_table1_execute, runtime_hint="~1 s"))
register(ExperimentSpec(
    name="table2", artifact="Table 2",
    description="Fault detection by the mined assertion suite",
    expand=_table2_expand, execute=_table2_execute, runtime_hint="~7 s"))
register(ExperimentSpec(
    name="table3", artifact="Table 3",
    description="Directed/random vs GoldMine coverage on Rigel modules",
    expand=_table3_expand, execute=_table3_execute, runtime_hint="~3 s"))
register(ExperimentSpec(
    name="walkthrough", artifact="Section 6",
    description="Worked example: two-port arbiter refinement narrative",
    expand=_walkthrough_expand, execute=_walkthrough_execute, runtime_hint="~1 s"))
register(ExperimentSpec(
    name="ablation-incremental", artifact="Ablation E10",
    description="Incremental vs rebuilt decision trees",
    expand=_ablation_incremental_expand, execute=_ablation_incremental_execute,
    runtime_hint="~1 s"))
register(ExperimentSpec(
    name="ablation-engines", artifact="Ablation E11",
    description="Explicit vs BMC vs BDD formal back ends",
    expand=_ablation_engines_expand, execute=_ablation_engines_execute,
    runtime_hint="~3 s"))
register(ExperimentSpec(
    name="sweep", artifact="ad-hoc",
    description="(design × seed) coverage-closure matrix over any designs",
    expand=_sweep_expand, execute=_sweep_execute, runtime_hint="varies"))
