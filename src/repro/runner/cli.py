"""``python -m repro`` — the experiment orchestration CLI.

Three subcommands:

* ``run`` — expand an experiment (any paper figure/table, or an ad-hoc
  ``sweep``) into jobs, fan them out over a worker pool with JSONL
  checkpointing, aggregate into ``result.json`` and print the tables.
  Re-running the same command resumes: completed jobs are skipped.
* ``list`` — registered experiments (with their paper artifact) and
  benchmark designs.
* ``report`` — re-aggregate and render an existing run directory.

Examples::

    python -m repro run fig12 --workers 4
    python -m repro run fig16 --formal-engine tiered --induction-k 4
    python -m repro run sweep --designs arbiter2,b01 --seeds 0,1,2 --workers 8
    python -m repro report artifacts/fig16
    python -m repro list

See ``docs/EXPERIMENTS.md`` for the command reproducing each figure and
table of the paper.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.config import GoldMineConfig
from repro.formal.checker import FormalVerifier
from repro.runner.checkpoint import (
    CheckpointError,
    RunCheckpoint,
    find_run_dirs,
    jobs_signature,
)
from repro.runner.pool import execute_jobs
from repro.runner.registry import (
    RunOptions,
    experiment_names,
    get_experiment,
)
from repro.runner.report import aggregate_records, render_result


def _parse_csv(text: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _parse_int_csv(text: str) -> tuple[int, ...]:
    return tuple(int(item) for item in _parse_csv(text))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Parallel orchestration of the paper's experiments.")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run an experiment (or resume a checkpointed run)")
    run.add_argument("experiment", help="experiment name (see 'list')")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes (default 1 = serial)")
    run.add_argument("--job-timeout", dest="job_timeout", type=float,
                     default=None, metavar="SECONDS",
                     help="wall-clock deadline per job (default: unbounded); "
                          "an over-deadline worker is killed and the job "
                          "retried within its --job-retries budget, then "
                          "recorded as timed_out")
    run.add_argument("--job-memory-budget", dest="job_memory_budget",
                     type=float, default=None, metavar="MB",
                     help="RSS-growth budget per job in MB (default: "
                          "unbounded); an over-budget worker is killed and "
                          "the job retried within its --job-retries budget; "
                          "requires /proc, disabled elsewhere")
    run.add_argument("--job-retries", dest="job_retries", type=int, default=2,
                     metavar="N",
                     help="fault retries per job before quarantine, counted "
                          "cumulatively across resumes (default 2); a job "
                          "that keeps killing its worker is recorded as "
                          "poisoned and skipped by later resumes")
    run.add_argument("--retry-poisoned", dest="retry_poisoned",
                     action="store_true",
                     help="re-admit quarantined (poisoned/timed_out) and "
                          "budget-exhausted jobs with a fresh retry budget")
    run.add_argument("--formal-engine", dest="formal_engine",
                     choices=FormalVerifier.ENGINES, default="explicit",
                     help="formal back end for candidate verification "
                          "(explicit = exact explicit-state search; "
                          "tiered = incremental SAT on each assertion's "
                          "cone-of-influence slice: bounded search, then "
                          "simple-path induction up to --induction-k, "
                          "proves assertions unbounded; bdd = symbolic "
                          "reachability)")
    run.add_argument("--induction-k", dest="induction_k", type=int, default=8,
                     metavar="K",
                     help="maximum induction depth of the tiered engine "
                          "(default 8; 0 = plain BMC with one-step "
                          "induction; ignored by the other engines)")
    run.add_argument("--formal-workers", dest="formal_workers", type=int,
                     default=1, metavar="N",
                     help="persistent formal verification worker processes "
                          "per closure run (default 1 = in-process; results "
                          "are identical for every worker count)")
    run.add_argument("--formal-timeout", dest="formal_timeout", type=float,
                     default=None, metavar="SECONDS",
                     help="wall-clock budget per formal query (default: "
                          "unbounded); an expired query returns an uncached "
                          "UNKNOWN flagged timed_out instead of hanging; a "
                          "timed-out tiered induction step still lets the "
                          "bounded search finish")
    run.add_argument("--proof-cache", dest="proof_cache", nargs="?",
                     const=True, default=False, metavar="PATH",
                     help="reuse formal verdicts across jobs and runs, "
                          "persisted to PATH (a JSON file; given bare, "
                          "defaults to <artifacts>/proofcache.json)")
    run.add_argument("--smoke", action="store_true",
                     help="smoke scale: reduced subjects/budgets, seconds not minutes")
    run.add_argument("--designs", type=_parse_csv, default=None,
                     metavar="A,B,...", help="restrict the experiment's design set")
    run.add_argument("--seeds", type=_parse_int_csv, default=(0,),
                     metavar="0,1,...", help="random seeds (sweep only)")
    run.add_argument("--seed-cycles", type=int, default=None,
                     help="random seed-stimulus cycles per run (sweep only)")
    run.add_argument("--max-iterations", type=int, default=None,
                     help="override the refinement iteration budget")
    run.add_argument("--artifacts", default="artifacts",
                     help="artifacts root directory (default ./artifacts)")
    run.add_argument("--run-id", default=None,
                     help="run directory name (default: the experiment name)")
    run.add_argument("--fresh", action="store_true",
                     help="discard any existing checkpoint for this run id")
    run.add_argument("--json", action="store_true", dest="as_json",
                     help="print the aggregated result JSON instead of tables")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-job progress lines")

    lister = commands.add_parser(
        "list", help="registered experiments and benchmark designs")
    lister.add_argument("--json", action="store_true", dest="as_json")

    report = commands.add_parser(
        "report", help="aggregate and render an existing run directory")
    report.add_argument("run_dir", nargs="?", default=None,
                        help="run directory (default: every run under --artifacts)")
    report.add_argument("--artifacts", default="artifacts")
    report.add_argument("--json", action="store_true", dest="as_json")
    return parser


# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = get_experiment(args.experiment)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    proof_cache = args.proof_cache
    if proof_cache is True:
        # Bare --proof-cache: persist under the artifacts root so every
        # run (and every job of a sweep) shares one verdict store.
        proof_cache = str(Path(args.artifacts) / "proofcache.json")
    try:
        config = GoldMineConfig(
            engine=args.formal_engine, induction_k=args.induction_k,
            formal_workers=args.formal_workers,
            formal_query_timeout=args.formal_timeout,
            formal_proof_cache=proof_cache)
        options = RunOptions(
            config=config, smoke=args.smoke, designs=args.designs,
            seeds=args.seeds, seed_cycles=args.seed_cycles,
            max_iterations=args.max_iterations)
    except ValueError as exc:
        # Reject before expansion: no run directory, no failed jobs.
        print(f"invalid options: {exc}", file=sys.stderr)
        return 2
    try:
        jobs = spec.expand(options)
    except KeyError as exc:
        print(f"cannot expand {spec.name}: {exc}", file=sys.stderr)
        return 2
    if not jobs:
        print(f"experiment {spec.name} expanded to no jobs", file=sys.stderr)
        return 2

    run_dir = Path(args.artifacts) / (args.run_id or spec.name)
    checkpoint = RunCheckpoint(run_dir)
    if args.fresh:
        checkpoint.clear()
    manifest = {
        "experiment": spec.name,
        "artifact": spec.artifact,
        "description": spec.description,
        "options": options.identity(),  # informational; identity is the job set
        "jobs": [job.job_id for job in jobs],
        "jobs_signature": jobs_signature([job.task() for job in jobs]),
    }
    try:
        checkpoint.ensure_manifest(manifest)
    except CheckpointError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    progress = None if args.quiet else \
        (lambda message: print(message, file=sys.stderr, flush=True))
    records = execute_jobs(jobs, checkpoint, workers=args.workers,
                           progress=progress,
                           job_timeout=args.job_timeout,
                           memory_budget_mb=args.job_memory_budget,
                           retry_budget=args.job_retries,
                           retry_poisoned=args.retry_poisoned)
    document = aggregate_records(spec.name, jobs, records)
    checkpoint.write_result(document)

    if args.as_json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_result(document))
        print(f"\nartifacts: {run_dir}")
    return 1 if document.get("failures") else 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.designs import DESIGNS
    from repro.experiments.common import format_table

    experiments = []
    for name in experiment_names():
        spec = get_experiment(name)
        experiments.append({"name": spec.name, "artifact": spec.artifact,
                            "description": spec.description,
                            "runtime": spec.runtime_hint})
    designs = [{"name": info.name, "origin": info.origin,
                "description": info.description}
               for info in DESIGNS.values()]
    if args.as_json:
        print(json.dumps({"experiments": experiments, "designs": designs},
                         indent=2, sort_keys=True))
        return 0
    print("experiments (python -m repro run <name>):")
    print(format_table(
        ["name", "paper artifact", "full runtime", "description"],
        [[e["name"], e["artifact"], e["runtime"], e["description"]]
         for e in experiments]))
    print("\ndesigns (usable with --designs / sweep):")
    print(format_table(
        ["name", "origin", "description"],
        [[d["name"], d["origin"], d["description"]] for d in sorted(
            designs, key=lambda d: d["name"])]))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.runner.registry import JobSpec

    if args.run_dir is not None:
        run_dirs = [Path(args.run_dir)]
    else:
        run_dirs = find_run_dirs(args.artifacts)
        if not run_dirs:
            print(f"no runs found under {args.artifacts}", file=sys.stderr)
            return 2

    status = 0
    documents = []
    for run_dir in run_dirs:
        checkpoint = RunCheckpoint(run_dir)
        try:
            manifest = checkpoint.load_manifest()
        except FileNotFoundError:
            print(f"{run_dir}: not a run directory (no run.json)", file=sys.stderr)
            status = 2
            continue
        # Re-aggregate from the job log so report works on interrupted runs
        # that never reached the result-writing step.
        jobs = [JobSpec(manifest["experiment"], job_id, {})
                for job_id in manifest.get("jobs", [])]
        document = aggregate_records(manifest["experiment"], jobs,
                                     checkpoint.completed())
        documents.append(document)
        if not args.as_json:
            print(render_result(document))
            print()
        if document.get("failures"):
            status = max(status, 1)
    if args.as_json and documents:
        print(json.dumps(documents if args.run_dir is None else documents[0],
                         indent=2, sort_keys=True))
    return status


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list":
        return _cmd_list(args)
    return _cmd_report(args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
