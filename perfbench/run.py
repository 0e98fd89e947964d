"""Closure-sweep benchmark: whole-loop latency of GoldMine coverage closure.

Runs closure jobs (build design, ``CoverageClosure.run``, coverage of the
refined suite) from one process, one job at a time, in passes over a
workload's roster until ``--seconds`` have been measured (at least two
passes).  Usage, from the repository root::

    python3 perfbench/run.py --workload exact-closure --seed 1 --seconds 32 --trace 0

``--trace 0`` reports the end-to-end metrics, each built from every
job's median latency over the run, scaled by a host-speed probe timed
before each job run; after the first pass, short jobs run several times
per pass so they get more samples.  ``--trace 1``
alternates untraced and traced passes, one run per job, and reports
per-layer metrics instead.  The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/RESULTS.md``.
"""

from __future__ import annotations

import argparse
import difflib
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 2
SETUP_SAMPLES = 5
#: Samples that must lie beyond the reported tail percentile.
TAIL_SAMPLES = 10
#: In timed runs, a job whose first-pass latency was below this runs
#: ``REP_SECONDS // latency`` times per later pass, at most MAX_REPS.
REP_SECONDS = 0.3
MAX_REPS = 3
#: Host-speed probe time the timing metrics are scaled to (about what the
#: probe takes on an idle 2-vCPU x86 host under Python 3.11).
PROBE_REFERENCE_S = 0.0035


class HostProbe:
    """A fixed pure-Python task (difflib over two 1500-line texts) timed
    right before every job run.

    On a shared host the interpreter's speed swings by up to 2x for
    minutes at a time, and a job's CPU time swings with it.  Dividing each
    job run by the probe run just before it cancels that swing; the probe
    is the benchmark's own code, so a change to the program cannot move it.
    """

    def __init__(self):
        rng = random.Random(5)
        self.left = [f"line {rng.randrange(400)} {rng.randrange(50)}"
                     for _ in range(1500)]
        self.right = list(self.left)
        for _ in range(150):
            self.right[rng.randrange(len(self.right))] = f"edit {rng.randrange(1000)}"

    def __call__(self) -> float:
        start = time.perf_counter()
        difflib.SequenceMatcher(None, self.left, self.right, autojunk=False).ratio()
        return time.perf_counter() - start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="import the stack, build the roster and exit "
                             "(the unit of work timed as setup_s)")
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    """CPU seconds of this process plus every reaped child."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def measure_setup(args) -> list[float]:
    """Interpreter start to ready-for-first-job, in fresh interpreters,
    each scaled by a host-speed probe timed just before it.

    One unmeasured start first fills the bytecode cache, which users of
    an installed package also have.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", args.workload, "--seed", str(args.seed)]
    probe = HostProbe()
    samples = []
    for index in range(SETUP_SAMPLES + 1):
        probe_s = probe()
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        if index:
            samples.append((time.perf_counter() - start) * PROBE_REFERENCE_S / probe_s)
    return samples


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least TAIL_SAMPLES samples beyond."""
    return max(50, math.floor(100 * (1 - TAIL_SAMPLES / count)))


def reps_for(seconds: float) -> int:
    return max(1, min(MAX_REPS, int(REP_SECONDS // max(seconds, 1e-9))))


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summed(rows: list[dict]) -> dict:
    totals: dict = {}
    for row in rows:
        for key, value in row.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Bench:
    """One benchmark run: passes over one workload's roster."""

    def __init__(self, workloads, tracing, workload):
        self.w = workloads
        self.tracing = tracing
        self.workload = workload
        self.oracle = workloads.Oracle()
        self.recorder = tracing.Recorder()
        self.instrumentation = tracing.Instrumentation(self.recorder)
        self.passes: list[dict] = []
        #: Runs of each job per pass; raised for short jobs after pass 1.
        self.reps = [1] * len(workload.jobs)
        self.probe = HostProbe()

    # ------------------------------------------------------------------
    def run_job(self, job, traced: bool):
        config = self.w.job_config(self.workload, job)
        gc.collect()
        probe = self.probe()
        cpu = cpu_seconds()
        start = time.perf_counter()
        if traced:
            self.recorder.active = True
            self.recorder.enter("core")
        try:
            run = self.w.run_job(job, config)
        except Exception:  # noqa: BLE001 - a crashed job is a failed job
            return self.w.JobOutcome(job, time.perf_counter() - start,
                                     cpu_seconds() - cpu, probe,
                                     error=traceback.format_exc(limit=6))
        finally:
            if traced:
                self.recorder.exit()
                self.recorder.active = False
        outcome = self.w.JobOutcome(job, run.seconds, cpu_seconds() - cpu, probe)
        prefix = self.tracing.WORKER_KEY_PREFIX
        outcome.digest = self.w.result_digest(run.result)
        outcome.violation = self.oracle.check(job.design, run.result, outcome.digest)
        outcome.quality = self.w.quality(run)
        outcome.counters = self.w.work_counters(run, prefix)
        outcome.worker_spans = {key: value
                                for key, value in run.result.formal_reuse.items()
                                if key.startswith(prefix)}
        return outcome

    def run_pass(self, traced: bool) -> dict:
        self.recorder.reset()
        if traced:
            self.instrumentation.install()
        try:
            runs = [[self.run_job(job, traced) for _ in range(reps)]
                    for job, reps in zip(self.workload.jobs, self.reps)]
        finally:
            self.instrumentation.uninstall()
        outcomes = [job_runs[0] for job_runs in runs]
        record = {
            "traced": traced,
            "sweep_s": sum(o.seconds for job_runs in runs for o in job_runs),
            "runs": runs,
            "outcomes": outcomes,
            "digest": hashlib.sha256(
                "".join(o.digest for o in outcomes).encode()).hexdigest(),
        }
        if traced:
            self_s = dict(self.recorder.self_s)
            busy_s = dict(self.recorder.busy_s)
            for outcome in outcomes:
                worker_self, worker_busy = self.tracing.worker_spans(
                    outcome.worker_spans)
                # The parent's check_all span already covers the workers'
                # engine checks in wall time.
                worker_busy.pop("formal", None)
                for target, extra in ((self_s, worker_self), (busy_s, worker_busy)):
                    for name, seconds in extra.items():
                        target[name] = target.get(name, 0.0) + seconds
            record.update(self_s=self_s, busy_s=busy_s,
                          sim_cycles=self.recorder.sim_cycles)
        self.passes.append(record)
        return record

    def measure(self, seconds: float, trace: bool) -> None:
        """Run passes until ``seconds`` of wall time are used (at least the
        minimum number of passes).

        With tracing, passes go untraced, traced, traced, untraced, ...
        so a drift over the run (warming caches, a busy neighbour) does
        not bias the traced/untraced comparison.
        """
        minimum = 2 * MIN_PASSES if trace else MIN_PASSES
        start = time.perf_counter()
        elapsed = 0.0
        while True:
            self.run_pass(trace and len(self.passes) % 4 in (1, 2))
            now = time.perf_counter() - start
            last, elapsed = now - elapsed, now
            if len(self.passes) == 1 and not trace:
                self.reps = [reps_for(o.seconds) for o in self.passes[0]["outcomes"]]
            if len(self.passes) < minimum:
                continue
            # The last pass, not the mean, predicts the next: pass 1 has no
            # repeats.
            if elapsed + last > seconds:
                break

    # ------------------------------------------------------------------
    def consistency_problems(self) -> list[str]:
        """Digests, work counters and quality must repeat in every run of
        every job."""
        problems = []
        first = self.passes[0]
        for number, record in enumerate(self.passes[1:], start=2):
            if record["digest"] != first["digest"]:
                problems.append(f"pass {number} digest {record['digest'][:12]} "
                                f"!= pass 1 digest {first['digest'][:12]}")
            for index, (a, job_runs) in enumerate(zip(first["outcomes"], record["runs"])):
                for b in job_runs:
                    if b.digest != a.digest:
                        problems.append(f"pass {number} job {index} ({a.job.label}) "
                                        f"digest {b.digest[:12]} != {a.digest[:12]}")
                    for kind in ("counters", "quality"):
                        left, right = getattr(a, kind), getattr(b, kind)
                        for key in sorted(set(left) | set(right)):
                            if left.get(key) != right.get(key):
                                problems.append(
                                    f"pass {number} job {index} ({a.job.label}) "
                                    f"{kind} {key}: {left.get(key)} != {right.get(key)}")
        return problems

    def end_to_end(self, setup: list[float]) -> tuple[dict, list[str]]:
        """Timing metrics from each job's median run, probe-scaled.

        Every job run is scaled by PROBE_REFERENCE_S over the probe time
        measured just before it (see :class:`HostProbe`); a job's latency
        is the median of its scaled runs over the whole run.
        """
        untraced = [p for p in self.passes if not p["traced"]]
        per_job = [[o for p in untraced for o in p["runs"][index]]
                   for index in range(len(self.workload.jobs))]

        def scaled(attribute):
            return [statistics.median(getattr(o, attribute) * PROBE_REFERENCE_S / o.probe
                                      for o in job_runs) for job_runs in per_job]

        latency, cpu = scaled("seconds"), scaled("cpu")
        tail = tail_percentile(len(latency))
        outcomes = [o for o in untraced[0]["outcomes"] if o.error is None]
        quality = summed([o.quality for o in outcomes])
        jobs = max(1, len(outcomes))
        metrics = {
            "sweep_s": (sum(latency), "s"),
            "job_s_p50": (statistics.median(latency), "s"),
            "job_s_tail": (percentile(latency, tail), "s"),
            "cpu_s": (sum(cpu), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
            "input_space_pct": (quality.get("input_space_pct", 0.0) / jobs, "%"),
            "suite_coverage_pct": (quality.get("suite_coverage_pct", 0.0) / jobs, "%"),
            "converged_pct": (100.0 * quality.get("converged", 0) / jobs, "%"),
            "suite_cycles": (quality.get("suite_cycles", 0), "cycles"),
        }
        runs = [len(job_runs) for job_runs in per_job]
        probes = [o.probe for job_runs in per_job for o in job_runs]
        raw = sum(statistics.median(o.seconds for o in job_runs) for job_runs in per_job)
        notes = [f"job_s_tail is p{tail} over {len(latency)} per-job median latencies "
                 f"({len(untraced)} passes; {min(runs)}-{max(runs)} runs per job, "
                 f"{sum(runs)} in all)",
                 f"timings scaled to a {1e3 * PROBE_REFERENCE_S:g} ms probe; the probe "
                 f"took {1e3 * statistics.median(probes):.3f} ms (median of "
                 f"{len(probes)}), unscaled sweep_s {raw:.4f} s"]
        return metrics, notes

    def per_layer(self) -> tuple[dict, list[str]]:
        traced = [p for p in self.passes if p["traced"]]
        untraced = [p for p in self.passes if not p["traced"]]

        def med(getter):
            return statistics.median(getter(p) for p in traced)

        c = summed([o.counters for o in untraced[0]["outcomes"] if o.error is None])
        layer_self = {layer: med(lambda p, l=layer: p["self_s"].get(l, 0.0))
                      for layer in self.tracing.LAYERS}
        busy = {name: med(lambda p, n=name: p["busy_s"].get(n, 0.0))
                for name in ("formal", "sim", "coverage", "mining",
                             "hdl.build", "hdl.synth")}
        sim_cycles = med(lambda p: p["sim_cycles"])
        overhead = med(lambda p: p["sweep_s"]) / \
            statistics.median(p["sweep_s"] for p in untraced) - 1.0
        metrics = {f"self_s.{layer}": (seconds, "s")
                   for layer, seconds in layer_self.items()}
        metrics.update({
            "formal.wait_s": (med(lambda p: p["self_s"].get("wait", 0.0)), "s"),
            "formal.busy_s": (busy["formal"], "s"),
            "formal.ms_per_check": (1e3 * ratio(busy["formal"], c["checks"]), "ms"),
            "formal.checks": (c["checks"], "count"),
            "formal.decided_frac": (ratio(c["true"] + c["false"], c["checks"]), "ratio"),
            "formal.refuted_frac": (ratio(c["false"], c["checks"]), "ratio"),
            "formal.dedup_hits": (c["dedup_hits"], "count"),
            "formal.dispatch_batches": (c.get("dispatch_batches", 0), "count"),
            "formal.worker_restarts": (c.get("worker_restarts", 0), "count"),
            "formal.fallback_checks": (c.get("fallback_checks", 0), "count"),
            "sat.solves": (c.get("sat_solves", 0), "count"),
            "sat.decisions": (c.get("sat_decisions", 0), "count"),
            "sat.propagations": (c.get("sat_propagations", 0), "count"),
            "sat.conflicts": (c.get("sat_conflicts", 0), "count"),
            "sat.restarts": (c.get("sat_restarts", 0), "count"),
            "sat.blocker_hit_frac": (ratio(c.get("sat_blocker_hits", 0),
                                           c.get("sat_watch_checks", 0)), "ratio"),
            "sat.solver_clauses": (c.get("solver_clauses", 0), "count"),
            "sat.encoded_vars": (c.get("encoded_variables", 0), "count"),
            "sat.encode_hit_frac": (ratio(c.get("encode_cache_hits", 0),
                                          c.get("encode_calls", 0)), "ratio"),
            "sat.learned_kept": (c.get("learned_kept", 0), "count"),
            "induction.proofs": (c.get("induction_proofs", 0), "count"),
            "induction.step_queries": (c.get("induction_step_queries", 0), "count"),
            "ir.slices": (c.get("ir_slices", 0), "count"),
            "ir.folded_registers": (c.get("ir_folded_registers", 0), "count"),
            "sim.busy_s": (busy["sim"], "s"),
            "sim.cycles": (sim_cycles, "cycles"),
            "sim.us_per_cycle": (1e6 * ratio(busy["sim"], sim_cycles), "us"),
            "coverage.busy_s": (busy["coverage"], "s"),
            "coverage.cycles": (c["coverage_cycles"], "cycles"),
            "mining.busy_s": (busy["mining"], "s"),
            "mining.rows": (c["mining_rows"], "count"),
            "mining.candidates": (c["candidates"], "count"),
            "hdl.build_s": (busy["hdl.build"], "s"),
            "hdl.synth_s": (busy["hdl.synth"], "s"),
            "core.self_s": (layer_self["core"], "s"),
            "core.iterations": (c["iterations"], "count"),
            "core.counterexamples": (c["counterexamples"], "count"),
            "trace.overhead_frac": (overhead, "ratio"),
        })
        total = sum(layer_self.values())
        split = sorted(layer_self.items(), key=lambda item: -item[1])
        notes = ["layer self-time split (summed over processes): " + ", ".join(
            f"{layer} {100 * ratio(seconds, total):.1f}%" for layer, seconds in split),
            f"dominant layer: {split[0][0]}",
            f"trace.overhead_frac = {overhead:.4f} "
            f"({len(traced)} traced / {len(untraced)} untraced passes)"]
        return metrics, notes


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in (*workloads.WORKLOADS, workloads.SMOKE):
        print(f"perfbench: unknown workload '{args.workload}'; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe_setup:
        workloads.build_workload(args.workload, args.seed)
        return 0

    setup = [] if args.trace else measure_setup(args)
    bench = Bench(workloads, tracing,
                  workloads.build_workload(args.workload, args.seed))
    bench.measure(args.seconds, bool(args.trace))

    outcomes = [o for p in bench.passes for job_runs in p["runs"] for o in job_runs]
    failed = [o for o in outcomes if o.failed]
    problems = bench.consistency_problems()
    metrics, notes = bench.per_layer() if args.trace else bench.end_to_end(setup)

    print(f"workload {args.workload} seed {args.seed}: {len(bench.passes)} passes, "
          f"{len(bench.workload.jobs)} jobs each, digest {bench.passes[0]['digest'][:16]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    print(f"  {'fail_frac':<24} {ratio(len(failed), len(outcomes)):>14.6g} ratio "
          f"({len(failed)}/{len(outcomes)} jobs)")
    for note in notes:
        print(f"  {note}")
    for outcome in failed[:5]:
        print(f"FAILED {outcome.job.label}: {outcome.error or outcome.violation}",
              file=sys.stderr)
    for problem in problems[:20]:
        print(f"NOT REPEATED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
