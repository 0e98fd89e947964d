"""E13 — scalar vs bit-parallel batched simulation throughput.

Measures cycles/second of the compiled scalar simulator (one generated
Python function per design; best of three runs, so the first run's code
generation drops out) against the batched engine on the paper's arbiter
and the ITC'99-style designs, at several lane widths.  Batched
throughput is reported in *lane-cycles* per second (one batched cycle
advances every lane by one cycle), both for pure stepping and including
per-lane trace materialisation (the mining data-generator path).

Shape requirement: at 64 lanes the batched engine sustains at least 5×
the scalar engine's throughput on every measured design.
"""

from __future__ import annotations

import time

from _utils import run_once

from repro.designs import load
from repro.experiments.common import format_table
from repro.sim.batched import BatchedSimulator
from repro.sim.simulator import Simulator
from repro.sim.stimulus import RandomStimulus

DESIGNS = ("arbiter2", "arbiter4", "b01", "b09", "b12")
LANE_WIDTHS = (16, 64, 256)
CYCLES = 1500


def _best(function, repeats=3):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return min(times)


def test_batched_sim_speedup(benchmark, print_section):
    # The harness-timed sample: one representative batched run.
    run_once(benchmark, lambda: BatchedSimulator(load("b12"), lanes=64)
             .run_random(CYCLES, seed=1, collect_traces=False))

    headers = ["design", "lanes", "compiled scalar c/s", "batched lane-c/s",
               "speedup", "speedup (with traces)"]
    rows = []
    speedups_at_64 = {}
    for design_name in DESIGNS:
        module = load(design_name)
        scalar = Simulator(module)
        scalar_seconds = _best(lambda: scalar.run(RandomStimulus(CYCLES, seed=1)))
        scalar_rate = CYCLES / scalar_seconds
        for lanes in LANE_WIDTHS:
            engine = BatchedSimulator(module, lanes=lanes)
            step_seconds = _best(
                lambda: engine.run_random(CYCLES, seed=1, collect_traces=False))
            trace_seconds = _best(
                lambda: engine.run_random(CYCLES, seed=1), repeats=1)
            lane_rate = CYCLES * lanes / step_seconds
            speedup = lane_rate / scalar_rate
            trace_speedup = (CYCLES * lanes / trace_seconds) / scalar_rate
            if lanes == 64:
                speedups_at_64[design_name] = speedup
            rows.append([design_name, lanes, f"{scalar_rate:,.0f}",
                         f"{lane_rate:,.0f}", f"{speedup:.1f}x",
                         f"{trace_speedup:.1f}x"])
    print_section("Batched simulation throughput (compiled scalar vs bit-parallel)",
                  format_table(headers, rows))

    for design_name, speedup in speedups_at_64.items():
        assert speedup >= 5.0, (
            f"{design_name}: 64-lane batched throughput is only {speedup:.1f}x scalar"
        )
