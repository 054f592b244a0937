"""Benchmark: fused slot kernels — end-to-end and per-phase throughput.

Times the fused-kernel vectorized engine (:mod:`repro.sim.kernels` over
:class:`repro.sim.network.LinkedVoqState`) against the reference object
loop on saturated SORN fabrics at N ∈ {16, 128, 512, 1024} and writes
the measurement to ``BENCH_kernel.json`` (checked in, so every engine
change moves a recorded line):

- **small fabrics**: at N=16 and N=128 every plane and enqueue batch is
  under the engine's size cutoff, so these rungs time the sequential
  kernels; N=512 and N=1024 time the array kernels.

- **end-to-end**: identical workload through both engines,
  :data:`VECTORIZED_REPEATS` timed runs of the fused engine and
  :data:`REFERENCE_REPEATS` of the reference loop per rung, alternating
  engines so a slow stretch of the host falls on both, reported as the
  median and quartiles of each engine's seconds, slots/second at the
  medians and the speedup ratio of the medians.  The hard gate is
  >= 20x at N >= 512 (full scale; ``--smoke`` records the ratio without
  gating) — the headroom ROADMAP item 5 needs for the paper's N=4096
  scale.
- **per-kernel**: a profiled vectorized run (telemetry hub carrying only
  a :class:`repro.sim.telemetry.PhaseProfiler`) breaks the slot loop
  into ``inject`` (enqueue kernels), the forwarding sub-phases ``seq``
  (the sequential kernel on planes under the cutoff) / ``drain`` /
  ``commit`` / ``repair`` / ``replay`` (the last only while event
  consumers are attached, so never here; ``forward`` keeps the residual
  glue and the delivery ledger fold), and ``stats`` (occupancy and
  max-VOQ bookkeeping), reported as ms/slot each — a regression names
  the guilty kernel, not just "forwarding got slower".  A hub changes
  neither the drain tiers nor the slot spans, so the profiled run
  takes the same code path as the timed one: the per-phase ms/slot and
  the slots/s figure describe one path.

On top of the absolute gate, every non-smoke median speedup is compared
against the checked-in ``benchmarks/kernel_baseline.json``: a >20% drop
fails the run, so a kernel regression cannot land silently even while
still clearing the absolute floor.  Cross-runner variance is what the
baseline-relative margin (and the recorded environment metadata)
absorbs: the gate compares speedup *ratios*, not raw seconds.

Every timed run must produce the identical report across engines and
repeats — asserted here on top of the dedicated differential tests, so
a speed regression can never hide a correctness one.
"""

import json
import statistics
import time
from pathlib import Path

from conftest import bench_environment

from repro.routing import SornRouter
from repro.schedules import build_sorn_schedule
from repro.sim import SimConfig, SlotSimulator, TelemetryHub
from repro.sim.telemetry import PhaseProfiler
from repro.topology import CliqueLayout
from repro.traffic import WEB_SEARCH, Workload, uniform_matrix

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
BASELINE_JSON = Path(__file__).resolve().parent / "kernel_baseline.json"

#: Absolute end-to-end floor at N >= 512 (ISSUE 6 acceptance criterion).
SPEEDUP_FLOOR = 20.0
#: Allowed drop vs the checked-in baseline speedup before CI fails.
REGRESSION_MARGIN = 0.20
#: Timed runs per rung of each engine; the gates read the medians.
VECTORIZED_REPEATS = 5
REFERENCE_REPEATS = 3

NUM_CLIQUES = 8
#: (num_nodes, slots) — saturated fabrics; slots shrink with N to keep
#: the reference-engine side of the measurement in CI budget.
FULL_SCALE = [(16, 2000), (128, 250), (512, 150), (1024, 80)]
SMOKE_SCALE = [(16, 400), (128, 120)]


def _fabric(num_nodes):
    layout = CliqueLayout.equal(num_nodes, NUM_CLIQUES)
    schedule = build_sorn_schedule(num_nodes, NUM_CLIQUES, q=2, layout=layout)
    schedule.compiled()  # compile outside the timed region
    return schedule, SornRouter(layout)


def _flows(num_nodes, slots):
    workload = Workload(
        uniform_matrix(num_nodes), WEB_SEARCH, load=2.5, cell_bytes=16384.0
    )
    return workload.generate(slots, rng=1)


def _timed_runs(schedule, router, flows, slots):
    """Wall-clock seconds of each engine's timed runs and the report
    every run must reproduce.  The engines alternate, so a slow stretch
    of the host falls on both rather than on one engine's runs."""
    repeats = {"reference": REFERENCE_REPEATS, "vectorized": VECTORIZED_REPEATS}
    seconds = {engine: [] for engine in repeats}
    report = None
    for i in range(max(repeats.values())):
        for engine, count in repeats.items():
            if i >= count:
                continue
            sim = SlotSimulator(schedule, router, SimConfig(engine=engine), rng=2)
            start = time.perf_counter()
            rep = sim.run(flows, slots, measure_from=0)
            seconds[engine].append(time.perf_counter() - start)
            if report is None:
                report = rep
            else:
                assert rep == report, f"{engine} run diverged from the first reference run"
    return seconds, report


def _spread(values):
    """Median and quartiles of *values*."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def _phase_breakdown(schedule, router, flows, slots):
    """Per-phase ms/slot of the fused engine, profiled on the timed path
    (a profiler-only hub keeps the drain tiers and the slot spans)."""
    profiler = PhaseProfiler()
    sim = SlotSimulator(
        schedule,
        router,
        SimConfig(engine="vectorized", telemetry=TelemetryHub([profiler])),
        rng=2,
    )
    sim.run(flows, slots, measure_from=0)
    return {
        phase: round(entry["seconds"] / slots * 1e3, 4)
        for phase, entry in profiler.summary().items()
    }


def test_kernel_throughput(report, smoke):
    """Reference vs fused engine at each N."""
    scales = SMOKE_SCALE if smoke else FULL_SCALE
    baselines = json.loads(BASELINE_JSON.read_text())["speedup"]
    results = []
    lines = []
    for num_nodes, slots in scales:
        schedule, router = _fabric(num_nodes)
        flows = _flows(num_nodes, slots)
        runs, sim_report = _timed_runs(schedule, router, flows, slots)
        ref_s, vec_s = _spread(runs["reference"]), _spread(runs["vectorized"])
        speedup = statistics.median(runs["reference"]) / statistics.median(
            runs["vectorized"]
        )
        phases = _phase_breakdown(schedule, router, flows, slots)
        results.append(
            {
                "num_nodes": num_nodes,
                "slots": slots,
                "delivered_cells": sim_report.delivered_cells,
                "reference_seconds": ref_s,
                "vectorized_seconds": vec_s,
                "reference_slots_per_s": round(slots / ref_s["median"], 1),
                "vectorized_slots_per_s": round(slots / vec_s["median"], 1),
                "speedup": round(speedup, 2),
                "phase_ms_per_slot": phases,
            }
        )
        gate = None if smoke or num_nodes < 512 else SPEEDUP_FLOOR
        lines.append(
            f"N={num_nodes:>5}  reference {slots / ref_s['median']:>7.1f} slots/s   "
            f"fused {slots / vec_s['median']:>8.1f} slots/s "
            f"(IQR {slots / vec_s['q3']:.0f}-{slots / vec_s['q1']:.0f})   "
            f"speedup {speedup:>6.2f}x"
            + (f" (gate >= {gate:.0f}x)" if gate else "")
        )

    payload = {
        "benchmark": "kernel_throughput",
        "environment": bench_environment(),
        "config": {
            "num_cliques": NUM_CLIQUES,
            "load": 2.5,
            "smoke": smoke,
            "speedup_floor": None if smoke else SPEEDUP_FLOOR,
            "regression_margin": REGRESSION_MARGIN,
            "vectorized_repeats": VECTORIZED_REPEATS,
            "reference_repeats": REFERENCE_REPEATS,
        },
        "results": results,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    report(
        "Fused slot kernels: end-to-end throughput, medians of "
        f"{VECTORIZED_REPEATS} fused and {REFERENCE_REPEATS} reference runs"
        + (" (smoke)" if smoke else ""),
        lines
        + [
            "phases (ms/slot): "
            + ", ".join(
                f"{r['num_nodes']}: {r['phase_ms_per_slot']}" for r in results
            ),
            f"written to {BENCH_JSON.name}",
        ],
    )

    if smoke:
        return
    for entry in results:
        key = str(entry["num_nodes"])
        if entry["num_nodes"] >= 512:
            assert entry["speedup"] >= SPEEDUP_FLOOR, (
                f"N={key}: median fused speedup {entry['speedup']}x under "
                f"the {SPEEDUP_FLOOR}x floor"
            )
        baseline = baselines.get(key)
        if baseline is not None:
            floor = baseline * (1.0 - REGRESSION_MARGIN)
            assert entry["speedup"] >= floor, (
                f"N={key}: median fused speedup {entry['speedup']}x regressed "
                f">20% below the checked-in baseline {baseline}x "
                f"(floor {floor:.1f}x)"
            )
