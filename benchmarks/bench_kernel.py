"""Benchmark: fused slot kernels — end-to-end and per-phase throughput.

Times the fused-kernel vectorized engine (:mod:`repro.sim.kernels` over
:class:`repro.sim.network.LinkedVoqState`) against the reference object
loop on saturated SORN fabrics at N ∈ {128, 512, 1024} and writes the
measurement to ``BENCH_kernel.json`` for CI regression tracking:

- **end-to-end**: identical workload through both engines, best-of-two
  wall clock each, reported as slots/second and a speedup ratio.  The
  hard gate is >= 20x at N >= 512 (full scale; ``--smoke`` records the
  ratio without gating) — the headroom ROADMAP item 5 needs for the
  paper's N=4096 scale.
- **per-kernel**: a profiled vectorized run (telemetry hub carrying only
  a :class:`repro.sim.telemetry.PhaseProfiler`) breaks the slot loop
  into ``inject`` (append_cells), the forwarding sub-phases ``drain`` /
  ``commit`` / ``repair`` (``forward`` keeps the residual glue and the
  delivery ledger fold), and ``stats`` (occupancy and max-VOQ
  bookkeeping), reported as ms/slot each — a regression names the
  guilty kernel, not just "forwarding got slower".  A hub changes
  neither the drain tiers nor the slot spans, so the profiled run
  takes the same code path as the timed one: the per-phase ms/slot and
  the slots/s figure describe one path.

On top of the absolute gate, every non-smoke speedup is compared against
the checked-in ``benchmarks/kernel_baseline.json``: a >20% drop fails
the run, so a kernel regression cannot land silently even while still
clearing the absolute floor.  Cross-runner variance is what the
baseline-relative margin (and the recorded environment metadata)
absorbs: the gate compares speedup *ratios*, not raw seconds.

Every timed run must produce the identical report across engines and
repeats — asserted here on top of the dedicated differential tests, so
a speed regression can never hide a correctness one.
"""

import json
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

NUM_CLIQUES = 8
#: (num_nodes, slots) — saturated fabrics; slots shrink with N to keep
#: the reference-engine side of the measurement in CI budget.
FULL_SCALE = [(128, 250), (512, 150), (1024, 80)]
SMOKE_SCALE = [(128, 120)]


def _fabric(num_nodes):
    layout = CliqueLayout.equal(num_nodes, NUM_CLIQUES)
    schedule = build_sorn_schedule(num_nodes, NUM_CLIQUES, q=2, layout=layout)
    schedule.dest_table()  # warm the shared cache outside the timed region
    return schedule, SornRouter(layout)


def _flows(num_nodes, slots):
    workload = Workload(
        uniform_matrix(num_nodes), WEB_SEARCH, load=2.5, cell_bytes=16384.0
    )
    return workload.generate(slots, rng=1)


def _timed_run(schedule, router, config, flows, slots, repeats=2):
    """Best-of-*repeats* wall clock and the (identical) report."""
    best, report = None, None
    for _ in range(repeats):
        sim = SlotSimulator(schedule, router, config, rng=2)
        start = time.perf_counter()
        rep = sim.run(flows, slots, measure_from=0)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
        if report is None:
            report = rep
        else:
            assert rep == report, "non-deterministic benchmark run"
    return best, report


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
        ref_s, ref_report = _timed_run(
            schedule, router, SimConfig(engine="reference"), flows, slots, repeats=1
        )
        vec_s, vec_report = _timed_run(
            schedule, router, SimConfig(engine="vectorized"), flows, slots
        )
        assert vec_report == ref_report, "fused engine diverged from reference"
        speedup = ref_s / vec_s
        phases = _phase_breakdown(schedule, router, flows, slots)
        results.append(
            {
                "num_nodes": num_nodes,
                "slots": slots,
                "delivered_cells": ref_report.delivered_cells,
                "reference_seconds": round(ref_s, 4),
                "vectorized_seconds": round(vec_s, 4),
                "reference_slots_per_s": round(slots / ref_s, 1),
                "vectorized_slots_per_s": round(slots / vec_s, 1),
                "speedup": round(speedup, 2),
                "phase_ms_per_slot": phases,
            }
        )
        gate = None if smoke or num_nodes < 512 else SPEEDUP_FLOOR
        lines.append(
            f"N={num_nodes:>5}  reference {slots / ref_s:>7.1f} slots/s   "
            f"fused {slots / vec_s:>8.1f} slots/s   "
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
        },
        "results": results,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    report(
        "Fused slot kernels: end-to-end throughput"
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
                f"N={key}: fused speedup {entry['speedup']}x under the "
                f"{SPEEDUP_FLOOR}x floor"
            )
        baseline = baselines.get(key)
        if baseline is not None:
            floor = baseline * (1.0 - REGRESSION_MARGIN)
            assert entry["speedup"] >= floor, (
                f"N={key}: fused speedup {entry['speedup']}x regressed >20% "
                f"below the checked-in baseline {baseline}x (floor {floor:.1f}x)"
            )
