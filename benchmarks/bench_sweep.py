"""Benchmark: sweep execution — process fan-out, result cache, batching.

Times the three speed layers of :mod:`repro.exp` on one multi-seed
``sorn_sim`` sweep and writes the measurement to ``BENCH_sweep.json``
for CI regression tracking:

- **parallel**: the same points through ``workers >= 2`` process
  fan-out, gated at >= 2x over serial when the host actually has two
  cores (single-core hosts and ``--smoke`` record the ratio without
  gating);
- **cached-warm**: a second run against a freshly filled
  :class:`repro.exp.cache.ResultCache`, gated at >= 5x over serial on
  any host — a warm sweep is file reads, not simulations;
- **seed batching**: ``run_batch`` building the config's layout,
  schedule, router and flow population once and running every seed on
  that shared setup (recorded, not gated; the bit-exactness is what the
  differential tests gate).

Every path must return bit-identical results to the serial baseline —
that is asserted here on top of the dedicated differential tests, so a
speed regression can never hide a correctness one.
"""

import json
import os
import time
from pathlib import Path

from conftest import bench_environment

from repro.exp import ResultCache, SweepPoint, SweepRunner

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

PARALLEL_THRESHOLD = 2.0
WARM_THRESHOLD = 5.0


def _points(num_seeds, nodes, slots):
    params = {
        "nodes": nodes,
        "cliques": 4,
        "locality": 0.7,
        "load": 0.9,
        "slots": slots,
        "size_cells": 8,
        "telemetry": False,
        "flow_seed": 3,
        "engine": "vectorized",
    }
    return [SweepPoint("sorn_sim", params, seed=seed) for seed in range(num_seeds)]


def _timed(runner, points, repeats=2):
    """Best-of-*repeats* wall clock and the (identical) results."""
    best, results = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        out = runner.run(points)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
        if results is None:
            results = out
        else:
            assert out == results, "non-deterministic sweep run"
    return best, results


def test_sweep_execution_speedup(report, smoke, tmp_path):
    """Serial vs parallel vs cached-warm vs seed-batched, one sweep."""
    if smoke:
        num_seeds, nodes, slots = 4, 16, 250
    else:
        num_seeds, nodes, slots = 8, 32, 600
    cores = os.cpu_count() or 1
    workers = min(4, max(2, cores))
    points = _points(num_seeds, nodes, slots)

    serial_s, serial = _timed(SweepRunner(workers=0, batch_seeds=False), points)
    parallel_s, parallel = _timed(
        SweepRunner(workers=workers, batch_seeds=False), points
    )
    batched_s, batched = _timed(SweepRunner(workers=0, batch_seeds=True), points)

    cache = ResultCache(root=str(tmp_path / "cache"))
    cold_runner = SweepRunner(workers=0, cache=cache, batch_seeds=False)
    cold_s, cold = _timed(cold_runner, points, repeats=1)
    warm_s, warm = _timed(cold_runner, points)

    assert parallel == serial, "parallel run diverged from serial"
    assert batched == serial, "seed-batched run diverged from serial"
    assert cold == serial, "cache-cold run diverged from serial"
    assert warm == cold, "cache-warm run diverged from cold"
    assert cache.hits >= 2 * num_seeds and cache.invalidations == 0

    parallel_speedup = serial_s / parallel_s
    batch_speedup = serial_s / batched_s
    warm_speedup = serial_s / warm_s
    gate_parallel = cores >= 2 and not smoke
    payload = {
        "benchmark": "sweep_execution_speedup",
        "environment": bench_environment(),
        "config": {
            "num_seeds": num_seeds,
            "nodes": nodes,
            "slots": slots,
            "workers": workers,
            "cpu_count": cores,
            "smoke": smoke,
        },
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(parallel_s, 4),
        "batched_seconds": round(batched_s, 4),
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 4),
        "parallel_speedup": round(parallel_speedup, 2),
        "batch_speedup": round(batch_speedup, 2),
        "warm_speedup": round(warm_speedup, 2),
        "parallel_threshold": PARALLEL_THRESHOLD if gate_parallel else None,
        "warm_threshold": WARM_THRESHOLD,
        "results_identical": True,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    report(
        f"Sweep execution: {num_seeds} seeds x N={nodes}, {slots} slots"
        + (" (smoke)" if smoke else ""),
        [
            f"serial          {serial_s:>8.2f} s",
            f"parallel (x{workers})   {parallel_s:>8.2f} s "
            f"({parallel_speedup:.2f}x, gate "
            f"{'>= %.1fx' % PARALLEL_THRESHOLD if gate_parallel else 'off'})",
            f"replica batch   {batched_s:>8.2f} s ({batch_speedup:.2f}x)",
            f"cached warm     {warm_s:>8.4f} s "
            f"({warm_speedup:.0f}x, gate >= {WARM_THRESHOLD:.0f}x)",
            f"written to {BENCH_JSON.name}",
        ],
    )

    assert warm_speedup >= WARM_THRESHOLD
    if gate_parallel:
        assert parallel_speedup >= PARALLEL_THRESHOLD
