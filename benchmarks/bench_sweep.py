"""Benchmark: sweep execution — process fan-out, result cache, batching.

Times the three speed layers of :mod:`repro.exp` on one multi-seed
``sorn_sim`` sweep and writes the measurement to ``BENCH_sweep.json``.
After one untimed serial warm-up, each of :data:`REPEATS` repeats times
every path back to back and divides that repeat's serial seconds by each
path's, so a ratio compares runs made under the same host load; the
JSON records the median and quartiles of each path's seconds and of
each ratio, and the gates read the medians:

- **parallel**: the same points through ``workers >= 2`` process
  fan-out, gated at :data:`PARALLEL_FLOOR` when the host has two cores
  (single-core hosts and ``--smoke`` record the ratio without gating);
- **cold / warm cache**: a run that fills a fresh
  :class:`repro.exp.cache.ResultCache`, then a second run against it;
  the warm run is gated at :data:`WARM_FLOOR` over serial on any host —
  a warm sweep is file reads, not simulations;
- **seed batching**: ``run_batch`` building the config's layout,
  schedule, router and flow population once and running every seed on
  that shared setup (recorded, not gated; the bit-exactness is what the
  differential tests gate).

Every run must return bit-identical results to the serial warm-up —
that is asserted here on top of the dedicated differential tests, so a
speed regression can never hide a correctness one.
"""

import json
import os
import statistics
import time
from pathlib import Path

from conftest import bench_environment

from repro.exp import ResultCache, SweepPoint, SweepRunner

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

#: Timed repeats per path (after one untimed serial warm-up).
REPEATS = 7

#: Median parallel/serial floor: 20% under the lowest of 23 seven-repeat
#: medians (0.77-1.71x) measured on a 2-vCPU Xeon.  Most runs there read
#: 0.82-0.90x, because the two workers' CPU time adds up to the run's
#: wall time (they share one vCPU); 3 of the 23 read 1.4-1.7x.  The gate
#: fails a fan-out that costs well over 1.5x a serial run.
PARALLEL_FLOOR = 0.6

#: Median warm-cache/serial floor (medians of 22.7-28.8x on the same host).
WARM_FLOOR = 5.0

PATHS = ("serial", "parallel", "batched", "cold", "warm")


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


def _spread(values):
    """Median and quartiles of *values*."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def test_sweep_execution_speedup(report, smoke, tmp_path):
    """Serial vs parallel vs seed-batched vs cold and warm cache."""
    if smoke:
        num_seeds, nodes, slots = 4, 16, 250
    else:
        num_seeds, nodes, slots = 8, 32, 600
    cores = os.cpu_count() or 1
    workers = min(4, max(2, cores))
    points = _points(num_seeds, nodes, slots)
    runners = {
        "serial": SweepRunner(workers=0, batch_seeds=False),
        "parallel": SweepRunner(workers=workers, batch_seeds=False),
        "batched": SweepRunner(workers=0, batch_seeds=True),
    }
    expected = runners["serial"].run(points)

    seconds = {path: [] for path in PATHS}
    for repeat in range(REPEATS):
        cache = ResultCache(root=str(tmp_path / f"cache-{repeat}"))
        cached = SweepRunner(workers=0, cache=cache, batch_seeds=False)
        for path, runner in (*runners.items(), ("cold", cached), ("warm", cached)):
            start = time.perf_counter()
            results = runner.run(points)
            seconds[path].append(time.perf_counter() - start)
            assert results == expected, f"{path} run diverged from serial"
        assert cache.stats() == {
            "hits": num_seeds,
            "misses": num_seeds,
            "stores": num_seeds,
            "invalidations": 0,
        }
    speedup = {
        path: _spread([s / t for s, t in zip(seconds["serial"], seconds[path])])
        for path in ("parallel", "batched", "warm")
    }
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
            "repeats": REPEATS,
            "smoke": smoke,
        },
        "seconds": {path: _spread(values) for path, values in seconds.items()},
        "speedup": speedup,
        "parallel_floor": PARALLEL_FLOOR if gate_parallel else None,
        "warm_floor": WARM_FLOOR,
        "results_identical": True,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    lines = []
    for path in PATHS:
        spread = payload["seconds"][path]
        line = (
            f"{path:<9} {spread['median']:>8.4f} s "
            f"(IQR {spread['q1']:.4f}-{spread['q3']:.4f})"
        )
        if path in speedup:
            ratio = speedup[path]
            line += (
                f"  {ratio['median']:>6.2f}x "
                f"(IQR {ratio['q1']:.2f}-{ratio['q3']:.2f})"
            )
        lines.append(line)
    lines.append(
        f"gates on medians: parallel "
        f"{'>= %.1fx' % PARALLEL_FLOOR if gate_parallel else 'off'}, "
        f"warm >= {WARM_FLOOR:.0f}x; written to {BENCH_JSON.name}"
    )
    report(
        f"Sweep execution: {num_seeds} seeds x N={nodes}, {slots} slots, "
        f"{workers} workers, {REPEATS} repeats" + (" (smoke)" if smoke else ""),
        lines,
    )

    assert speedup["warm"]["median"] >= WARM_FLOOR
    if gate_parallel:
        assert speedup["parallel"]["median"] >= PARALLEL_FLOOR
