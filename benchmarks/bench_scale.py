"""Benchmark: paper-scale slot-sim memory/throughput + flow-model speed.

Runs the fused vectorized engine on SORN fabrics at N ∈ {1024, 2048,
4096} — the largest being the paper's Table 1 fabric (N=4096, Nc=64 at
the optimal q for x=0.56) — and writes the measurement to
``BENCH_scale.json`` for CI regression tracking:

- **slots/s**: wall clock of untraced runs from ``start``'s return to
  ``finish``'s return, the window perfbench's ``slots_per_s`` times
  (the schedule, its compiled bank and index, the router, the workload,
  the simulator and the session start's neighbor-rank build all stay
  outside it).  Every rung gets one untimed warmup run, then
  :data:`REPEATS` timed runs; the median and quartiles of their slots/s
  are recorded.  The paper-scale N=4096 rung carries a hard floor on
  the median so a slot-loop or kernel regression at the scale the paper
  actually ran cannot land silently.  Each rung's ``Workload.generate``
  call is timed on its own and recorded as ``generate_seconds``, never
  gated.
- **peak memory**: one more identical run under ``tracemalloc`` (numpy
  registers its buffers with the tracer, so the per-neighbor VOQ
  arrays, cell tables and route tables are all seen); ``reset_peak``
  before each run makes the peaks per-N rather than monotonic.  The
  hard gate is a per-N byte budget sized ~30% above the measured
  footprint of the chunked-presampling + int32 engine, so dtype or
  chunking regressions (e.g. int64 counters, whole-run presample
  blocks, dense per-pair VOQs) fail CI.
- **set-up memory**: the ``tracemalloc`` peak of building
  ``paper-n4096``'s flow table at N=4096 — ``clustered_matrix``, then
  ``Workload(...)``, then a 500-slot ``generate`` — recorded as
  ``setup_peak_mib`` and gated at :data:`SETUP_BUDGET_RATIO` times the
  demand matrix's bytes, so an N x N temporary beside the matrix (a
  whole pair CDF, a clique mask) fails CI.  The engine budgets never
  see this step, and it sets ``paper-n4096``'s peak.
- **flow-level model**: builds :class:`repro.sim.flowlevel.
  FlowLevelModel` for both Table 1 rows (Nc=64 *and* Nc=32 — the Nc=32
  realized schedule's period is ~240k slots, far beyond what the slot
  engine can hold, which is exactly the regime the flow model exists
  for) and evaluates one million sampled flows per row, recording
  model-build, flow-table sampling and evaluate seconds plus flows/s.
  Never gated on speed; the evaluated reports must be stable and
  finite.

The two slot-engine runs must produce identical reports (determinism
assert), so a memory measurement can never hide a correctness change.
``--smoke`` runs a reduced ladder and records without gating.
"""

import json
import statistics
import time
import tracemalloc
from pathlib import Path

from conftest import bench_environment

from repro.analysis import optimal_q
from repro.routing import SornRouter
from repro.schedules import build_sorn_schedule
from repro.sim import SimConfig, SlotSimulator
from repro.sim.flowlevel import FlowLevelModel, sample_flow_arrays
from repro.topology import CliqueLayout
from repro.traffic import FlowSizeDistribution, Workload, clustered_matrix
from repro.util import ensure_rng

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_scale.json"

#: The paper's Table 1 operating point.
LOCALITY = 0.56
LOAD = 0.30

#: Timed runs per rung (after one untimed warmup).
REPEATS = 5

#: Median slots/s floor at the paper's N=4096 rung, 20% under the lowest
#: of five 5-run medians (507-643 slots/s, quartiles within 473-683) on
#: a 2-vCPU Xeon, timed from ``start``'s return to ``finish``'s return.
SCALE_FLOOR_SLOTS_PER_S = 405.0

#: (num_nodes, num_cliques, q, slots, peak-byte budget, slots/s floor).
#: q is the optimal 2/(1-x) at N=1024 and N=4096.  The N=2048 rung has
#: always run at q=2 and keeps it so its BENCH_scale.json history stays
#: comparable — the memory ladder cares about N, not q.  Budgets are ~30% above the
#: measured footprint of the int32 + chunked-presampling engine with
#: per-neighbor VOQs: 10.5, 18.1 and 48.5 MiB at N=1024, 2048 and 4096
#: (the N=4096 peak is the session start's neighbor-rank build; the run
#: itself holds ~38 MiB).  Only the paper-scale rung carries a
#: throughput floor: smaller rungs finish too fast on a busy runner for
#: a stable gate.
FULL_SCALE = [
    (1024, 32, optimal_q(LOCALITY), 200, 14 * 2**20, None),
    (2048, 32, 2.0, 120, 24 * 2**20, None),
    (4096, 64, optimal_q(LOCALITY), 80, 64 * 2**20, SCALE_FLOOR_SLOTS_PER_S),
]
SMOKE_SCALE = [(256, 16, optimal_q(LOCALITY), 120, None, None)]

#: The set-up rung: ``paper-n4096``'s fabric and horizon (num_nodes,
#: num_cliques, slots).
FULL_SETUP = (4096, 64, 500)
SMOKE_SETUP = (256, 16, 120)
#: Set-up peak budget, as a multiple of the demand matrix's bytes.
SETUP_BUDGET_RATIO = 1.25

#: Flow-model rows: the two Table 1 clique counts at paper scale.
FLOW_MODEL_NODES = 4096
FLOW_MODEL_CLIQUES = (64, 32)
FLOW_MODEL_FLOWS = 1_000_000


def _fabric(num_nodes, num_cliques, q):
    schedule = build_sorn_schedule(num_nodes, num_cliques, q=q)
    schedule.compiled()  # compile outside the measured region
    return schedule, SornRouter(schedule.layout)


def _workload(layout):
    return Workload(
        clustered_matrix(layout, LOCALITY),
        FlowSizeDistribution.fixed(4500),
        load=LOAD,
        cell_bytes=1500.0,
    )


def _flows(schedule, slots):
    """The rung's flow table and the seconds ``generate`` took."""
    workload = _workload(schedule.layout)
    start = time.perf_counter()
    flows = workload.generate(slots, rng=1)
    return flows, time.perf_counter() - start


def _run(schedule, router, flows, slots):
    """One run's report and the seconds from ``start``'s return to
    ``finish``'s return."""
    sim = SlotSimulator(
        schedule, router, SimConfig(engine="vectorized"), rng=2
    )
    session = sim.start(flows, slots, measure_from=slots // 2)
    start = time.perf_counter()
    report = session.finish()
    return report, time.perf_counter() - start


def _setup_peak(num_nodes, num_cliques, slots):
    """The ``tracemalloc`` peak of building a rung's flow table from
    nothing, and the demand matrix's bytes."""
    layout = CliqueLayout.equal(num_nodes, num_cliques)
    tracemalloc.start()
    tracemalloc.reset_peak()
    workload = _workload(layout)
    workload.generate(slots, rng=1)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, workload.matrix.rates.nbytes


def test_scale_memory_and_throughput(report, smoke):
    """Slot engine at N ∈ {1024, 2048, 4096}: slots/s + gated peak RSS."""
    scales = SMOKE_SCALE if smoke else FULL_SCALE
    results = []
    lines = []
    for num_nodes, num_cliques, q, slots, budget, floor in scales:
        schedule, router = _fabric(num_nodes, num_cliques, q)
        flows, generate_s = _flows(schedule, slots)
        warm_report, _ = _run(schedule, router, flows, slots)  # untimed warmup
        rates = []
        for _ in range(REPEATS):
            timed_report, seconds = _run(schedule, router, flows, slots)
            rates.append(slots / seconds)
            assert timed_report == warm_report, "non-deterministic benchmark run"
        q1, median, q3 = statistics.quantiles(rates, n=4, method="inclusive")
        tracemalloc.start()
        tracemalloc.reset_peak()
        traced_report, _ = _run(schedule, router, flows, slots)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert traced_report == timed_report, "non-deterministic benchmark run"
        results.append(
            {
                "num_nodes": num_nodes,
                "num_cliques": num_cliques,
                "q": round(schedule.q, 4),
                "slots": slots,
                "num_flows": len(flows),
                "generate_seconds": round(generate_s, 4),
                "delivered_cells": timed_report.delivered_cells,
                "repeats": REPEATS,
                "seconds": round(slots / median, 4),
                "slots_per_s": round(median, 1),
                "slots_per_s_q1": round(q1, 1),
                "slots_per_s_q3": round(q3, 1),
                "slots_per_s_floor": floor,
                "peak_bytes": peak,
                "peak_mib": round(peak / 2**20, 1),
                "budget_bytes": budget,
            }
        )
        lines.append(
            f"N={num_nodes:>5} Nc={num_cliques:>3}  "
            f"{median:>7.1f} slots/s (IQR {q1:.0f}-{q3:.0f})"
            + (f" (floor {floor:.0f})" if floor else "")
            + f"   peak {peak / 2**20:>7.1f} MiB"
            + (f" (budget {budget / 2**20:.0f} MiB)" if budget else "")
        )

    setup_nodes, setup_cliques, setup_slots = SMOKE_SETUP if smoke else FULL_SETUP
    setup_peak, matrix_bytes = _setup_peak(setup_nodes, setup_cliques, setup_slots)
    setup = {
        "num_nodes": setup_nodes,
        "num_cliques": setup_cliques,
        "slots": setup_slots,
        "matrix_mib": round(matrix_bytes / 2**20, 1),
        "setup_peak_bytes": setup_peak,
        "setup_peak_mib": round(setup_peak / 2**20, 1),
        "budget_bytes": int(SETUP_BUDGET_RATIO * matrix_bytes),
    }
    lines.append(
        f"set-up N={setup_nodes:>5} Nc={setup_cliques:>3}  "
        f"peak {setup_peak / 2**20:.1f} MiB = "
        f"{setup_peak / matrix_bytes:.2f}x the {matrix_bytes / 2**20:.1f} MiB "
        f"matrix (budget {SETUP_BUDGET_RATIO}x)"
    )

    flow_results = []
    if not smoke:
        rng = ensure_rng(3)
        for nc in FLOW_MODEL_CLIQUES:
            start = time.perf_counter()
            schedule = build_sorn_schedule(
                FLOW_MODEL_NODES, nc, q=optimal_q(LOCALITY)
            )
            model = FlowLevelModel(
                schedule,
                SornRouter(schedule.layout),
                load=LOAD,
                locality=LOCALITY,
            )
            build_s = time.perf_counter() - start
            start = time.perf_counter()
            flows = sample_flow_arrays(
                schedule.layout, LOCALITY, FLOW_MODEL_FLOWS, rng
            )
            sample_s = time.perf_counter() - start
            start = time.perf_counter()
            flow_report = model.evaluate(flows)
            eval_s = time.perf_counter() - start
            assert flow_report.stable, "Table 1 operating point went unstable"
            assert flow_report.mean_fct is not None
            flow_results.append(
                {
                    "num_nodes": FLOW_MODEL_NODES,
                    "num_cliques": nc,
                    "num_flows": FLOW_MODEL_FLOWS,
                    "build_seconds": round(build_s, 4),
                    "sample_seconds": round(sample_s, 4),
                    "evaluate_seconds": round(eval_s, 4),
                    "flows_per_s": round(FLOW_MODEL_FLOWS / eval_s, 1),
                    "mean_fct_slots": round(flow_report.mean_fct, 2),
                    "p99_fct_slots": round(flow_report.fct_percentile(99.0), 2),
                    "mean_slowdown": round(flow_report.mean_slowdown, 3),
                    "saturation_throughput": round(
                        flow_report.saturation_throughput, 6
                    ),
                }
            )
            lines.append(
                f"flow model N={FLOW_MODEL_NODES} Nc={nc:>3}  "
                f"{FLOW_MODEL_FLOWS / eval_s:>11.1f} flows/s   "
                f"mean FCT {flow_report.mean_fct:>9.1f} slots"
            )

    payload = {
        "benchmark": "scale",
        "environment": bench_environment(),
        "config": {
            "locality": LOCALITY,
            "load": LOAD,
            "smoke": smoke,
        },
        "results": results,
        "setup": setup,
        "flow_model": flow_results,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    report(
        "Paper-scale ladder: slot engine memory/throughput + flow model"
        + (" (smoke)" if smoke else ""),
        lines + [f"written to {BENCH_JSON.name}"],
    )

    if smoke:
        return
    assert setup["setup_peak_bytes"] <= setup["budget_bytes"], (
        f"set-up peak {setup['setup_peak_mib']} MiB over {SETUP_BUDGET_RATIO}x "
        f"the {setup['matrix_mib']} MiB demand matrix — an N x N temporary "
        f"beside the matrix?"
    )
    for entry in results:
        assert entry["peak_bytes"] <= entry["budget_bytes"], (
            f"N={entry['num_nodes']}: peak {entry['peak_mib']} MiB over the "
            f"{entry['budget_bytes'] / 2**20:.0f} MiB budget — a dtype or "
            f"presampling-chunk regression?"
        )
        if entry["slots_per_s_floor"] is not None:
            assert entry["slots_per_s"] >= entry["slots_per_s_floor"], (
                f"N={entry['num_nodes']}: median {entry['slots_per_s']} slots/s "
                f"under the {entry['slots_per_s_floor']:.0f} slots/s floor — "
                f"a slot-batch driver or kernel regression at paper scale"
            )
