"""The benchmark's three workloads, their output checks and digests.

Every workload runs in-process, serially (sweeps as with ``--workers
0``), with the seed as its only input.  An *operation* is one slot-engine
run, one sweep point or one flow-model row; it fails if it raises or if
its output check fails.  Simulated statistics are checked here, never
timed.

``full`` is the measured scale; ``smoke`` is a tiny scale of the same
code paths for the benchmark's own tests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import uuid
from pathlib import Path

from repro.analysis import optimal_q, sorn_throughput
from repro.control import AdaptiveSimulation, RuntimeConfig
from repro.exp import (
    ResultCache,
    SweepPoint,
    SweepRunner,
    drifting_locality_flows,
    factory,
    register_family,
)
from repro.routing import SornRouter
from repro.schedules import build_sorn_schedule
from repro.sim import EpochTransitionCollector, SimConfig, SlotSimulator, TelemetryHub
from repro.traffic import FlowSizeDistribution, Workload, clustered_matrix

REPO = Path(__file__).resolve().parent.parent
#: Seed-free N=4096 flow-model fields, read (never written) as an oracle.
FLOWLEVEL_GOLDEN = REPO / "tests" / "integration" / "goldens" / "flowlevel_4096.json"

#: The Table 1 operating point.
LOCALITY = 0.56
LOAD = 0.30
#: The Fig 2(f) localities, as ``sorn-repro fig2f`` sweeps them.
FIG2F_LOCALITIES = [i / 10 for i in range(10)]
#: The one drifting flow trace ``adaptive-drift`` replays (see _drift_point).
DRIFT_FLOW_SEED = 1

SCALES = {
    "full": {
        "paper-n4096": {"nodes": 4096, "cliques": 64, "slots": 500,
                        "flows": 250_000, "flow_cliques": [64, 32]},
        "fig2f-n128": {"nodes": 128, "cliques": 8, "slots": 600},
        "adaptive-drift": {"nodes": 16, "cliques": 4, "epochs": 40,
                           "epoch_slots": 150},
    },
    "smoke": {
        "paper-n4096": {"nodes": 256, "cliques": 16, "slots": 120,
                        "flows": 20_000, "flow_cliques": [16, 8]},
        "fig2f-n128": {"nodes": 32, "cliques": 4, "slots": 200},
        "adaptive-drift": {"nodes": 16, "cliques": 4, "epochs": 8,
                           "epoch_slots": 40},
    },
}


class Outcome:
    """What one workload run produced: operation verdicts and outputs."""

    def __init__(self):
        self.ops: list = []
        self.problems: list = []  # run-level (isolation) problems
        self.outputs: dict = {}

    def op(self, name: str, problems: list) -> None:
        self.ops.append({"name": name, "ok": not problems, "problems": problems})

    def ops_raised(self, names, exc: BaseException) -> None:
        for name in names:
            self.op(name, [f"raised {type(exc).__name__}: {exc}"])


def digest(outputs) -> str:
    """SHA-256 of the canonical JSON form of simulated *outputs*."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _runner() -> SweepRunner:
    """The CLI's default sweep path: serial, result cache and journal on
    (the cache and journal roots come from ``$REPRO_CACHE_DIR`` and
    ``$REPRO_RUNS_DIR``, fresh and empty for every run)."""
    return SweepRunner(workers=0, cache=ResultCache())


def _run_id() -> str:
    return f"bench-{uuid.uuid4().hex[:10]}"


def _isolation(outcome: Outcome, runner: SweepRunner) -> None:
    hits = runner.cache.hits
    if hits:
        outcome.problems.append(f"{hits} result-cache hits: the run was not isolated")


def _close(value, expected: float, rel: float) -> bool:
    return value is not None and math.isclose(value, expected, rel_tol=rel)


def paper_n4096(seed: int, cfg: dict) -> Outcome:
    """Table 1 fabric: one long slot-engine run, then the flow-model rows."""
    out = Outcome()
    n, nc, slots = cfg["nodes"], cfg["cliques"], cfg["slots"]
    try:
        schedule = build_sorn_schedule(n, nc, q=optimal_q(LOCALITY))
        flows = Workload(
            clustered_matrix(schedule.layout, LOCALITY),
            FlowSizeDistribution.fixed(4500),
            load=LOAD,
            cell_bytes=1500.0,
        ).generate(slots, rng=seed)
        sim = SlotSimulator(
            schedule,
            SornRouter(schedule.layout),
            SimConfig(engine="vectorized"),
            rng=seed + 1,
        )
        session = sim.start(flows, slots, measure_from=slots // 2)
        cp = session.run_segment()
        report = session.finish()
        problems = []
        if cp.slot != slots:
            problems.append(f"stopped at slot {cp.slot}, not {slots}")
        if cp.injected_cells != cp.delivered_cells + cp.in_flight_cells:
            problems.append("cells not conserved at the horizon")
        if report.delivered_cells != cp.delivered_cells:
            problems.append("report and checkpoint disagree on delivered cells")
        if report.delivered_cells <= 0:
            problems.append("no cell delivered")
        out.op("slot-engine run", problems)
        out.outputs["slot_run"] = {
            "report": report.to_dict(),
            "checkpoint": dataclasses.asdict(cp),
        }
        del sim, session, flows
    except Exception as exc:  # noqa: BLE001 - an operation that raised
        out.ops_raised(["slot-engine run"], exc)

    # ``sorn-repro table1 --model flow``: the analytic table, then one
    # flow-model row per clique count.
    names = ["table1"] + [f"flow row Nc={c}" for c in cfg["flow_cliques"]]
    runner = _runner()
    try:
        base = _run_id()
        [table] = runner.run(
            [SweepPoint("table1", {"nodes": n, "locality": LOCALITY})],
            run_id=base,
        )
        out.op(names[0], [] if table["rows"] else ["empty table"])
        rows = runner.run(
            [
                SweepPoint(
                    "flowlevel",
                    {"nodes": n, "cliques": c, "locality": LOCALITY,
                     "load": LOAD, "flows": cfg["flows"]},
                    seed,
                )
                for c in cfg["flow_cliques"]
            ],
            run_id=base + "-flow",
        )
        golden = _flowlevel_golden(n)
        for name, nc_row, row in zip(names[1:], cfg["flow_cliques"], rows):
            out.op(name, _check_flow_row(row, cfg["flows"], golden.get(nc_row)))
        out.outputs["table1"] = table
        out.outputs["flow_rows"] = rows
    except Exception as exc:  # noqa: BLE001
        out.ops_raised(names[len(out.ops) - 1:], exc)
    _isolation(out, runner)
    return out


def _flowlevel_golden(nodes: int) -> dict:
    """Golden rows by clique count, when the golden covers this fabric."""
    golden = json.loads(FLOWLEVEL_GOLDEN.read_text())
    config = golden["config"]
    if (config["nodes"], config["locality"], config["load"]) != (nodes, LOCALITY, LOAD):
        return {}
    return {row["num_cliques"]: row for row in golden["rows"]}


def _check_flow_row(row: dict, flows: int, golden) -> list:
    problems = []
    if not _close(row["saturation_throughput"], sorn_throughput(LOCALITY), 1e-9):
        problems.append(
            f"saturation throughput {row['saturation_throughput']} != 1/(3-x)"
        )
    if not row["stable"]:
        problems.append("Table 1 operating point unstable")
    if row["num_flows"] != flows:
        problems.append(f"{row['num_flows']} flows evaluated, not {flows}")
    fct = row["mean_fct_slots"]
    if fct is None or not fct > 0:
        problems.append(f"mean FCT {fct}")
    if golden is not None:
        for field in ("saturation_throughput", "bottleneck_utilization"):
            if not _close(row[field], golden[field], 1e-9):
                problems.append(f"{field} {row[field]} != golden {golden[field]}")
        for field in ("bottleneck", "stable"):
            if row[field] != golden[field]:
                problems.append(f"{field} {row[field]} != golden {golden[field]}")
    return problems


def fig2f_n128(seed: int, cfg: dict) -> Outcome:
    """``sorn-repro fig2f --simulate``: ten localities through the runner."""
    out = Outcome()
    names = [f"fig2f x={x:.1f}" for x in FIG2F_LOCALITIES]
    runner = _runner()
    try:
        results = runner.run(
            [
                SweepPoint(
                    "fig2f_point",
                    {"nodes": cfg["nodes"], "cliques": cfg["cliques"],
                     "locality": x, "slots": cfg["slots"], "engine": "vectorized"},
                    seed,
                )
                for x in FIG2F_LOCALITIES
            ],
            run_id=_run_id(),
        )
        for name, x, res in zip(names, FIG2F_LOCALITIES, results):
            problems = []
            # The band tests/integration/test_fig2f_reproduction.py allows.
            if not _close(res["fluid"], sorn_throughput(x), 0.03):
                problems.append(f"fluid {res['fluid']} not within 3% of 1/(3-x)")
            if not 0.0 < res["simulated"] <= 1.0:
                problems.append(f"simulated throughput {res['simulated']}")
            out.op(name, problems)
        out.outputs["points"] = results
    except Exception as exc:  # noqa: BLE001
        out.ops_raised(names, exc)
    _isolation(out, runner)
    return out


def _drift_point(params: dict, seed) -> dict:
    """Family ``perfbench_drift``: one point of the ``fig-adaptive`` pair.

    The body of the ``fig_adaptive`` (``system="adaptive"``) and
    ``oblivious_baseline`` families with one difference: the drifting
    flow trace is seeded by ``params["flow_seed"]``, as ``sorn_sim``
    seeds its flows, and *seed* drives only the simulator's routing
    draws.  The locality estimates, and so the q* retunes the control
    loop plans, follow the trace alone; each retune's cost grows with
    the period of the candidate schedule, which jumps with the rational
    approximation of q*.  Seeding the trace per run would make the
    control path's cost differ between seeds by a factor of three.
    """
    n, nc = params["nodes"], params["cliques"]
    duration = params["epochs"] * params["epoch_slots"]
    phases = [float(x) for x in params["phases"].split(",")]
    flows = drifting_locality_flows(
        factory.layout(n, nc), phases, max(1, duration // len(phases)),
        params["load"], params["flow_seed"],
    )
    if params["system"] == "oblivious":
        report = SlotSimulator(
            factory.round_robin_schedule(n),
            factory.vlb_router(n),
            SimConfig(engine="vectorized"),
            rng=seed,
        ).run(flows, duration)
        return {"delivered_cells": report.delivered_cells}
    sim = AdaptiveSimulation(
        factory.sorn_schedule(n, nc, params["initial_q"]),
        factory.sorn_router(n, nc),
        RuntimeConfig(epoch_slots=params["epoch_slots"]),
        config=SimConfig(
            engine="vectorized",
            telemetry=TelemetryHub([EpochTransitionCollector()]),
        ),
        rng=seed,
    )
    result = sim.run(flows, duration)
    return {
        "epochs": [dataclasses.asdict(e) for e in result.epochs],
        "summary": result.summary(),
        "delivered_cells": result.report.delivered_cells,
    }


register_family("perfbench_drift", _drift_point)


def adaptive_drift(seed: int, cfg: dict) -> Outcome:
    """``sorn-repro fig-adaptive``: the closed loop and its static baseline."""
    out = Outcome()
    base = {
        "nodes": cfg["nodes"],
        "cliques": cfg["cliques"],
        "epochs": cfg["epochs"],
        "epoch_slots": cfg["epoch_slots"],
        "phases": "0.3,0.7,0.9",
        "load": 0.5,
        "flow_seed": DRIFT_FLOW_SEED,
    }
    names = ["fig_adaptive", "oblivious_baseline"]
    runner = _runner()
    try:
        adaptive, baseline = runner.run(
            [
                SweepPoint("perfbench_drift", dict(base, system="adaptive", initial_q=1.0),
                           seed),
                SweepPoint("perfbench_drift", dict(base, system="oblivious"), seed),
            ],
            run_id=_run_id(),
        )
        problems = []
        if not adaptive["epochs"]:
            problems.append("no epoch history")
        if adaptive["delivered_cells"] < baseline["delivered_cells"]:
            problems.append(
                f"adaptive delivered {adaptive['delivered_cells']} < oblivious "
                f"baseline {baseline['delivered_cells']}"
            )
        out.op(names[0], problems)
        out.op(names[1], [] if baseline["delivered_cells"] > 0 else ["no delivery"])
        out.outputs["adaptive"] = adaptive
        out.outputs["baseline"] = baseline
    except Exception as exc:  # noqa: BLE001
        out.ops_raised(names, exc)
    _isolation(out, runner)
    return out


WORKLOADS = {
    "paper-n4096": paper_n4096,
    "fig2f-n128": fig2f_n128,
    "adaptive-drift": adaptive_drift,
}


def run(name: str, seed: int, scale: str = "full") -> Outcome:
    return WORKLOADS[name](seed, SCALES[scale][name])
