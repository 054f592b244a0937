"""Sweep-point families: named, versioned result-producing functions.

A *family* is the unit of work a :class:`repro.exp.runner.SweepRunner`
executes: a named function from ``(params, seed)`` to a JSON-safe plain
result, registered in a process-wide registry so worker processes can
resolve it by name (the runner ships only ``(family, params, seed)``
across the process boundary, never closures).  Each family carries a
``version`` that participates in the content hash — bump it whenever
the function's semantics change and every cached result of the family
invalidates itself.

Families must be **deterministic** (same params + seed ⇒ same result)
and return only JSON-safe data: the runner round-trips every fresh
result through JSON before anyone sees it, which is what makes a
cached-warm rerun bit-identical to the cold run.  Rich objects
(:class:`repro.sim.metrics.SimReport`, telemetry snapshots) go through
their dict forms.

The built-in families cover the CLI figure sweeps (``table1``,
``fig2f_point``, ``blast_radius``, ``fig_adaptive`` and its
``oblivious_baseline``), the generic ``sorn_sim`` benchmark family —
whose ``run_batch`` builds one config's layout, schedule, router and
flow population once and runs every seed on it — and the
``flowlevel`` analytic family (paper-scale FCT/slowdown points with no
per-cell state).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

from ..errors import SweepError
from . import factory

__all__ = [
    "Family",
    "register_family",
    "get_family",
    "family_names",
    "drifting_locality_flows",
]


@dataclasses.dataclass(frozen=True)
class Family:
    """One registered sweep-point family.

    ``run(params, seed)`` computes a single point; the optional
    ``run_batch(params, seeds)`` computes many seeds of one config in a
    single pass and must return results bit-identical to ``run`` called
    per seed (the seed-batching contract).  ``version`` feeds the
    content hash.

    ``shared_payload`` is unused: nothing in the package reads it.  It
    stays only because the benchmark harness re-registers every family
    with ``shared_payload=family.shared_payload``.
    """

    name: str
    run: Callable[[dict, object], dict]
    run_batch: Optional[Callable[[dict, list], List[dict]]] = None
    version: int = 1
    shared_payload: Optional[Callable[[dict], dict]] = None


_REGISTRY: Dict[str, Family] = {}


def register_family(
    name: str,
    run: Callable[[dict, object], dict],
    run_batch: Optional[Callable[[dict, list], List[dict]]] = None,
    version: int = 1,
    shared_payload: Optional[Callable[[dict], dict]] = None,
) -> Family:
    """Register (or replace) a family under *name*; returns it.

    Re-registration replaces the previous entry — tests rely on this to
    install throwaway families.  Workers resolve families by name, so a
    family used with a parallel runner must be registered at *import*
    time of its defining module (module top level), not inside a test
    body, unless the platform forks workers (Linux does).
    *shared_payload* is stored on the family and otherwise unused (see
    :class:`Family`).
    """
    family = Family(
        name=name,
        run=run,
        run_batch=run_batch,
        version=version,
        shared_payload=shared_payload,
    )
    _REGISTRY[name] = family
    return family


def get_family(name: str) -> Family:
    """The registered family called *name*."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SweepError(
            f"no sweep family named {name!r}; registered: {family_names()}"
        ) from None


def family_names() -> List[str]:
    """Sorted names of all registered families."""
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# Workload helpers shared by the CLI and the families
# ---------------------------------------------------------------------------


def drifting_locality_flows(layout, phases, slots_per_phase, load, seed):
    """A workload whose locality drifts across phases.

    Each phase draws flows from a clustered matrix with its own
    intra-clique fraction, shifted to that phase's slot window — the
    signal the closed-loop adaptation runtime is supposed to chase.
    Deterministic in (*layout*, *phases*, *slots_per_phase*, *load*,
    *seed*).
    """
    from ..traffic import FlowSizeDistribution, Workload, clustered_matrix

    flows = []
    next_id = 0
    for phase, x in enumerate(phases):
        matrix = clustered_matrix(layout, x)
        workload = Workload(matrix, FlowSizeDistribution.fixed(7500), load=load)
        phase_flows = workload.generate(slots_per_phase, rng=seed + phase)
        offset = phase * slots_per_phase
        for f in phase_flows:
            flows.append(
                dataclasses.replace(
                    f, flow_id=next_id, arrival_slot=f.arrival_slot + offset
                )
            )
            next_id += 1
    return flows


def _parse_corruptions(spec: str) -> Dict[int, str]:
    """Parse ``"4:nan,9:negative"`` into ``{4: "nan", 9: "negative"}``.

    Empty tokens are skipped, as the ``outages`` and ``planner_fail``
    lists skip theirs, so a trailing comma is harmless.
    """
    out: Dict[int, str] = {}
    for token in spec.split(","):
        if not token:
            continue
        epoch, _, kind = token.partition(":")
        out[int(epoch)] = kind
    return out


def _blast_radius_timeline(params: dict):
    """Rebuild the failure timeline a blast-radius point runs under."""
    from ..sim import FailureTimeline

    if params["timeline"]:
        return FailureTimeline.parse(params["timeline"])
    timeline = FailureTimeline()
    for node in range(params["failures"]):
        timeline = timeline.merged(
            FailureTimeline.node_failure(
                node, params["fail_at"], params["heal_at"]
            )
        )
    return timeline


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


def _run_table1(params: dict, seed) -> dict:
    """Family ``table1``: the closed-form comparison rows as dicts."""
    from ..analysis import table1

    rows = table1(num_nodes=params["nodes"], locality=params["locality"])
    return {"rows": [dataclasses.asdict(row) for row in rows]}


def _run_fig2f_point(params: dict, seed) -> dict:
    """Family ``fig2f_point``: fluid + simulated throughput at one x."""
    from ..core import Sorn
    from ..sim.engine import SimConfig
    from ..traffic import FlowSizeDistribution, Workload, clustered_matrix

    nodes, cliques, x = params["nodes"], params["cliques"], params["locality"]
    slots = params["slots"]
    sorn = Sorn.optimal(nodes, cliques, x)
    matrix = clustered_matrix(sorn.layout, x)
    fluid = sorn.fluid_throughput(matrix).throughput
    workload = Workload(matrix, FlowSizeDistribution.fixed(15000), load=1.3)
    flows = workload.generate(slots, rng=seed)
    report = sorn.simulate(
        flows,
        slots,
        config=SimConfig(engine=params["engine"]),
        rng=seed,
        measure_from=slots // 2,
    )
    return {"fluid": fluid, "simulated": report.window_throughput}


def _run_blast_radius(params: dict, seed) -> dict:
    """Family ``blast_radius``: per-flow completions for one scenario."""
    from ..analysis import optimal_q
    from ..routing import FailureAwareRouter
    from ..sim import SimConfig, SlotSimulator
    from ..traffic import FlowSizeDistribution, Workload

    n, nc, x = params["nodes"], params["cliques"], params["locality"]
    timeline = _blast_radius_timeline(params)
    failed = sorted(timeline.failed_nodes_ever())
    matrix = factory.clustered(n, nc, x)
    workload = Workload(matrix, FlowSizeDistribution.fixed(20), load=params["load"])
    flows = workload.generate(params["slots"] // 2, rng=seed)
    if params["system"] == "SORN":
        schedule = factory.sorn_schedule(n, nc, optimal_q(x))
        router = factory.sorn_router(n, nc)
    else:
        schedule = factory.round_robin_schedule(n)
        router = factory.vlb_router(n)
    scenario = params["scenario"]
    active_timeline = None if scenario == "healthy" else timeline
    active_router = (
        FailureAwareRouter(router, failed) if scenario == "failover" else router
    )
    sim = SlotSimulator(
        schedule,
        active_router,
        SimConfig(engine=params["engine"], check_invariants=params["check"]),
        rng=seed,
        timeline=active_timeline,
    )
    report = sim.run(flows, params["slots"])
    return {"flow_completion_slots": list(report.flow_completion_slots)}


def _adaptive_workload(params: dict, seed):
    """The drifting workload + duration a fig-adaptive point runs."""
    lay = factory.layout(params["nodes"], params["cliques"])
    phases = [float(x) for x in params["phases"].split(",")]
    duration = params["epochs"] * params["epoch_slots"]
    slots_per_phase = max(1, duration // len(phases))
    flows = drifting_locality_flows(
        lay, phases, slots_per_phase, params["load"], seed
    )
    return lay, flows, duration


def _run_fig_adaptive(params: dict, seed) -> dict:
    """Family ``fig_adaptive``: epoch history + totals of one adaptive run."""
    from ..control import AdaptiveSimulation, RuntimeConfig, ScriptedChaos
    from ..sim import EpochTransitionCollector, FailureTimeline, TelemetryHub
    from ..sim.engine import SimConfig

    lay, flows, duration = _adaptive_workload(params, seed)
    chaos = ScriptedChaos(
        outage_epochs={int(e) for e in params["outages"].split(",") if e},
        corrupt_epochs=_parse_corruptions(params["corrupt"]),
        planner_fail_attempts={
            int(e): 10**6 for e in params["planner_fail"].split(",") if e
        },
    )
    timeline = (
        FailureTimeline.parse(params["timeline"]) if params["timeline"] else None
    )
    runtime = RuntimeConfig(
        epoch_slots=params["epoch_slots"],
        min_dwell_epochs=params["dwell"],
        fallback_after=params["fallback_after"],
    )
    collector = EpochTransitionCollector()
    sim = AdaptiveSimulation(
        factory.sorn_schedule(
            params["nodes"], params["cliques"], params["initial_q"]
        ),
        factory.sorn_router(params["nodes"], params["cliques"]),
        runtime,
        config=SimConfig(
            engine=params["engine"],
            check_invariants=params["check"],
            telemetry=TelemetryHub([collector]),
        ),
        rng=seed,
        timeline=timeline,
        chaos=chaos,
    )
    result = sim.run(flows, duration)
    return {
        "epochs": [dataclasses.asdict(e) for e in result.epochs],
        "summary": result.summary(),
        "delivered_cells": result.report.delivered_cells,
    }


def _run_oblivious_baseline(params: dict, seed) -> dict:
    """Family ``oblivious_baseline``: the static no-control-loop run the
    adaptive figure compares against (same drifting workload)."""
    from ..sim import SimConfig, SlotSimulator

    _, flows, duration = _adaptive_workload(params, seed)
    report = SlotSimulator(
        factory.round_robin_schedule(params["nodes"]),
        factory.vlb_router(params["nodes"]),
        SimConfig(engine=params["engine"]),
        rng=seed,
    ).run(flows, duration)
    return {"delivered_cells": report.delivered_cells}


def _sorn_sim_setup(params: dict):
    """The per-config part of a ``sorn_sim`` point: layout, schedule,
    router and flow population — everything but the seed."""
    from ..analysis import optimal_q
    from ..traffic import FlowSizeDistribution, Workload

    n, nc, x = params["nodes"], params["cliques"], params["locality"]
    lay = factory.layout(n, nc)
    schedule = factory.sorn_schedule(n, nc, optimal_q(x))
    router = factory.sorn_router(n, nc)
    workload = Workload(
        factory.clustered(n, nc, x),
        FlowSizeDistribution.fixed(params["size_cells"]),
        load=params["load"],
    )
    flows = workload.generate(params["slots"], rng=params["flow_seed"])
    return lay, schedule, router, flows


def _run_sorn_sim_seed(params: dict, setup, seed) -> dict:
    """One seed of a ``sorn_sim`` config on its prebuilt *setup*, run
    on ``params["engine"]`` with a fresh standard-collector hub when the
    point asks for telemetry."""
    from ..sim import SimConfig, SlotSimulator, TelemetryHub, standard_collectors

    lay, schedule, router, flows = setup
    slots = params["slots"]
    hub = None
    if params["telemetry"]:
        hub = TelemetryHub(
            standard_collectors(
                schedule, layout=lay, bucket_slots=max(1, slots // 6)
            )
        )
    report = SlotSimulator(
        schedule,
        router,
        SimConfig(engine=params["engine"], telemetry=hub),
        rng=seed,
    ).run(flows, slots, measure_from=slots // 2)
    result = {"report": report.to_dict()}
    if hub is not None:
        result["telemetry"] = hub.snapshot()
    return result


def _run_sorn_sim(params: dict, seed) -> dict:
    """Family ``sorn_sim``: one seeded SORN run on a clustered workload.

    The flow population is seeded separately (``flow_seed`` in params)
    so a multi-seed sweep of the same config shares one workload — the
    precondition for ``run_batch`` building it once.
    """
    return _run_sorn_sim_seed(params, _sorn_sim_setup(params), seed)


def _run_sorn_sim_batch(params: dict, seeds: list) -> List[dict]:
    """``sorn_sim`` over many seeds on one shared setup — bit-identical
    to :func:`_run_sorn_sim` per seed."""
    setup = _sorn_sim_setup(params)
    return [_run_sorn_sim_seed(params, setup, seed) for seed in seeds]


def _run_flowlevel(params: dict, seed) -> dict:
    """Family ``flowlevel``: analytic per-flow FCT/slowdown at any scale.

    Builds the SORN fabric for ``(nodes, cliques)`` at the optimal q for
    ``locality`` (or an explicit ``q``), samples ``flows`` clustered
    flows as arrays, and evaluates them through
    :class:`repro.sim.flowlevel.FlowLevelModel` — no per-cell state, so
    ``nodes=4096`` with millions of flows is a sub-second point.
    """
    from ..analysis import optimal_q
    from ..analysis.latency import sorn_delta_m_inter, sorn_delta_m_intra
    from ..sim.flowlevel import FlowLevelModel, sample_flow_arrays
    from ..util import ensure_rng

    n, nc, x = params["nodes"], params["cliques"], params["locality"]
    q = params.get("q") or optimal_q(x)
    schedule = factory.sorn_schedule(n, nc, q)
    router = factory.sorn_router(n, nc)
    model = FlowLevelModel(
        schedule,
        router,
        load=params["load"],
        locality=x,
        mode=params.get("mode", "auto"),
    )
    srcs, dsts, sizes = sample_flow_arrays(
        schedule.layout,
        x,
        params["flows"],
        ensure_rng(seed),
        cell_bytes=params.get("cell_bytes", 16384.0),
    )
    report = model.evaluate(srcs, dsts, sizes)
    summary = report.summary()
    summary["q_realized"] = schedule.q
    summary["num_cliques"] = nc
    # Closed-form Table-1 delta_m (the realized-schedule scan is
    # O(period * N) at paper scale; the closed forms are what the
    # analytic table prints anyway).
    summary["delta_m_intra"] = sorn_delta_m_intra(n, nc, q)
    summary["delta_m_inter"] = sorn_delta_m_inter(n, nc, q)
    return summary


FRONTIER_SYSTEMS = (
    "rr_vlb",
    "orn2d",
    "expander",
    "sorn",
    "beyond_vlb",
    "mixed",
    "bvn",
)


def _frontier_fabric(params: dict):
    """(schedule, router) for one frontier system label."""
    from ..analysis import optimal_q

    name = params["system"]
    n, nc, x = params["nodes"], params["cliques"], params["locality"]
    if name == "sorn":
        return (
            factory.sorn_schedule(n, nc, optimal_q(x)),
            factory.sorn_router(n, nc),
        )
    if name == "rr_vlb":
        return factory.round_robin_schedule(n), factory.vlb_router(n)
    if name == "orn2d":
        return factory.multidim_schedule(n, 2), factory.multidim_router(n, 2)
    if name == "expander":
        degree = params.get("expander_degree", 4)
        eseed = params.get("expander_seed", 1)
        return (
            factory.expander_schedule(n, degree, eseed),
            factory.opera_router(n, degree, eseed),
        )
    if name == "beyond_vlb":
        return (
            factory.round_robin_schedule(n),
            factory.beyond_vlb_router(n, params.get("direct_fraction", 0.6)),
        )
    if name == "bvn":
        period = params.get("bvn_period", 4 * (n - 1))
        return (
            factory.demand_aware_schedule(n, nc, x, period),
            factory.direct_router(n),
        )
    if name == "mixed":
        pools = (
            params.get("static_planes", 1),
            params.get("rotor_planes", 1),
            params.get("demand_planes", 1),
            params.get("pool_seed", 0),
        )
        return (
            factory.mixed_pool_schedule(n, nc, x, *pools),
            factory.mixed_pool_router(n, nc, x, *pools),
        )
    raise SweepError(
        f"unknown frontier system {name!r}; expected one of {FRONTIER_SYSTEMS}"
    )


def _run_frontier_point(params: dict, seed) -> dict:
    """Family ``frontier_point``: one system's latency/throughput/cost point.

    Every system sees the same clustered workload (flows seeded by
    ``flow_seed``) at the same offered load, so points are comparable.
    Throughput is normalized per plane — systems provision different
    plane counts (the mixed pool runs 3, the expander one per rotor), and
    matched cost means matched per-plane port bandwidth.  The measured
    mean hop count IS the paper's normalized bandwidth cost.  For the
    demand-aware system the workload is masked to pairs the quantized
    BvN schedule actually connects (direct-only routing cannot deliver
    the rest); ``coverage`` records the demand mass that survived, 1.0
    meaning the mask was a no-op.
    """
    from ..sim import SimConfig, SlotSimulator
    from ..traffic import FlowSizeDistribution, TrafficMatrix, Workload

    schedule, router = _frontier_fabric(params)
    n, nc, x = params["nodes"], params["cliques"], params["locality"]
    matrix = factory.clustered(n, nc, x)
    coverage = 1.0
    if params["system"] == "bvn":
        coverage = schedule.demand_coverage()
        if coverage < 1.0:
            import numpy as np

            mask = np.zeros((n, n), dtype=bool)
            for (u, v) in schedule.connected_pairs():
                mask[u, v] = True
            matrix = TrafficMatrix(np.where(mask, matrix.rates, 0.0))
    workload = Workload(
        matrix,
        FlowSizeDistribution.fixed(params["size_cells"]),
        load=params["load"],
    )
    slots = params["slots"]
    flows = workload.generate(slots, rng=params["flow_seed"])
    report = SlotSimulator(
        schedule,
        router,
        SimConfig(engine=params["engine"]),
        rng=seed,
    ).run(flows, slots, measure_from=slots // 2)
    planes = schedule.num_planes
    return {
        "system": params["system"],
        "planes": planes,
        "throughput": report.window_throughput / planes,
        "throughput_raw": report.window_throughput,
        "mean_hops": report.mean_hops,
        "mean_fct_slots": report.mean_fct,
        "p99_fct_slots": report.fct_percentile(99),
        "delivered_cells": report.delivered_cells,
        "completed_flows": len(report.flow_completion_slots),
        "coverage": coverage,
    }


register_family("table1", _run_table1)
register_family("flowlevel", _run_flowlevel)
register_family("fig2f_point", _run_fig2f_point)
register_family("blast_radius", _run_blast_radius)
register_family("fig_adaptive", _run_fig_adaptive)
register_family("oblivious_baseline", _run_oblivious_baseline)
register_family("sorn_sim", _run_sorn_sim, run_batch=_run_sorn_sim_batch)
register_family("frontier_point", _run_frontier_point)
