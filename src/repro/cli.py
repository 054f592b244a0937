"""Command-line interface: regenerate the paper's experiments.

Usage::

    sorn-repro table1 [--nodes 4096] [--locality 0.56]
    sorn-repro fig2f [--nodes 128] [--cliques 8] [--simulate] [--engine vectorized]
    sorn-repro fig-blast-radius [--nodes 32] [--cliques 4] [--failures 2]
    sorn-repro fig-telemetry [--nodes 32] [--cliques 4] [--jsonl out.jsonl]
    sorn-repro fig-adaptive [--epochs 10] [--outages 2,3] [--corrupt 4:nan]
    sorn-repro pareto [--nodes 4096]
    sorn-repro design --nodes 128 --cliques 8 --locality 0.56
    sorn-repro adapt [--nodes 64] [--cliques 4] [--cycles 6]

Every subcommand prints plain text tables; the benchmark suite under
``benchmarks/`` produces the same numbers with full provenance.

The experiment subcommands (``table1``, ``fig2f``, ``fig-blast-radius``,
``fig-adaptive``, ``frontier``) execute through
:class:`repro.exp.SweepRunner` and accept ``--workers N`` (process
fan-out) and ``--no-cache`` (bypass the content-addressed result cache
under ``.repro-cache/``).  Both are pure speed knobs: output is
bit-identical across worker counts and cache temperature.

The sim-running subcommands additionally accept ``--profile PATH``,
which attaches a wall-clock phase profiler to every in-process
simulation and dumps the aggregated inject / seq / drain / commit /
repair / replay / forward / stats timings as JSON — the same breakdown
``BENCH_kernel.json`` tracks, pointed at whatever workload the
subcommand just ran.

Cached sweeps are **journaled** (``.repro-runs/``): every invocation
gets a run id, completed points are recorded durably as they finish,
and a run killed at any moment — Ctrl-C, SIGTERM, SIGKILL, OOM — can be
re-executed with ``--resume RUN_ID``, recomputing only the missing
points and printing bit-identical output.  SIGINT/SIGTERM exit with a
one-line resume hint; ``--hang-timeout`` sets the deadline after which
a parallel sweep's silent worker is killed and its point requeued.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
import uuid
from typing import List, Optional

import numpy as np

from .analysis import (
    SystemRow,
    format_table,
    orn_tradeoff_points,
    pareto_frontier,
    sorn_throughput,
    sorn_tradeoff_curve,
)
from .core import AdaptationLoop, Sorn
from .exp import ResultCache, SweepPoint, SweepRunner
from .sim.engine import SimConfig
from .traffic import (
    FlowSizeDistribution,
    Workload,
    clustered_matrix,
    facebook_cluster_matrix,
)

__all__ = ["main"]


def _sweep_runner(args: argparse.Namespace) -> SweepRunner:
    """The sweep executor the experiment subcommands share.

    ``--workers`` fans points out over processes (0 = in-process
    serial); ``--no-cache`` bypasses the content-addressed result cache.
    Either way the results — and therefore the printed tables — are
    bit-identical, so the flags are pure speed knobs.
    """
    cache = None if args.no_cache else ResultCache()
    return SweepRunner(
        workers=args.workers,
        cache=cache,
        hang_timeout=getattr(args, "hang_timeout", None),
    )


def _run_points(args: argparse.Namespace, points, part: str = "") -> list:
    """Run *points* through the shared sweep executor, journaled.

    With the cache enabled (the default), the sweep is journaled under a
    run id — ``--resume RUN_ID`` reuses an earlier invocation's journal
    and recomputes only the points that never reached the cache;
    otherwise a fresh id is generated.  *part* distinguishes multiple
    sweeps inside one subcommand (``table1 --model flow`` runs two) so
    each gets its own journal under the same base id.  SIGINT/SIGTERM
    during the sweep exit non-zero with a one-line resume hint; results
    are identical to an uninterrupted run by the cache's round-trip
    contract.
    """
    runner = _sweep_runner(args)
    if runner.cache is None:
        if getattr(args, "resume", None):
            print(
                "--resume requires the result cache; drop --no-cache",
                file=sys.stderr,
            )
            raise SystemExit(2)
        return runner.run(points)
    base_id = getattr(args, "resume", None) or getattr(args, "_auto_run_id", None)
    if base_id is None:
        base_id = f"run-{uuid.uuid4().hex[:10]}"
        args._auto_run_id = base_id
    args._auto_run_id = base_id
    run_id = base_id + part

    def _interrupted(signum, frame):
        print(
            f"\ninterrupted — completed points are journaled; "
            f"resume with --resume {base_id}",
            file=sys.stderr,
        )
        raise SystemExit(128 + signum)

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _interrupted)
        except ValueError:
            pass  # not the main thread; run unguarded
    try:
        return runner.run(points, run_id=run_id)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _add_profile_flag(p: argparse.ArgumentParser) -> None:
    """Attach ``--profile PATH`` (sim-running subcommands only)."""
    p.add_argument(
        "--profile",
        type=str,
        default="",
        metavar="PATH",
        help="dump the wall-clock engine phase profile (inject / seq / "
        "drain / commit / repair / replay / forward / stats, per-phase "
        "seconds, laps and share) of this invocation's simulations as JSON "
        "to PATH; requires --workers 0 where sweeps apply, and cached "
        "points contribute nothing (add --no-cache to profile a warm sweep)",
    )


@contextlib.contextmanager
def _maybe_profiled(args: argparse.Namespace):
    """Honor ``--profile PATH``: collect every in-process simulation's
    phase timings and write them as JSON after the command finishes.

    Profiling is in-process by nature (wall-clock timers around the
    engine loop), so it refuses ``--workers > 0`` rather than silently
    writing an empty profile while the sims run in children.
    """
    path = getattr(args, "profile", "")
    if not path:
        yield
        return
    if getattr(args, "workers", 0):
        print(
            "--profile requires --workers 0 (phase timers are in-process)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    from .sim import profiled_runs
    from .sim.telemetry import PhaseProfiler

    with profiled_runs(PhaseProfiler()) as profiler:
        yield
    phases = profiler.summary()
    if not phases:
        print(
            "--profile: no simulations ran in-process (cache hits, or a "
            "subcommand that computes analytically); profile is empty",
            file=sys.stderr,
        )
    with open(path, "w") as fh:
        json.dump({"phases": phases}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote phase profile to {path}")


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    """Attach the shared sweep flags (workers/cache/resume/watchdog)."""
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for the sweep (0 = in-process serial; "
        "results are identical either way)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache "
        "($REPRO_CACHE_DIR, default .repro-cache/)",
    )
    p.add_argument(
        "--resume",
        type=str,
        default="",
        metavar="RUN_ID",
        help="resume a killed invocation from its run journal "
        "($REPRO_RUNS_DIR, default .repro-runs/): only points missing "
        "from the cache recompute, output is bit-identical",
    )
    p.add_argument(
        "--hang-timeout",
        type=float,
        default=None,
        dest="hang_timeout",
        metavar="SECONDS",
        help="watchdog deadline for parallel sweeps: workers beat six "
        "times per deadline, and one silent for this long is killed with "
        "its pool and its point requeued (default: never declared hung)",
    )


def _cmd_table1(args: argparse.Namespace) -> int:
    [result] = _run_points(
        args,
        [SweepPoint("table1", {"nodes": args.nodes, "locality": args.locality})],
    )
    rows = [SystemRow(**row) for row in result["rows"]]
    print(f"Table 1 reproduction (N={args.nodes}, x={args.locality}):")
    print(format_table(rows))
    if args.model == "flow":
        print()
        print(
            f"Flow-level model (load={args.load:.2f}, "
            f"{args.flows} flows/point, seed={args.seed}):"
        )
        cliques = [int(c) for c in args.cliques.split(",")]
        points = [
            SweepPoint(
                "flowlevel",
                {
                    "nodes": args.nodes,
                    "cliques": nc,
                    "locality": args.locality,
                    "load": args.load,
                    "flows": args.flows,
                },
                args.seed,
            )
            for nc in cliques
        ]
        results = _run_points(args, points, part="-flow")
        header = (
            f"{'Nc':>4} {'dm_intra':>8} {'dm_inter':>8} {'mean FCT':>10} "
            f"{'p99 FCT':>10} {'slowdown':>9} {'sat thpt':>9}"
        )
        print(header)
        for nc, res in zip(cliques, results):
            mean_fct = res["mean_fct_slots"]
            p99 = res["p99_fct_slots"]
            slow = res["mean_slowdown"]
            if not res["stable"] or mean_fct is None:
                print(f"{nc:>4} {'-- unstable at this load --':>48}")
                continue
            print(
                f"{nc:>4} {res['delta_m_intra']:>8} "
                f"{res['delta_m_inter']:>8} {mean_fct:>10.1f} "
                f"{p99:>10.1f} {slow:>9.2f} "
                f"{res['saturation_throughput']:>9.4f}"
            )
    return 0


def _cmd_fig2f(args: argparse.Namespace) -> int:
    print(
        f"Figure 2(f): worst-case throughput vs locality "
        f"(N={args.nodes}, Nc={args.cliques})"
    )
    header = f"{'x':>5} {'theory 1/(3-x)':>15}"
    if args.simulate:
        header += f" {'fluid':>8} {'simulated':>10}"
    print(header)
    xs = [i / 10 for i in range(0, 10)]
    results = [None] * len(xs)
    if args.simulate:
        results = _run_points(
            args,
            [
                SweepPoint(
                    "fig2f_point",
                    {
                        "nodes": args.nodes,
                        "cliques": args.cliques,
                        "locality": x,
                        "slots": args.slots,
                        "engine": args.engine,
                    },
                    args.seed,
                )
                for x in xs
            ],
        )
    for x, result in zip(xs, results):
        line = f"{x:>5.2f} {sorn_throughput(x):>15.4f}"
        if args.simulate:
            line += f" {result['fluid']:>8.4f} {result['simulated']:>10.4f}"
        print(line)
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    points = orn_tradeoff_points(args.nodes, max_h=4)
    counts = [nc for nc in (16, 32, 64, 128) if args.nodes % nc == 0]
    points += sorn_tradeoff_curve(args.nodes, args.locality, counts)
    print(f"Latency-throughput points (N={args.nodes}, x={args.locality}):")
    for p in sorted(points, key=lambda p: p.latency_us):
        print(f"  {p.label:<14} latency={p.latency_us:>10.2f}us thpt={p.throughput:.2%}")
    frontier = pareto_frontier(points)
    print("Pareto frontier: " + ", ".join(p.label for p in frontier))
    if args.plot:
        from .report import render_tradeoff_plot

        print()
        print(render_tradeoff_plot(points))
    return 0


def _cmd_frontier(args: argparse.Namespace) -> int:
    from .analysis.pareto import TradeoffPoint
    from .exp.families import FRONTIER_SYSTEMS
    from .hardware import TABLE1_TIMING

    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    unknown = [s for s in systems if s not in FRONTIER_SYSTEMS]
    if unknown:
        print(
            f"unknown system(s) {', '.join(unknown)}; "
            f"choose from {', '.join(FRONTIER_SYSTEMS)}",
            file=sys.stderr,
        )
        return 2
    base = {
        "nodes": args.nodes,
        "cliques": args.cliques,
        "locality": args.locality,
        "slots": args.slots,
        "size_cells": args.size_cells,
        "engine": args.engine,
        "flow_seed": args.flow_seed,
    }
    # Two points per system: a light-load run fixes the latency axis, a
    # saturating run fixes the throughput axis.  Same workload process
    # (flow_seed) everywhere, so the columns are comparable.
    points = [
        SweepPoint("frontier_point", dict(base, system=s, load=load), args.seed)
        for s in systems
        for load in (args.latency_load, args.saturation_load)
    ]
    results = _run_points(args, points)
    by_system = {
        s: (results[2 * i], results[2 * i + 1]) for i, s in enumerate(systems)
    }

    slot_us = TABLE1_TIMING.slot_ns / 1000.0
    tradeoff = []
    rows = []
    for s in systems:
        low, sat = by_system[s]
        latency_us = low["mean_fct_slots"] * slot_us
        tradeoff.append(
            TradeoffPoint(label=s, latency_us=latency_us, throughput=sat["throughput"])
        )
        rows.append(
            {
                "system": s,
                "planes": sat["planes"],
                "latency_us": latency_us,
                "latency_fct_slots": low["mean_fct_slots"],
                "p99_fct_slots": low["p99_fct_slots"],
                "throughput": sat["throughput"],
                "mean_hops": sat["mean_hops"],
                "coverage": sat["coverage"],
            }
        )
    frontier = pareto_frontier(tradeoff)
    on_frontier = {p.label for p in frontier}

    print(
        f"Latency-throughput-cost frontier "
        f"(N={args.nodes}, Nc={args.cliques}, x={args.locality}, "
        f"latency load={args.latency_load}, "
        f"saturation load={args.saturation_load}):"
    )
    header = (
        f"{'system':<12} {'planes':>6} {'latency':>10} {'thpt/plane':>10} "
        f"{'hops':>6} {'coverage':>8}  frontier"
    )
    print(header)
    for row in rows:
        mark = "*" if row["system"] in on_frontier else ""
        print(
            f"{row['system']:<12} {row['planes']:>6} "
            f"{row['latency_us']:>8.2f}us {row['throughput']:>10.2%} "
            f"{row['mean_hops']:>6.2f} {row['coverage']:>8.2%}  {mark}"
        )
    print(
        "Pareto frontier: "
        + ", ".join(p.label for p in frontier)
        + "  (hops = measured bandwidth tax; thpt is per plane)"
    )
    if args.json:
        payload = {
            "config": dict(
                base,
                latency_load=args.latency_load,
                saturation_load=args.saturation_load,
                seed=args.seed,
            ),
            "rows": rows,
            "pareto_frontier": sorted(on_frontier),
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    sorn = Sorn.optimal(args.nodes, args.cliques, args.locality)
    print(sorn.model().describe())
    program = sorn.wavelength_program()
    print(
        f"  wavelength band required: {program.band_required()} of "
        f"{args.nodes - 1}; schedule period {sorn.schedule.period} slots"
    )
    if args.show_schedule:
        from .report import render_schedule_table

        print()
        print(render_schedule_table(sorn.schedule))
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    from .analysis import (
        fabric_cost,
        multidim_throughput,
        normalized_bandwidth_cost,
        sorn_throughput,
        vlb_throughput,
    )

    clos = fabric_cost("Clos (packet)", args.nodes, args.uplinks, 1.0, optical=False)
    print(f"Fabric economics at N={args.nodes}, {args.uplinks} uplinks "
          f"(relative to a 3-layer packet Clos):")
    print(f"  {'fabric':<14} {'cost':>8} {'power':>8}")
    print(f"  {clos.label:<14} {'100.0%':>8} {'100.0%':>8}")
    for label, tax in [
        ("ORN 1D", normalized_bandwidth_cost(vlb_throughput())),
        ("ORN 2D", normalized_bandwidth_cost(multidim_throughput(2))),
        (f"SORN x={args.locality}",
         normalized_bandwidth_cost(sorn_throughput(args.locality))),
    ]:
        fabric = fabric_cost(label, args.nodes, args.uplinks, tax, optical=True)
        print(f"  {label:<14} {fabric.relative_cost / clos.relative_cost:>8.1%} "
              f"{fabric.relative_power / clos.relative_power:>8.1%}")
    return 0


def _cmd_hierarchy(args: argparse.Namespace) -> int:
    from .analysis import (
        hierarchical_delta_m_inter,
        hierarchical_delta_m_intra,
        hierarchical_optimal_q,
        hierarchical_throughput,
    )

    print(f"Hierarchical SORN family at N={args.nodes}, Nc={args.cliques}, "
          f"x={args.locality}:")
    print(f"  {'h':>3} {'q*':>7} {'dm_intra':>9} {'dm_inter':>9} {'thpt':>8}")
    size = args.nodes // args.cliques
    for h in (1, 2, 3):
        if round(size ** (1 / h)) ** h != size:
            continue
        q = hierarchical_optimal_q(args.locality, h)
        intra = hierarchical_delta_m_intra(args.nodes, args.cliques, q, h)
        inter = hierarchical_delta_m_inter(args.nodes, args.cliques, q, h)
        print(f"  {h:>3} {q:>7.2f} {intra:>9} {inter:>9} "
              f"{hierarchical_throughput(args.locality, h):>8.4f}")
    return 0


def _cmd_failures(args: argparse.Namespace) -> int:
    from .analysis import (
        flat_sync_domain_size,
        node_blast_radius,
        sorn_sync_domain_size,
    )
    from .routing import SornRouter, VlbRouter
    from .topology import CliqueLayout

    n = args.nodes
    print(f"Blast radius of one node failure (N={n}):")
    print(f"  flat VLB     : {node_blast_radius(VlbRouter(n), 0):.3f}")
    for nc in (2, 4, args.cliques):
        if n % nc:
            continue
        router = SornRouter(CliqueLayout.equal(n, nc))
        print(f"  SORN Nc={nc:<4}: {node_blast_radius(router, 0):.3f}")
    print(f"Sync domains at N={n}: flat {flat_sync_domain_size(n)} nodes, "
          f"SORN Nc={args.cliques} "
          f"{sorn_sync_domain_size(SornRouter(CliqueLayout.equal(n, args.cliques)))} nodes")
    return 0


def _cmd_blast_radius(args: argparse.Namespace) -> int:
    """Simulated blast radius: SORN vs the flat 1D ORN under node failures.

    Same workload, same failed nodes, three scenarios per system: healthy
    baseline, oblivious routing through the failure, and the
    failure-aware fallback modelling the minutes-scale control loop.
    Collateral damage is the bystander completion shortfall vs healthy.
    The six runs go through the sweep runner, so they parallelize with
    ``--workers`` and reuse cached completions across invocations.
    """
    from .sim import FailureTimeline, split_casualties
    from .topology import CliqueLayout

    n, x = args.nodes, args.locality
    if args.timeline:
        timeline = FailureTimeline.parse(args.timeline)
    else:
        timeline = FailureTimeline()
        for node in range(args.failures):
            timeline = timeline.merged(
                FailureTimeline.node_failure(node, args.fail_at, args.heal_at)
            )
    failed = sorted(timeline.failed_nodes_ever())
    layout = CliqueLayout.equal(n, args.cliques)
    matrix = clustered_matrix(layout, x)
    workload = Workload(matrix, FlowSizeDistribution.fixed(20), load=args.load)
    flows = workload.generate(args.slots // 2, rng=args.seed)
    casualties, bystanders = split_casualties(flows, failed)
    # Near bystanders share a clique with a failed node (or talk to one);
    # far bystanders never touch the failed cliques.  SORN's modularity
    # claim is that far bystanders see (almost) no collateral, while the
    # flat ORN's fabric-wide load balancing spreads the damage everywhere.
    failed_cliques = {layout.clique_of(v) for v in failed}
    near_ids = {
        f.flow_id
        for f in bystanders
        if layout.clique_of(f.src) in failed_cliques
        or layout.clique_of(f.dst) in failed_cliques
    }
    populations = {
        "casualty": {f.flow_id for f in casualties},
        "near": near_ids,
        "far": {f.flow_id for f in bystanders} - near_ids,
    }

    def completion_split(completion_slots):
        done = {name: 0 for name in populations}
        for spec, slot in zip(flows, completion_slots):
            if slot < 0:
                continue
            for name, ids in populations.items():
                if spec.flow_id in ids:
                    done[name] += 1
        return {
            name: done[name] / len(ids) if ids else float("nan")
            for name, ids in populations.items()
        }

    print(
        f"Blast radius of {len(failed)} failed node(s) {failed} "
        f"(N={n}, Nc={args.cliques}, x={x}, {len(flows)} flows: "
        f"{len(populations['casualty'])} casualties / "
        f"{len(populations['near'])} near / {len(populations['far'])} far)"
    )
    print(f"  {'system':<8} {'scenario':<10} {'casualty':>9} {'near':>7} "
          f"{'far':>7} {'near-coll':>10} {'far-coll':>9}")
    systems = ["SORN", "1D ORN"]
    scenarios = ["healthy", "oblivious", "failover"]
    base = {
        "nodes": n,
        "cliques": args.cliques,
        "locality": x,
        "load": args.load,
        "slots": args.slots,
        "failures": args.failures,
        "fail_at": args.fail_at,
        "heal_at": args.heal_at,
        "timeline": args.timeline,
        "engine": args.engine,
        "check": args.check,
    }
    results = iter(
        _run_points(
            args,
            [
                SweepPoint(
                    "blast_radius",
                    dict(base, system=label, scenario=scenario),
                    args.seed,
                )
                for label in systems
                for scenario in scenarios
            ],
        )
    )
    for label in systems:
        healthy = None
        for scenario in scenarios:
            ratios = completion_split(next(results)["flow_completion_slots"])
            if healthy is None:
                healthy = ratios
            print(f"  {label:<8} {scenario:<10} {ratios['casualty']:>9.1%} "
                  f"{ratios['near']:>7.1%} {ratios['far']:>7.1%} "
                  f"{healthy['near'] - ratios['near']:>10.1%} "
                  f"{healthy['far'] - ratios['far']:>9.1%}")
    return 0


def _cmd_fig_telemetry(args: argparse.Namespace) -> int:
    """Instrumented run: the shipped telemetry collectors vs the theory.

    Runs one seeded SORN simulation with the full collector set and
    compares the measured intra/inter-clique traversal split against the
    schedule's provisioned q/(q+1) vs 1/(q+1) bandwidth split, then
    prints the VOQ heatmap, hop histogram, schedule-phase attribution,
    and wall-clock phase profile.  ``--jsonl``/``--csv`` export the
    deterministic telemetry streams.
    """
    from .analysis import optimal_q
    from .routing import SornRouter
    from .schedules import build_sorn_schedule
    from .sim import (
        SimConfig,
        SlotSimulator,
        TelemetryHub,
        circuit_class_capacity,
        standard_collectors,
    )
    from .topology import CliqueLayout

    n, x = args.nodes, args.locality
    layout = CliqueLayout.equal(n, args.cliques)
    q = optimal_q(x)
    schedule = build_sorn_schedule(n, args.cliques, q=q, layout=layout)
    # Under --profile the shared profiling sink registers into this hub
    # (it has no profiler of its own), so the phase table printed below
    # and the dumped JSON read the same timers.
    hub = TelemetryHub(
        standard_collectors(
            schedule,
            layout=layout,
            bucket_slots=max(1, args.slots // 6),
            profile=not args.profile,
        ),
        stride=args.stride,
    )
    matrix = clustered_matrix(layout, x)
    workload = Workload(matrix, FlowSizeDistribution.fixed(50), load=args.load)
    flows = workload.generate(args.slots, rng=args.seed)
    sim = SlotSimulator(
        schedule,
        SornRouter(layout),
        SimConfig(engine=args.engine, telemetry=hub),
        rng=args.seed,
    )
    report = sim.run(flows, args.slots)
    print(
        f"Telemetry run: N={n} Nc={args.cliques} x={x} q={q:.2f} "
        f"load={args.load} slots={args.slots} engine={args.engine}"
    )
    print("  " + report.summary())

    util = hub.get("link_utilization")
    intra_cap, inter_cap = circuit_class_capacity(schedule, layout)
    cap_total = intra_cap + inter_cap
    intra_share, inter_share = util.traversal_split()
    cycles = args.slots / schedule.period
    print("\nVirtual-link bandwidth split (intra vs inter clique):")
    print(f"  {'':<24} {'intra':>8} {'inter':>8}")
    print(
        f"  {'provisioned capacity':<24} {intra_cap / cap_total:>8.4f} "
        f"{inter_cap / cap_total:>8.4f}   theory q/(q+1) = {q / (q + 1):.4f}"
    )
    print(
        f"  {'measured traversals':<24} {intra_share:>8.4f} "
        f"{inter_share:>8.4f}   theory 2/(3-x) -> {2 / (3 - x):.4f}"
    )
    print(
        f"  {'capacity utilization':<24} "
        f"{util.intra_cells / (intra_cap * cycles):>8.4f} "
        f"{util.inter_cells / (inter_cap * cycles):>8.4f}"
    )

    heat = hub.get("voq_heatmap").matrix()
    print(
        f"\nPer-clique VOQ backlog over {heat.shape[0]} samples "
        f"(stride {args.stride}):"
    )
    for clique in range(heat.shape[1]):
        col = heat[:, clique]
        print(f"  clique {clique}: mean={col.mean():>8.1f} peak={int(col.max()):>6}")

    hops = hub.get("hop_histogram")
    hist = hops.histogram()
    total = sum(hist.values()) or 1
    print(f"\nHop-count histogram (mean {hops.mean_hops():.3f}):")
    for h in sorted(hist):
        print(f"  {h} hop(s): {hist[h]:>8} ({hist[h] / total:.1%})")

    by_phase = hub.get("phase_attribution").delivered_by_phase()
    busiest = max(range(len(by_phase)), key=by_phase.__getitem__)
    print(
        f"\nDelivered cells by schedule phase (period {schedule.period}): "
        f"busiest phase {busiest} with {by_phase[busiest]} cells"
    )

    print("\nWall-clock by engine phase:")
    for name, row in hub.profiler.summary().items():
        print(f"  {name:<8} {row['seconds']:>8.4f}s ({row['share']:.1%})")

    if args.jsonl:
        hub.export_jsonl(args.jsonl)
        print(f"\nwrote JSONL telemetry to {args.jsonl}")
    if args.csv:
        paths = hub.export_csv(args.csv)
        print(f"wrote {len(paths)} CSV file(s) to {args.csv}")
    return 0


def _cmd_fig_adaptive(args: argparse.Namespace) -> int:
    """Closed-loop adaptation under a drifting workload, with chaos knobs.

    Runs :class:`repro.control.runtime.AdaptiveSimulation` over a
    workload whose locality drifts phase by phase, prints the epoch
    transition table (health state, action, controller reasoning), and
    compares delivered cells against a static fully oblivious baseline —
    the graceful-degradation claim in numbers.  Both runs execute as
    sweep points (families ``fig_adaptive`` / ``oblivious_baseline``),
    so ``--workers 2`` overlaps them and reruns hit the result cache.
    """
    n = args.nodes
    phases = [float(x) for x in args.phases.split(",")]
    base = {
        "nodes": n,
        "cliques": args.cliques,
        "epochs": args.epochs,
        "epoch_slots": args.epoch_slots,
        "phases": args.phases,
        "load": args.load,
        "engine": args.engine,
    }
    adaptive_params = dict(
        base,
        initial_q=args.initial_q,
        dwell=args.dwell,
        fallback_after=args.fallback_after,
        outages=args.outages,
        corrupt=args.corrupt,
        planner_fail=args.planner_fail,
        timeline=args.timeline,
        check=args.check,
    )
    adaptive, baseline = _run_points(
        args,
        [
            SweepPoint("fig_adaptive", adaptive_params, args.seed),
            SweepPoint("oblivious_baseline", base, args.seed),
        ],
    )

    print(
        f"Closed-loop adaptation: N={n} Nc={args.cliques} "
        f"epochs={args.epochs}x{args.epoch_slots} slots, locality drift "
        f"{' -> '.join(f'{x:.2f}' for x in phases)}, engine={args.engine}"
    )
    print(f"  {'ep':>3} {'slots':>11} {'state':<9} {'action':<17} "
          f"{'x':>5} {'q':>5}  reason")
    for e in adaptive["epochs"]:
        x = f"{e['locality']:.2f}" if e["locality"] is not None else "-"
        q = f"{e['q']:.2f}" if e["q"] is not None else "-"
        print(f"  {e['epoch']:>3} {e['start_slot']:>5}-{e['end_slot']:<5} "
              f"{e['state']:<9} {e['action']:<17} {x:>5} {q:>5}  {e['reason']}")
    print("  " + adaptive["summary"])

    # Static fully oblivious baseline: same flows, same seed, no control
    # loop at all.  The adaptive run should beat it when healthy and
    # degrade toward it — not below it — under chaos.
    adaptive_cells = adaptive["delivered_cells"]
    print(
        f"\nDelivered cells: adaptive {adaptive_cells}, static oblivious "
        f"{baseline['delivered_cells']} "
        f"({adaptive_cells / max(1, baseline['delivered_cells']):.2f}x)"
    )
    return 0


def _cmd_adapt(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    sorn = Sorn.optimal(args.nodes, args.cliques, 0.5)
    loop = AdaptationLoop(sorn, recluster=True)
    print(f"Adaptation over {args.cycles} cycles (N={args.nodes}, Nc={args.cliques}):")
    for cycle in range(args.cycles):
        matrix = facebook_cluster_matrix(sorn.layout, rng=rng)
        decision = loop.step(matrix)
        print(
            f"  cycle {cycle}: applied={decision.applied} "
            f"x={decision.estimated_locality:.3f} "
            f"thpt {decision.current_throughput:.2%} -> "
            f"{decision.predicted_throughput:.2%} | {decision.reason}"
        )
    print(f"updates applied: {loop.updates_applied}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="sorn-repro",
        description="Reproduce 'Semi-Oblivious Reconfigurable Datacenter Networks'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="reproduce Table 1")
    p.add_argument("--nodes", type=int, default=4096)
    p.add_argument("--locality", type=float, default=0.56)
    p.add_argument(
        "--model",
        choices=("analytic", "flow"),
        default="analytic",
        help="'flow' appends per-Nc flow-level FCT/slowdown rows from "
        "repro.sim.flowlevel at true paper scale (one sweep point per "
        "Nc, shardable over --workers)",
    )
    p.add_argument(
        "--cliques",
        default="64,32",
        help="comma-separated Nc values for --model flow (default: the "
        "paper's 64,32)",
    )
    p.add_argument("--load", type=float, default=0.30)
    p.add_argument("--flows", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    _add_sweep_flags(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("fig2f", help="reproduce Figure 2(f)")
    p.add_argument("--nodes", type=int, default=128)
    p.add_argument("--cliques", type=int, default=8)
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--slots", type=int, default=3000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--engine",
        choices=("reference", "vectorized"),
        default="vectorized",
        help="simulator engine for --simulate (identical results; "
        "vectorized is the fast path)",
    )
    _add_sweep_flags(p)
    _add_profile_flag(p)
    p.set_defaults(func=_cmd_fig2f)

    p = sub.add_parser(
        "fig-blast-radius",
        help="simulated blast radius: SORN vs 1D ORN under node failures",
    )
    p.add_argument("--nodes", type=int, default=32)
    p.add_argument("--cliques", type=int, default=4)
    p.add_argument("--failures", type=int, default=2,
                   help="fail nodes 0..k-1 (one clique under the default layout)")
    p.add_argument("--fail-at", type=int, default=0,
                   help="slot at which the nodes fail")
    p.add_argument("--heal-at", type=int, default=None,
                   help="slot at which the nodes heal (default: never)")
    p.add_argument("--timeline", type=str, default="",
                   help="explicit failure spec, e.g. 'node:3@100-500,plane:1@50'"
                        " (overrides --failures/--fail-at/--heal-at)")
    p.add_argument("--slots", type=int, default=400)
    p.add_argument("--load", type=float, default=0.6)
    p.add_argument("--locality", type=float, default=0.56)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", action="store_true",
                   help="run the per-slot invariant checker during every run")
    p.add_argument(
        "--engine",
        choices=("reference", "vectorized"),
        default="vectorized",
    )
    _add_sweep_flags(p)
    _add_profile_flag(p)
    p.set_defaults(func=_cmd_blast_radius)

    p = sub.add_parser(
        "fig-telemetry",
        help="instrumented run: utilization split, heatmaps, hop/phase stats",
    )
    p.add_argument("--nodes", type=int, default=32)
    p.add_argument("--cliques", type=int, default=4)
    p.add_argument("--locality", type=float, default=0.56)
    p.add_argument("--slots", type=int, default=600)
    p.add_argument("--load", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stride", type=int, default=1,
                   help="sample fabric state every k-th slot")
    p.add_argument(
        "--engine",
        choices=("reference", "vectorized"),
        default="vectorized",
        help="either engine emits bit-identical telemetry",
    )
    p.add_argument("--jsonl", type=str, default="",
                   help="write the telemetry stream as JSON Lines here")
    p.add_argument("--csv", type=str, default="",
                   help="write one CSV per collector into this directory")
    _add_profile_flag(p)
    p.set_defaults(func=_cmd_fig_telemetry)

    p = sub.add_parser("pareto", help="latency-throughput tradeoff points")
    p.add_argument("--nodes", type=int, default=4096)
    p.add_argument("--locality", type=float, default=0.56)
    p.add_argument("--plot", action="store_true", help="render a text scatter")
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser(
        "frontier",
        help="simulated latency-throughput-cost frontier across "
        "oblivious, semi-oblivious, and demand-aware families",
    )
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--cliques", type=int, default=4)
    p.add_argument("--locality", type=float, default=0.56)
    p.add_argument("--slots", type=int, default=400)
    p.add_argument("--size-cells", type=int, default=60, dest="size_cells")
    p.add_argument("--latency-load", type=float, default=0.25,
                   help="offered load for the latency axis (light load)")
    p.add_argument("--saturation-load", type=float, default=1.3,
                   help="offered load for the throughput axis (saturating)")
    p.add_argument(
        "--systems",
        default="rr_vlb,orn2d,expander,sorn,beyond_vlb,mixed,bvn",
        help="comma-separated subset of the frontier families",
    )
    p.add_argument(
        "--engine",
        choices=("reference", "vectorized"),
        default="vectorized",
    )
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--flow-seed", type=int, default=11, dest="flow_seed")
    p.add_argument("--json", type=str, default="",
                   help="write rows + frontier labels as JSON here")
    _add_sweep_flags(p)
    _add_profile_flag(p)
    p.set_defaults(func=_cmd_frontier)

    p = sub.add_parser("design", help="describe one SORN design point")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--cliques", type=int, required=True)
    p.add_argument("--locality", type=float, default=0.56)
    p.add_argument("--show-schedule", action="store_true",
                   help="render the schedule table (Figure 1 style)")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("failures", help="blast radius & sync domains (section 6)")
    p.add_argument("--nodes", type=int, default=24)
    p.add_argument("--cliques", type=int, default=6)
    p.set_defaults(func=_cmd_failures)

    p = sub.add_parser("cost", help="fabric cost/power model (section 2)")
    p.add_argument("--nodes", type=int, default=4096)
    p.add_argument("--uplinks", type=int, default=16)
    p.add_argument("--locality", type=float, default=0.56)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("hierarchy", help="hierarchical SORN family (extension)")
    p.add_argument("--nodes", type=int, default=4096)
    p.add_argument("--cliques", type=int, default=64)
    p.add_argument("--locality", type=float, default=0.56)
    p.set_defaults(func=_cmd_hierarchy)

    p = sub.add_parser(
        "fig-adaptive",
        help="closed-loop adaptation runtime with chaos knobs vs a "
        "static oblivious baseline",
    )
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--cliques", type=int, default=4)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--epoch-slots", type=int, default=60)
    p.add_argument("--phases", type=str, default="0.3,0.7,0.9",
                   help="comma-separated locality drift across the run")
    p.add_argument("--load", type=float, default=0.5)
    p.add_argument("--initial-q", type=float, default=1.0)
    p.add_argument("--dwell", type=int, default=1,
                   help="min epochs between applied updates")
    p.add_argument("--fallback-after", type=int, default=3,
                   help="consecutive failed epochs before oblivious fallback")
    p.add_argument("--outages", type=str, default="",
                   help="comma-separated epochs with controller outages")
    p.add_argument("--corrupt", type=str, default="",
                   help="estimate corruptions, e.g. '2:nan,5:negative' "
                        "(kinds: nan, inf, negative, self-traffic, shape)")
    p.add_argument("--planner-fail", type=str, default="",
                   help="comma-separated epochs where every planner "
                        "attempt fails")
    p.add_argument("--timeline", type=str, default="",
                   help="fabric failure spec, e.g. 'node:3@100-500'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", action="store_true",
                   help="run the per-slot invariant checker")
    p.add_argument(
        "--engine",
        choices=("reference", "vectorized"),
        default="vectorized",
        help="either engine produces the identical epoch history",
    )
    _add_sweep_flags(p)
    _add_profile_flag(p)
    p.set_defaults(func=_cmd_fig_adaptive)

    p = sub.add_parser("adapt", help="run the adaptation loop demo")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--cliques", type=int, default=4)
    p.add_argument("--cycles", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_adapt)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``sorn-repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    with _maybe_profiled(args):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
