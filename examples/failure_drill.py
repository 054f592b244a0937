#!/usr/bin/env python
"""Failure drill: blast radius, collateral damage, and sync domains.

Section 6 argues modularity tames operational pain.  This example runs
the drill: compute analytic blast radii, inject a node failure into live
simulations of the flat design and SORN under local traffic, watch queue
build-up through the trace recorder, and compare synchronization domains.

Run:  python examples/failure_drill.py
"""

import dataclasses

from repro.analysis import (
    flat_sync_domain_size,
    node_blast_radius,
    sorn_sync_domain_size,
)
from repro.routing import SornRouter, VlbRouter
from repro.schedules import RoundRobinSchedule, build_sorn_schedule
from repro.sim import (
    FailureTimeline,
    SimConfig,
    SlotSimulator,
    TelemetryHub,
    TraceRecorder,
    split_casualties,
)
from repro.topology import CliqueLayout
from repro.traffic import FlowSizeDistribution, Workload, clustered_matrix

N, NC = 16, 4
FAILED = 0


def main():
    layout = CliqueLayout.equal(N, NC)

    # --- analytic blast radius ------------------------------------------------
    print(f"Analytic blast radius of one node failure (N={N}):")
    print(f"  flat VLB : {node_blast_radius(VlbRouter(N), FAILED):.3f} "
          f"of bystander pairs exposed")
    print(f"  SORN Nc=4: "
          f"{node_blast_radius(SornRouter(layout), FAILED):.3f}")

    # --- live failure injection -----------------------------------------------
    workload = Workload(
        clustered_matrix(layout, 0.8), FlowSizeDistribution.fixed(3000), load=0.15
    )
    flows = workload.generate(500, rng=9)
    casualties, bystanders = split_casualties(flows, [FAILED])
    # The split keeps each flow's id in the full workload; simulated on
    # their own, the bystanders are flows 0..n-1.
    bystanders = [dataclasses.replace(f, flow_id=i) for i, f in enumerate(bystanders)]
    print(f"\nInjecting failure of node {FAILED}: {len(casualties)} endpoint "
          f"casualties excluded, {len(bystanders)} bystander flows simulated.")

    for name, schedule, router in [
        ("flat VLB", RoundRobinSchedule(N), VlbRouter(N)),
        ("SORN", build_sorn_schedule(N, NC, q=2, layout=layout), SornRouter(layout)),
    ]:
        tracer = TraceRecorder(stride=20)
        config = SimConfig(drain=True, max_drain_slots=300,
                           telemetry=TelemetryHub([tracer]))
        sim = SlotSimulator(schedule, router, config, rng=5,
                            timeline=FailureTimeline.node_failure(FAILED))
        report = sim.run(bystanders, 600)
        stuck = report.total_flows - report.completed_flows
        print(f"  {name:<9} bystander completion {report.completion_ratio:6.1%} "
              f"({stuck} flows stuck behind the failure), "
              f"residual queued cells {tracer.points[-1].occupancy}")

    # --- synchronization domains ------------------------------------------------
    print("\nSynchronization domains at 4096 racks:")
    print(f"  flat schedule: every node shares one domain of "
          f"{flat_sync_domain_size(4096)}")
    for nc in (32, 64, 128):
        size = sorn_sync_domain_size(SornRouter(CliqueLayout.equal(4096, nc)))
        print(f"  SORN Nc={nc:<4}: largest domain {size} nodes "
              f"({4096 // size}x smaller)")
    print("\nSmaller domains tolerate looser clocks and larger guard bands "
          "(section 6, 'Practicality benefits').")


if __name__ == "__main__":
    main()
