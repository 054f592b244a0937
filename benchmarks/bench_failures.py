"""Ablation A8: blast radius and synchronization domains (section 6).

"Flat oblivious designs with many random indirect hops inflate the blast
radius of failures ... A modular design reduces this significantly" and
"Modularity can also relax time-synchronization requirements."  Both
claims quantified: analytic blast radii over the routing distributions,
an empirical failure-injection simulation, and sync-domain sizes.
"""

import dataclasses

from repro.analysis import (
    flat_sync_domain_size,
    node_blast_radius,
    sorn_sync_domain_size,
)
from repro.exp import factory
from repro.sim import FailedNodeSchedule, SimConfig, SlotSimulator, split_casualties
from repro.traffic import FlowSizeDistribution, Workload

N = 24


def analytic_radii():
    flat = node_blast_radius(factory.vlb_router(N), 0)
    rows = [("flat VLB", flat)]
    for nc in (2, 4, 6):
        router = factory.sorn_router(N, nc)
        rows.append((f"SORN Nc={nc}", node_blast_radius(router, 0)))
    return rows


def test_analytic_blast_radius(benchmark, report):
    rows = benchmark(analytic_radii)
    report(
        "A8: analytic node blast radius (fraction of bystander pairs exposed)",
        [f"{name:<12} {radius:.3f}" for name, radius in rows],
    )
    radii = dict(rows)
    assert radii["flat VLB"] == 1.0
    assert radii["SORN Nc=6"] < radii["SORN Nc=2"] < 1.0
    assert radii["SORN Nc=6"] < 0.4


def empirical_blast():
    n, nc = 16, 4
    workload = Workload(
        factory.clustered(n, nc, 0.8), FlowSizeDistribution.fixed(3000), load=0.15
    )
    flows = workload.generate(500, rng=9)
    _, bystanders = split_casualties(flows, [0])
    # Simulated on their own, the bystanders are flows 0..n-1.
    bystanders = [dataclasses.replace(f, flow_id=i) for i, f in enumerate(bystanders)]
    config = SimConfig(drain=True, max_drain_slots=300)

    flat = SlotSimulator(
        FailedNodeSchedule(factory.round_robin_schedule(n), [0]),
        factory.vlb_router(n),
        config,
        rng=5,
    ).run(bystanders, 600)
    schedule = factory.sorn_schedule(n, nc, 2)
    sorn = SlotSimulator(
        FailedNodeSchedule(schedule, [0]),
        factory.sorn_router(n, nc),
        config,
        rng=5,
    ).run(bystanders, 600)
    return flat.completion_ratio, sorn.completion_ratio


def test_empirical_failure_injection(benchmark, report):
    flat, sorn = benchmark.pedantic(empirical_blast, rounds=1, iterations=1)
    report(
        "A8: bystander flow completion with one failed node (x=0.8 traffic)",
        [f"flat VLB: {flat:.1%}", f"SORN:     {sorn:.1%}"],
    )
    assert sorn > flat


def test_sync_domains(benchmark, report):
    def domains():
        flat = flat_sync_domain_size(4096)
        rows = [("flat", flat)]
        for nc in (16, 32, 64, 256):
            rows.append(
                (f"SORN Nc={nc}",
                 sorn_sync_domain_size(factory.sorn_router(4096, nc)))
            )
        return rows

    rows = benchmark(domains)
    report(
        "A8: synchronization domain sizes at N=4096",
        [f"{name:<13} {size:>5} nodes" for name, size in rows],
    )
    sizes = dict(rows)
    assert sizes["flat"] == 4096
    assert min(sizes[f"SORN Nc={nc}"] for nc in (16, 32, 64, 256)) == 64
    # The balanced point Nc = sqrt(N) = 64 minimizes the domain: 64x smaller.
    assert sizes["flat"] / sizes["SORN Nc=64"] == 64
