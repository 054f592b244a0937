"""Differential tests for seed replicas run on one shared setup.

A seed-batched sweep (``sorn_sim``'s ``run_batch``) builds the schedule,
router and flow population once per config and runs every seed on them
back to back.  Its contract is that the sharing is invisible: R seeds
run in sequence on one shared setup by the vectorized engine must give
— report for report and, when hubs are attached, snapshot for snapshot
— what R independent reference-engine runs give, each on a freshly
built setup, on every supported configuration axis.
"""

import dataclasses

import pytest

from repro.routing import SornRouter, VlbRouter
from repro.schedules import RoundRobinSchedule, build_sorn_schedule
from repro.sim import (
    FailureTimeline,
    SimConfig,
    SlotSimulator,
    TelemetryHub,
    standard_collectors,
)
from repro.topology import CliqueLayout
from repro.traffic import (
    FlowSizeDistribution,
    Workload,
    clustered_matrix,
    uniform_matrix,
)

SEEDS = [0, 1, 7, 42]
SLOTS = 140


def _flows(matrix, load=0.8, size=6, seed=11):
    workload = Workload(matrix, FlowSizeDistribution.fixed(size), load=load)
    return workload.generate(SLOTS, rng=seed)


def _sorn_setup(load=0.8, locality=0.7):
    """A 16-node, 4-clique SORN fabric (q=3): schedule, router, flows."""
    layout = CliqueLayout.equal(16, 4)
    return (
        build_sorn_schedule(16, 4, q=3, layout=layout),
        SornRouter(layout),
        _flows(clustered_matrix(layout, locality), load=load),
    )


def _flat_setup():
    """A flat 2-plane round robin with VLB on uniform traffic."""
    return RoundRobinSchedule(16, num_planes=2), VlbRouter(16), _flows(
        uniform_matrix(16), load=0.5
    )


def _run(setup, config, seed, hub=None, timeline=None):
    schedule, router, flows = setup
    sim = SlotSimulator(
        schedule,
        router,
        dataclasses.replace(config, telemetry=hub),
        rng=seed,
        timeline=timeline,
    )
    return sim.run(flows, SLOTS, measure_from=SLOTS // 2)


def _replica_reports(make_setup, config, seeds, hubs=None, make_timeline=None):
    """The vectorized engine over *seeds* back to back on one setup, as a
    seed-batched sweep runs them."""
    setup = make_setup()
    timeline = make_timeline() if make_timeline else None
    vectorized = dataclasses.replace(config, engine="vectorized")
    return [
        _run(setup, vectorized, seed, hubs[i] if hubs else None, timeline)
        for i, seed in enumerate(seeds)
    ]


def _independent_reports(
    make_setup, config, seeds, hubs=None, make_timeline=None
):
    """The reference engine per seed, each on a freshly built setup."""
    reference = dataclasses.replace(config, engine="reference")
    return [
        _run(
            make_setup(),
            reference,
            seed,
            hubs[i] if hubs else None,
            make_timeline() if make_timeline else None,
        )
        for i, seed in enumerate(seeds)
    ]


#: ``SimConfig`` keywords per axis; ``chunk_cells`` shrinks the vectorized
#: engine's presample chunks instead.
CONFIG_AXES = {
    "default": dict(),
    "short_priority": dict(short_flow_threshold_cells=4),
    "drain": dict(drain=True, max_drain_slots=400),
    "chunked": dict(chunk_cells=13),
    "chunked_drain": dict(chunk_cells=5, drain=True, max_drain_slots=400),
}


@pytest.mark.parametrize("axis", sorted(CONFIG_AXES))
def test_replicas_match_independent_runs(axis, monkeypatch):
    """Shared-setup replicas equal R independent reference runs, per axis."""
    kwargs = dict(CONFIG_AXES[axis])
    if "chunk_cells" in kwargs:
        monkeypatch.setattr(
            "repro.sim.vectorized.PRESAMPLE_CHUNK_CELLS", kwargs.pop("chunk_cells")
        )
    config = SimConfig(**kwargs)
    replicas = _replica_reports(_sorn_setup, config, SEEDS)
    assert replicas == _independent_reports(_sorn_setup, config, SEEDS)
    assert any(r.delivered_cells > 0 for r in replicas)


def test_replicas_on_flat_orn():
    config = SimConfig(drain=True)
    replicas = _replica_reports(_flat_setup, config, SEEDS)
    assert replicas == _independent_reports(_flat_setup, config, SEEDS)
    assert any(r.delivered_cells > 0 for r in replicas)


def test_replicas_telemetry_snapshots_bit_identical():
    """Per-replica hubs see exactly what independent-run hubs see."""
    seeds = SEEDS[:3]

    def hubs():
        schedule = _sorn_setup()[0]
        return [
            TelemetryHub(
                standard_collectors(
                    schedule, layout=schedule.layout, bucket_slots=20
                )
            )
            for _ in seeds
        ]

    replica_hubs, independent_hubs = hubs(), hubs()
    config = SimConfig()
    replicas = _replica_reports(_sorn_setup, config, seeds, hubs=replica_hubs)
    independent = _independent_reports(
        _sorn_setup, config, seeds, hubs=independent_hubs
    )
    assert replicas == independent
    for replica_hub, independent_hub in zip(replica_hubs, independent_hubs):
        assert replica_hub.snapshot() == independent_hub.snapshot()


def test_replicas_under_failure_timeline():
    """A healing node failure, its timeline shared like the setup."""

    def setup():
        return _sorn_setup(load=0.5, locality=0.6)

    def timeline():
        return FailureTimeline.node_failure(0, 30, 90)

    config = SimConfig()
    seeds = SEEDS[:2]
    replicas = _replica_reports(setup, config, seeds, make_timeline=timeline)
    assert replicas == _independent_reports(
        setup, config, seeds, make_timeline=timeline
    )
