"""Paper-scale (N >= 1024) slot-sim runs, gated by the ``scale`` marker.

These exercise the memory-lean slot path — chunked presampling, int32
cell tables, per-neighbor VOQs, the compiled schedule bank — at the smallest
paper-scale rung (N=1024, the q ladder of ``benchmarks/bench_scale.py``
continues to 4096 with hard byte budgets) and at Table 1's second
operating point (N=4096, Nc=32 at q*, a 240,157-slot period that only
the bank makes simulable).  Horizons are deliberately short so the lane
stays fast; CI runs it alongside the full benchmark ladder
(``-m scale``).
"""

import numpy as np
import pytest

from repro.analysis import optimal_q
from repro.routing import SornRouter
from repro.schedules import build_sorn_schedule
from repro.sim import FlowLevelModel, SimConfig, SlotSimulator
from repro.traffic import FlowSizeDistribution, FlowTable, Workload, clustered_matrix

pytestmark = pytest.mark.scale

NODES = 1024
CLIQUES = 32
LOCALITY = 0.56
LOAD = 0.30
SLOTS = 120


@pytest.fixture(scope="module")
def fabric():
    """One N=1024 SORN fabric at the paper's operating point."""
    schedule = build_sorn_schedule(NODES, CLIQUES, q=optimal_q(LOCALITY))
    return schedule, SornRouter(schedule.layout)


def _run(schedule, router, seed=11):
    workload = Workload(
        clustered_matrix(schedule.layout, LOCALITY),
        FlowSizeDistribution.fixed(4500),
        load=LOAD,
        cell_bytes=1500.0,
    )
    flows = workload.generate(SLOTS, rng=seed)
    sim = SlotSimulator(
        schedule,
        router,
        SimConfig(engine="vectorized", drain=True),
        rng=seed + 1,
    )
    return flows, sim.run(flows, SLOTS, measure_from=0)


def _class_mix_hops(schedule, router):
    """Mean hops the flow-level model expects for clustered traffic."""
    model = FlowLevelModel(
        schedule, router, load=LOAD, locality=LOCALITY, mode="symmetric"
    )
    intra_hops = model.pair_latency(0, 1).hops
    inter_hops = model.pair_latency(0, schedule.layout.clique_size + 1).hops
    return model, LOCALITY * intra_hops + (1 - LOCALITY) * inter_hops


class TestPaperScaleSlotSim:
    def test_n1024_run_is_sane_and_deterministic(self, fabric):
        """The chunked N=1024 run delivers traffic, stays conservative
        (delivered <= injected <= offered) and reproduces bit-identically
        across two sessions with the same seed."""
        schedule, router = fabric
        flows, report = _run(schedule, router)
        assert report.num_nodes == NODES
        assert report.offered_cells >= report.injected_cells
        assert report.injected_cells >= report.delivered_cells
        assert report.delivered_cells > 0
        assert report.completion_ratio == 1.0  # drain leaves nothing behind
        _, again = _run(schedule, router)
        assert again == report

    def test_n1024_matches_flow_model_hops(self, fabric):
        """At scale the measured bandwidth tax matches the analytic
        expectation: mean hops within 5% of the flow-level model (the
        tight band of the differential suite, unchanged at N=1024)."""
        schedule, router = fabric
        _, report = _run(schedule, router)
        model, analytic = _class_mix_hops(schedule, router)
        srcs = np.arange(NODES, dtype=np.int64)
        dsts = np.roll(srcs, -1)
        ones = np.ones(NODES, dtype=np.int64)
        expected = model.evaluate(FlowTable(srcs, dsts, ones, ones - 1))
        # The ring workload above is hop-representative (mostly intra
        # with the clique-boundary inter pairs); compare against the
        # sim's clustered run via the model's clustered class mix.
        assert report.mean_hops == pytest.approx(analytic, rel=0.05)
        assert expected.stable


@pytest.fixture
def second_operating_point():
    """Table 1's N=4096, Nc=32 fabric at q*."""
    schedule = build_sorn_schedule(4096, 32, q=optimal_q(LOCALITY))
    return schedule, SornRouter(schedule.layout)


class TestSecondOperatingPoint:
    def test_n4096_nc32_slot_run_matches_flow_model(self, second_operating_point):
        """The slot engine runs the 240,157-slot schedule the flow model
        alone covered before: cells are conserved, the drain delivers
        everything, and mean hops sit within 5% of the flow model's
        class-mix expectation."""
        schedule, router = second_operating_point
        assert schedule.period == 240157
        flows, report = _run(schedule, router)
        assert report.num_nodes == 4096
        assert report.offered_cells == sum(f.size_cells for f in flows)
        assert report.injected_cells == report.offered_cells
        assert report.delivered_cells == report.injected_cells
        assert report.completion_ratio == 1.0
        _, analytic = _class_mix_hops(schedule, router)
        assert report.mean_hops == pytest.approx(analytic, rel=0.05)
