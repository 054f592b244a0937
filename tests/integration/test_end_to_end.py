"""Cross-module integration: control plane -> schedule -> hardware -> sim."""

import numpy as np

from repro.control import (
    UpdateCampaign,
    balanced_cliques,
    birkhoff_von_neumann,
    schedule_from_decomposition,
    sinkhorn_scale,
)
from repro.core import AdaptationLoop, Sorn
from repro.hardware.awgr import Awgr
from repro.routing import SornRouter, VlbRouter
from repro.schedules import build_sorn_schedule
from repro.sim import SimConfig, SlotSimulator, saturation_throughput
from repro.topology import CliqueLayout, LogicalTopology
from repro.traffic import (
    FlowSizeDistribution,
    Workload,
    clustered_matrix,
    facebook_cluster_matrix,
)


class TestControlToDataPlane:
    def test_estimate_cluster_build_deploy(self):
        """Full semi-oblivious cycle on a facebook-style workload.

        The recovered layout captures the planted locality and clearly
        out-performs a demand-blind contiguous layout.  (Absolute
        throughput sits below 1/(3-x) because the role-affinity matrix is
        non-uniform across cliques while this schedule splits inter
        bandwidth uniformly — exactly the gap the paper's section 5
        "Expressivity" machinery addresses; see bench_expressivity.)
        """
        import numpy as np

        from repro.control import weighted_sorn_schedule

        truth = CliqueLayout.random_equal(32, 4, rng=2)
        demand = facebook_cluster_matrix(truth, target_locality=0.7, rng=2)
        layout = balanced_cliques(demand, 4)
        x = demand.locality(layout)
        assert x > 0.6  # clustering recovered most of the structure

        uniform = Sorn.optimal(32, 4, min(x, 0.99), layout=layout)
        r_uniform = uniform.fluid_throughput(demand).throughput

        aggregate = demand.aggregate(layout)
        np.fill_diagonal(aggregate, 0.0)
        weighted = weighted_sorn_schedule(layout, uniform.design.q, aggregate)
        r_weighted = saturation_throughput(
            weighted, SornRouter(layout), demand
        ).throughput
        # Encoding the aggregate matrix into inter-clique bandwidth lifts
        # throughput over the uniform split (section 5 expressivity).
        assert r_weighted > r_uniform

    def test_wavelength_compilation_of_adapted_schedule(self):
        """Adapted schedules stay expressible on a full-band AWGR."""
        sorn = Sorn.optimal(16, 4, 0.3)
        adapted = Sorn.optimal(16, 4, 0.8, layout=sorn.layout)
        program = adapted.wavelength_program(Awgr(16, 15))
        assert program.band_required() <= 15

    def test_bvn_schedule_supports_vlb_simulation(self):
        """Control-plane-synthesized (BvN) schedule carries simulated
        traffic end to end."""
        rng = np.random.default_rng(0)
        raw = rng.random((8, 8)) + 0.3
        np.fill_diagonal(raw, 0.0)
        schedule = schedule_from_decomposition(
            birkhoff_von_neumann(sinkhorn_scale(raw)), period=32
        )
        topo = LogicalTopology.from_schedule(schedule)
        assert topo.is_connected()
        from repro.traffic import uniform_matrix

        wl = Workload(uniform_matrix(8), FlowSizeDistribution.fixed(3000), load=0.2)
        flows = wl.generate(600, rng=1)
        sim = SlotSimulator(schedule, VlbRouter(8), SimConfig(drain=True), rng=2)
        report = sim.run(flows, 600)
        assert report.delivery_ratio > 0.95

    def test_update_campaign_with_adaptation_loop(self):
        """Adaptation decisions executed through an update campaign
        remain drain-free when only q changes."""
        loop = AdaptationLoop(Sorn.optimal(16, 4, 0.3), recluster=False)
        campaign = UpdateCampaign(loop.deployment.schedule)
        layout = loop.deployment.layout
        for epoch, x in enumerate([0.5, 0.8]):
            decision = loop.step(clustered_matrix(layout, x))
            assert decision.applied
            assert campaign.maybe_apply(epoch, loop.deployment.schedule) is not None
            plan = decision.update_plan
            assert plan.is_drain_free and plan.preserves_neighbor_superset
        assert campaign.updates_applied == 2


class TestPerformanceComparisons:
    def test_sorn_latency_beats_flat_rr_for_local_traffic(self):
        """Simulated FCT on local traffic: SORN completes flows faster
        than the flat round robin at the same load (the latency win)."""
        from repro.schedules import RoundRobinSchedule

        n, nc, x = 32, 4, 0.8
        layout = CliqueLayout.equal(n, nc)
        matrix = clustered_matrix(layout, x)
        wl = Workload(matrix, FlowSizeDistribution.fixed(6000), load=0.25)
        flows = wl.generate(1200, rng=9)

        sorn_schedule = build_sorn_schedule(n, nc, q=2 / (1 - x))
        sorn_sim = SlotSimulator(
            sorn_schedule, SornRouter(layout), SimConfig(drain=True), rng=1
        )
        rr_sim = SlotSimulator(
            RoundRobinSchedule(n), VlbRouter(n), SimConfig(drain=True), rng=1
        )
        sorn_fct = sorn_sim.run(flows, 1200).mean_fct
        rr_fct = rr_sim.run(flows, 1200).mean_fct
        assert sorn_fct < rr_fct

    def test_sorn_throughput_beats_2d_orn_under_structure(self):
        """Fluid comparison at matched scale: SORN's r exceeds 1/4."""
        from repro.routing import MultiDimRouter
        from repro.schedules import MultiDimSchedule

        n = 64
        layout = CliqueLayout.equal(n, 8)
        matrix = clustered_matrix(layout, 0.56)
        sorn_schedule = build_sorn_schedule(n, 8, q=2 / 0.44)
        sorn_result = saturation_throughput(
            sorn_schedule, SornRouter(layout), matrix
        )
        md_schedule = MultiDimSchedule(n, 2)
        md_result = saturation_throughput(
            md_schedule, MultiDimRouter(md_schedule), matrix
        )
        assert sorn_result.throughput > md_result.throughput
        assert md_result.throughput <= 0.30  # near the 1/4 bound
