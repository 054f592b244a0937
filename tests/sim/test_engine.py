"""SlotSimulator: conservation, delivery, drain, and saturation behavior."""

import pytest

from repro.errors import SimulationError
from repro.routing import SornRouter, VlbRouter
from repro.schedules import RoundRobinSchedule, build_sorn_schedule
from repro.sim import SimConfig, SlotSimulator
from repro.traffic import (
    FlowSizeDistribution,
    FlowSpec,
    Workload,
    clustered_matrix,
    uniform_matrix,
)


def rr_sim(n=8, **cfg):
    return SlotSimulator(
        RoundRobinSchedule(n), VlbRouter(n), SimConfig(**cfg), rng=7
    )


class TestBasics:
    def test_router_schedule_size_mismatch(self):
        with pytest.raises(SimulationError):
            SlotSimulator(RoundRobinSchedule(8), VlbRouter(9))

    def test_single_flow_delivers_with_drain(self):
        sim = rr_sim(drain=True)
        flows = [FlowSpec(0, 0, 5, 20, 0)]
        report = sim.run(flows, 10)
        assert report.delivered_cells == 20
        assert report.completed_flows == 1
        assert report.delivery_ratio == 1.0

    def test_conservation_without_drain(self):
        sim = rr_sim(drain=False)
        flows = [FlowSpec(0, 0, 5, 50, 0), FlowSpec(1, 3, 6, 50, 0)]
        report = sim.run(flows, 30)
        assert report.injected_cells == 100
        assert report.delivered_cells <= report.injected_cells

    def test_measure_from_validation(self):
        sim = rr_sim()
        with pytest.raises(SimulationError):
            sim.run([FlowSpec(0, 0, 1, 1, 0)], 10, measure_from=10)

    def test_fct_reasonable(self):
        """A 10-cell flow on an otherwise idle RR fabric completes in
        roughly 10 direct-circuit visits (~10 periods at worst)."""
        sim = rr_sim(drain=True)
        report = sim.run([FlowSpec(0, 0, 5, 10, 0)], 5)
        assert report.completed_flows == 1
        fct = report.fct_slots[0]
        assert fct <= 10 * 7 + 14  # 10 second-hop waits + LB slack

    def test_mean_hops_below_router_max(self):
        sim = rr_sim(drain=True)
        flows = [FlowSpec(i, i % 8, (i + 3) % 8, 5, i) for i in range(20)]
        report = sim.run(flows, 40)
        assert 1.0 <= report.mean_hops <= 2.0


class TestSaturation:
    def test_rr_saturation_near_half(self):
        """The headline VLB result: saturation throughput ~50 %."""
        n = 16
        wl = Workload(
            uniform_matrix(n), FlowSizeDistribution.fixed(15000), load=1.4,
        )
        flows = wl.generate(2000, rng=5)
        sim = SlotSimulator(RoundRobinSchedule(n), VlbRouter(n), rng=3)
        thpt = sim.measure_saturation_throughput(flows, 2000)
        assert thpt == pytest.approx(0.5, abs=0.05)

    def test_sorn_saturation_near_theory(self):
        """Fig 2f measured point at x=0.56 (small-scale): ~1/(3-x)."""
        n, nc, x = 32, 4, 0.56
        schedule = build_sorn_schedule(n, nc, q=2 / (1 - x))
        wl = Workload(
            clustered_matrix(schedule.layout, x),
            FlowSizeDistribution.fixed(15000),
            load=1.4,
        )
        flows = wl.generate(2500, rng=5)
        sim = SlotSimulator(schedule, SornRouter(schedule.layout), rng=3)
        thpt = sim.measure_saturation_throughput(flows, 2500)
        # Finite-size mean hops are below 3-x, so the sim can exceed theory
        # slightly; it must be within a reasonable band.
        assert thpt == pytest.approx(1 / (3 - x), abs=0.06)

    def test_underload_delivers_everything(self):
        n = 16
        wl = Workload(uniform_matrix(n), FlowSizeDistribution.fixed(6000), load=0.2)
        flows = wl.generate(1500, rng=2)
        sim = SlotSimulator(
            RoundRobinSchedule(n), VlbRouter(n), SimConfig(drain=True), rng=1
        )
        report = sim.run(flows, 1500)
        assert report.delivery_ratio == pytest.approx(1.0)
        assert report.completion_ratio == pytest.approx(1.0)


class TestDrain:
    def test_drain_bounded_by_max_drain_slots(self):
        """The run ends exactly at the drain bound, with the same report,
        in both engines."""
        # Overwhelm so 5 drain slots cannot finish.
        flows = [FlowSpec(i, 0, 5, 100, 0) for i in range(5)]
        ref = rr_sim(drain=True, max_drain_slots=5).run(flows, 3)
        assert ref.duration_slots == 3 + 5
        assert ref.delivered_cells < 500
        report = rr_sim(drain=True, max_drain_slots=5, engine="vectorized").run(
            flows, 3
        )
        assert report.duration_slots == 8
        assert report == ref


class _PathCountingVlb(VlbRouter):
    """VLB router that counts scalar path() samples (regression probe)."""

    def __init__(self, num_nodes):
        super().__init__(num_nodes)
        self.path_calls = 0

    def path(self, src, dst, rng=None):
        self.path_calls += 1
        return super().path(src, dst, rng)


class TestPerCellPaths:
    """Every cell of a flow samples its own path (per-cell VLB)."""

    def test_per_cell_paths_mix(self):
        sim = rr_sim(drain=True)
        report = sim.run([FlowSpec(0, 0, 5, 200, 0)], 40)
        assert 1.0 < report.mean_hops < 2.0

    def test_per_cell_mode_samples_every_cell(self):
        n = 8
        router = _PathCountingVlb(n)
        sim = SlotSimulator(
            RoundRobinSchedule(n), router, SimConfig(drain=True), rng=3
        )
        sim.run([FlowSpec(0, 0, 5, 9, 0)], 3)
        assert router.path_calls == 9
