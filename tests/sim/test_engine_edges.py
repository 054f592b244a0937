"""Engine edge cases: idle slots, drain, the measurement window and
flow ids."""

import pytest

from repro.errors import TrafficError
from repro.routing import VlbRouter
from repro.schedules import ExplicitSchedule, Matching, RoundRobinSchedule
from repro.sim import SimConfig, SlotSimulator
from repro.traffic import FlowSpec


class TestIdleSlots:
    def test_idle_slots_carry_nothing(self):
        """A schedule with idle slots interleaved still delivers, slower."""
        idle = Matching.idle(4)
        rotations = [Matching.rotation(4, k) for k in (1, 2, 3)]
        dense = ExplicitSchedule(rotations)
        sparse_slots = []
        for m in rotations:
            sparse_slots.extend([m, idle])
        sparse = ExplicitSchedule(sparse_slots)
        flows = [FlowSpec(0, 0, 1, 8, 0)]

        def fct(schedule):
            sim = SlotSimulator(
                schedule, VlbRouter(4), SimConfig(drain=True), rng=9,
            )
            return sim.run(flows, 4).fct_slots[0]

        assert fct(sparse) > fct(dense)


class TestArrivalsAndDrain:
    def test_arrivals_after_horizon_ignored(self):
        """Flows arriving beyond the horizon are never injected."""
        flows = [FlowSpec(0, 0, 1, 4, 0), FlowSpec(1, 2, 3, 4, 100)]
        sim = SlotSimulator(
            RoundRobinSchedule(8), VlbRouter(8), SimConfig(drain=True), rng=1
        )
        report = sim.run(flows, 10)
        assert report.completed_flows == 1
        assert report.injected_cells == 4

    def test_measure_window_with_drain(self):
        """Drain slots extend the horizon; the window keeps counting."""
        sim = SlotSimulator(
            RoundRobinSchedule(8), VlbRouter(8), SimConfig(drain=True), rng=1
        )
        report = sim.run([FlowSpec(0, 0, 5, 40, 0)], 10, measure_from=5)
        assert report.duration_slots >= 10
        assert report.window_delivered > 0
        assert report.window_delivered <= report.delivered_cells

    def test_empty_workload(self):
        sim = SlotSimulator(RoundRobinSchedule(8), VlbRouter(8), rng=1)
        report = sim.run([], 20)
        assert report.delivered_cells == 0
        assert report.total_flows == 0
        assert report.throughput == 0.0


class TestFlowIds:
    """Row *i* of the flow table is flow *i*.  A list whose ids are not
    0..n-1 in order is rejected up front, by both engines alike: the
    reference engine once kept only the last flow of a repeated id while
    the vectorized one ran them all."""

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_duplicate_ids_rejected(self, engine):
        sim = SlotSimulator(
            RoundRobinSchedule(8), VlbRouter(8), SimConfig(engine=engine), rng=1
        )
        flows = [FlowSpec(0, 0, 3, 4, 0), FlowSpec(0, 1, 5, 4, 0)]
        with pytest.raises(TrafficError, match="row 1 has id 0"):
            sim.run(flows, 20)

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_positional_ids_run_every_flow(self, engine):
        sim = SlotSimulator(
            RoundRobinSchedule(8),
            VlbRouter(8),
            SimConfig(engine=engine, drain=True),
            rng=1,
        )
        report = sim.run([FlowSpec(0, 0, 3, 4, 0), FlowSpec(1, 1, 5, 4, 0)], 20)
        assert report.total_flows == 2
        assert report.delivered_cells == 8
