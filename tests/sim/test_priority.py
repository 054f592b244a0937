"""Short-flow priority lanes in the simulator."""

import pytest

from repro.errors import SimulationError
from repro.routing import VlbRouter
from repro.schedules import RoundRobinSchedule
from repro.sim import SimConfig, SimNetwork, SlotSimulator
from repro.sim.flows import FlowState
from repro.sim.network import short_flow_priority_lane, transit_priority_lane
from repro.sim.flows import Cell
from repro.traffic import FlowSizeDistribution, FlowSpec, Workload, uniform_matrix


def make_cell(size_cells, hop=0):
    flow = FlowState(spec=FlowSpec(0, 0, 1, size_cells, 0))
    path = (2, 0, 1) if hop else (0, 1)
    return Cell(flow=flow, path=path, hop=hop, injected_slot=0)


class TestLaneClassifiers:
    def test_transit_priority_lane(self):
        assert transit_priority_lane(make_cell(5, hop=0)) == 1
        assert transit_priority_lane(make_cell(5, hop=1)) == 0

    def test_short_flow_lane_ordering(self):
        lane = short_flow_priority_lane(threshold_cells=4)
        assert lane(make_cell(2, hop=1)) == 0   # short transit
        assert lane(make_cell(2, hop=0)) == 1   # short fresh
        assert lane(make_cell(9, hop=1)) == 2   # bulk transit
        assert lane(make_cell(9, hop=0)) == 3   # bulk fresh

    def test_threshold_validated(self):
        with pytest.raises(SimulationError):
            short_flow_priority_lane(0)

    def test_lane_out_of_range_detected(self):
        network = SimNetwork(4, num_lanes=2, lane_of=lambda c: 7)
        with pytest.raises(SimulationError):
            network.enqueue(make_cell(1))


class TestPriorityService:
    def test_short_fresh_served_before_bulk_fresh(self):
        network = SimNetwork(4, num_lanes=4, lane_of=short_flow_priority_lane(4))
        bulk = make_cell(10)
        short = make_cell(2)
        network.enqueue(bulk)
        network.enqueue(short)
        assert network.pop(0, 1) is short

    def test_short_class_preempts_bulk_transit(self):
        """Strict class separation: even a fresh short cell beats a bulk
        transit cell (Opera isolates the latency class entirely)."""
        network = SimNetwork(4, num_lanes=4, lane_of=short_flow_priority_lane(4))
        short_fresh = make_cell(2, hop=0)
        bulk_transit = make_cell(10, hop=1)
        network.enqueue(short_fresh)
        network.enqueue(bulk_transit)
        assert network.pop(0, 1) is short_fresh


class TestEndToEnd:
    def run(self, threshold):
        n = 16
        wl = Workload(
            uniform_matrix(n),
            # Bimodal sizes: many 2-cell shorts, occasional 60-cell bulks.
            FlowSizeDistribution(
                [(2999, 0.0), (3000, 0.7), (89999, 0.7), (90000, 1.0)],
                name="bimodal",
            ),
            load=0.5,
        )
        flows = wl.generate(2500, rng=13)
        config = SimConfig(drain=True, short_flow_threshold_cells=threshold)
        sim = SlotSimulator(RoundRobinSchedule(n), VlbRouter(n), config, rng=2)
        return sim.run(flows, 2500)

    def test_priority_cuts_short_flow_fct(self):
        """Short flows finish far faster with the priority lane than when
        FIFO-sharing with elephants; bulk flows still complete."""
        prioritized = self.run(threshold=5)
        assert prioritized.short_fct_slots and prioritized.bulk_fct_slots
        # Shorts beat bulks by a wide margin under priority.
        assert prioritized.short_fct_percentile(99) < \
            prioritized.bulk_fct_percentile(50)
        assert prioritized.completion_ratio > 0.95

    def test_report_classes_empty_without_threshold(self):
        n = 16
        wl = Workload(uniform_matrix(n), FlowSizeDistribution.fixed(3000), load=0.3)
        flows = wl.generate(500, rng=1)
        sim = SlotSimulator(
            RoundRobinSchedule(n), VlbRouter(n), SimConfig(drain=True), rng=2
        )
        report = sim.run(flows, 500)
        assert report.short_fct_slots == [] and report.bulk_fct_slots == []
