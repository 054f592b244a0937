"""SimNetwork VOQ semantics: FIFO within class, transit priority."""

import pytest

from repro.errors import SimulationError
from repro.sim import Cell, SimNetwork
from repro.sim.flows import FlowState
from repro.traffic import FlowSpec


def make_cell(path, hop=0):
    flow = FlowState(spec=FlowSpec(0, path[0], path[-1], 10, 0))
    return Cell(flow=flow, path=tuple(path), hop=hop, injected_slot=0)


class TestEnqueueTransmit:
    def test_fifo_within_class(self):
        net = SimNetwork(4)
        a, b = make_cell([0, 1]), make_cell([0, 1, 2])
        net.enqueue(a)
        net.enqueue(b)
        assert net.pop(0, 1) is a
        assert net.pop(0, 1) is b

    def test_transit_priority(self):
        """A transit cell enqueued after a fresh cell is served first."""
        net = SimNetwork(4)
        fresh = make_cell([0, 1])
        transit = make_cell([3, 0, 1], hop=1)
        net.enqueue(fresh)
        net.enqueue(transit)
        assert net.pop(0, 1) is transit
        assert net.pop(0, 1) is fresh

    def test_budget_respected(self):
        """A circuit carries one cell per slot: a pop takes one cell."""
        net = SimNetwork(4)
        for _ in range(5):
            net.enqueue(make_cell([0, 1]))
        assert net.pop(0, 1) is not None
        assert net.queue_length(0, 1) == 4
        assert net.total_occupancy == 4

    def test_empty_queue_transmits_nothing(self):
        net = SimNetwork(4)
        assert net.pop(0, 1) is None
        net.enqueue(make_cell([0, 1]))
        net.pop(0, 1)
        assert net.pop(0, 1) is None
        assert net.total_occupancy == 0

    def test_path_out_of_range_rejected(self):
        net = SimNetwork(4)
        with pytest.raises(SimulationError):
            net.enqueue(make_cell([0, 9]))

    def test_too_small_fabric(self):
        with pytest.raises(SimulationError):
            SimNetwork(1)


class TestAccounting:
    def test_occupancy_tracks_cells(self):
        net = SimNetwork(4)
        net.enqueue(make_cell([0, 1]))
        net.enqueue(make_cell([2, 3]))
        assert net.total_occupancy == 2
        net.pop(0, 1)
        assert net.total_occupancy == 1

    def test_node_backlog(self):
        net = SimNetwork(4)
        net.enqueue(make_cell([0, 1]))
        net.enqueue(make_cell([0, 2]))
        net.enqueue(make_cell([1, 2]))
        assert net.node_backlog(0) == 2
        assert net.backlogs() == [2, 1, 0, 0]

    def test_max_voq_counts_both_classes(self):
        net = SimNetwork(4)
        net.enqueue(make_cell([0, 1]))
        net.enqueue(make_cell([2, 0, 1], hop=1))
        assert net.max_voq_length() == 2

    def test_iter_cells_covers_everything(self):
        net = SimNetwork(4)
        cells = [make_cell([0, 1]), make_cell([1, 3]), make_cell([2, 0, 3], hop=1)]
        for c in cells:
            net.enqueue(c)
        assert set(id(c) for c in net.iter_cells()) == set(id(c) for c in cells)


class TestCellSemantics:
    def test_advance(self):
        cell = make_cell([0, 1, 2])
        assert cell.current_node == 0
        assert cell.next_node == 1
        assert not cell.at_last_hop
        cell.advance()
        assert cell.current_node == 1
        assert cell.at_last_hop

    def test_advance_past_end_rejected(self):
        cell = make_cell([0, 1])
        cell.advance()
        with pytest.raises(SimulationError):
            cell.advance()


class TestFlowState:
    def test_delivery_accounting(self):
        flow = FlowState(spec=FlowSpec(0, 0, 1, 2, 5))
        flow.record_delivery(10, hops=2)
        assert not flow.is_complete
        assert flow.first_delivery_slot == 10
        flow.record_delivery(12, hops=1)
        assert flow.is_complete
        assert flow.completion_slot == 12
        assert flow.fct_slots == 8  # 12 - 5 + 1
        assert flow.mean_hops == pytest.approx(1.5)

    def test_over_delivery_rejected(self):
        flow = FlowState(spec=FlowSpec(0, 0, 1, 1, 0))
        flow.record_delivery(3, 2)
        with pytest.raises(SimulationError):
            flow.record_delivery(4, 2)

    def test_incomplete_fct_none(self):
        flow = FlowState(spec=FlowSpec(0, 0, 1, 5, 0))
        assert flow.fct_slots is None
        assert flow.mean_hops == 0.0
