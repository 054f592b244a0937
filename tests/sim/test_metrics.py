"""SimReport aggregation and percentile helpers."""

import json

import pytest

from repro.errors import SimulationError
from repro.routing import SornRouter
from repro.schedules import build_sorn_schedule
from repro.sim import SimConfig, SimReport, SlotSimulator, percentile
from repro.sim.flows import FlowState
from repro.traffic import FlowSizeDistribution, FlowSpec, Workload, clustered_matrix


class TestPercentile:
    def test_basic(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0
        assert percentile([1, 2, 3, 4, 5], 0) == 1.0
        assert percentile([1, 2, 3, 4, 5], 100) == 5.0

    def test_empty_raises(self):
        with pytest.raises(SimulationError, match="empty sequence"):
            percentile([], 50)

    def test_empty_with_default(self):
        assert percentile([], 50, default=None) is None
        assert percentile([], 99, default=0.0) == 0.0

    def test_range_checked(self):
        with pytest.raises(SimulationError):
            percentile([1], 101)

    def test_range_checked_before_default(self):
        # An out-of-range p is a caller bug even on empty input.
        with pytest.raises(SimulationError):
            percentile([], 101, default=None)


def build_report():
    flows = {}
    for i, (size, arrival, completion) in enumerate(
        [(2, 0, 4), (3, 1, 10), (5, 2, None)]
    ):
        state = FlowState(spec=FlowSpec(i, 0, 1, size, arrival))
        if completion is not None:
            for t in range(size):
                state.record_delivery(completion - size + 1 + t, hops=2)
        state.injected_cells = size
        flows[i] = state
    return SimReport.from_flows(
        flows,
        num_nodes=4,
        duration_slots=20,
        max_voq=7,
        mean_occupancy=3.5,
        window_start=10,
        window_delivered=4,
    )


class TestSimReport:
    def test_cell_accounting(self):
        report = build_report()
        assert report.offered_cells == 10
        assert report.injected_cells == 10
        assert report.delivered_cells == 5

    def test_flow_accounting(self):
        report = build_report()
        assert report.total_flows == 3
        assert report.completed_flows == 2
        assert report.completion_ratio == pytest.approx(2 / 3)

    def test_fct_values(self):
        report = build_report()
        assert report.fct_slots == [5, 10]
        assert report.mean_fct == pytest.approx(7.5)
        assert report.fct_percentile(100) == 10.0

    def test_throughput(self):
        report = build_report()
        assert report.throughput == pytest.approx(5 / (4 * 20))
        assert report.delivery_ratio == pytest.approx(0.5)

    def test_window_throughput(self):
        report = build_report()
        assert report.window_throughput == pytest.approx(4 / (4 * 10))

    def test_mean_hops(self):
        assert build_report().mean_hops == pytest.approx(2.0)

    def test_summary_mentions_key_numbers(self):
        text = build_report().summary()
        assert "N=4" in text and "flows=2/3" in text

    def test_dict_round_trip(self):
        """``to_dict`` is plain JSON and ``from_dict`` rebuilds an equal
        report, both for a flow-state report and for the vectorized
        engine's array-built one."""
        schedule = build_sorn_schedule(16, 4, q=3)
        workload = Workload(
            clustered_matrix(schedule.layout, 0.7),
            FlowSizeDistribution.fixed(6),
            load=0.8,
        )
        engine_report = SlotSimulator(
            schedule,
            SornRouter(schedule.layout),
            SimConfig(engine="vectorized"),
            rng=0,
        ).run(workload.generate(140, rng=11), 140)
        for report in (build_report(), engine_report):
            data = json.loads(json.dumps(report.to_dict()))
            assert SimReport.from_dict(data) == report
            assert isinstance(report.mean_occupancy, float)
            assert isinstance(report.max_voq, int)


class TestEmptyReport:
    """Regression: undefined statistics are explicit None, never NaN."""

    @staticmethod
    def build_empty():
        return SimReport.from_flows(
            {},
            num_nodes=4,
            duration_slots=20,
            max_voq=0,
            mean_occupancy=0.0,
        )

    def test_fct_stats_are_none(self):
        report = self.build_empty()
        assert report.mean_fct is None
        assert report.fct_percentile(50) is None
        assert report.short_fct_percentile(99) is None
        assert report.bulk_fct_percentile(99) is None

    def test_summary_renders_dash_not_nan(self):
        text = self.build_empty().summary()
        assert "fct(p50/p99)=-/-" in text
        assert "nan" not in text

    def test_empty_window_is_none(self):
        report = SimReport.from_flows(
            {},
            num_nodes=4,
            duration_slots=20,
            max_voq=0,
            mean_occupancy=0.0,
            window_start=20,
        )
        assert report.window_throughput is None
