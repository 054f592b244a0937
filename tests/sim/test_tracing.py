"""TraceRecorder: time-series sampling and stability detection."""

import pytest

from repro.errors import SimulationError
from repro.routing import VlbRouter
from repro.schedules import RoundRobinSchedule
from repro.sim import SimConfig, SlotSimulator, TelemetryHub, TraceRecorder
from repro.traffic import FlowSizeDistribution, Workload, uniform_matrix


def run_with_trace(load, slots=1200, stride=10):
    n = 16
    wl = Workload(uniform_matrix(n), FlowSizeDistribution.fixed(6000), load=load)
    flows = wl.generate(slots, rng=4)
    tracer = TraceRecorder(stride=stride)
    config = SimConfig(telemetry=TelemetryHub([tracer]))
    sim = SlotSimulator(RoundRobinSchedule(n), VlbRouter(n), config, rng=2)
    report = sim.run(flows, slots)
    return report, tracer


class TestSampling:
    def test_stride_respected(self):
        _, tracer = run_with_trace(0.3, slots=400, stride=50)
        slots = [p.slot for p in tracer.points]
        assert slots == list(range(0, 400, 50))

    def test_delivered_cumulative_monotone(self):
        _, tracer = run_with_trace(0.3)
        values = [p.delivered_cumulative for p in tracer.points]
        assert values == sorted(values)

    def test_final_cumulative_matches_report(self):
        report, tracer = run_with_trace(0.3, slots=1000, stride=1)
        assert tracer.points[-1].delivered_cumulative <= report.delivered_cells
        assert tracer.points[-1].delivered_cumulative >= report.delivered_cells * 0.99

    def test_series_shapes(self):
        _, tracer = run_with_trace(0.3, slots=400, stride=20)
        occupancy = tracer.occupancy_series()
        rates = tracer.delivery_rate_series()
        assert occupancy.shape[1] == 2
        assert rates.shape[0] == occupancy.shape[0] - 1

    def test_rejects_bad_stride(self):
        with pytest.raises(Exception):
            TraceRecorder(stride=0)


class TestStability:
    def test_underload_is_stable(self):
        _, tracer = run_with_trace(0.3)
        assert tracer.is_stable()

    def test_overload_is_unstable(self):
        _, tracer = run_with_trace(2.0)
        assert not tracer.is_stable()

    def test_too_short_trace_rejected(self):
        tracer = TraceRecorder()
        with pytest.raises(SimulationError):
            tracer.is_stable()

    def test_peak_occupancy(self):
        _, tracer = run_with_trace(1.5, slots=600)
        assert tracer.peak_occupancy() > 0
