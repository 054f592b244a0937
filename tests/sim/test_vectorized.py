"""Differential tests: the vectorized engine must reproduce the reference
engine exactly — same reports, same per-slot traces — on every supported
configuration axis (routers, per-flow paths, injection windows, priority
lanes, drain), including a reduced-scale Fig 2f setup.
"""

import numpy as np
import pytest

from repro.analysis import optimal_q
from repro.errors import SimulationError
from repro.routing import SornRouter, VlbRouter
from repro.schedules import RoundRobinSchedule, build_sorn_schedule
from repro.sim import SimConfig, SlotSimulator, TelemetryHub, TraceRecorder
from repro.topology import CliqueLayout
from repro.traffic import WEB_SEARCH, Workload, clustered_matrix, uniform_matrix

def _uniform_flows(num_nodes, seed, duration=250, load=0.4):
    workload = Workload(uniform_matrix(num_nodes), WEB_SEARCH, load=load, cell_bytes=4096.0)
    return workload.generate(duration, rng=np.random.default_rng(seed))


def _combo_rr_vlb():
    return (
        RoundRobinSchedule(16, num_planes=2),
        VlbRouter(16),
        dict(cells_per_circuit=1, drain=True),
        16,
    )


def _combo_sorn_per_flow_window():
    layout = CliqueLayout.equal(32, 4)
    return (
        build_sorn_schedule(32, 4, q=3, layout=layout),
        SornRouter(layout),
        dict(cells_per_circuit=1, per_flow_paths=True, injection_window=4, drain=True),
        32,
    )


def _combo_sorn_short_priority():
    layout = CliqueLayout.equal(32, 4)
    return (
        build_sorn_schedule(32, 4, q=3, layout=layout),
        SornRouter(layout),
        dict(cells_per_circuit=2, short_flow_threshold_cells=8, drain=True),
        32,
    )


def _combo_rr_vlb_window():
    # Per-cell windowed injection: the only mode whose refill RNG draws
    # interleave with arrivals (no whole-run path presampling possible).
    return (
        RoundRobinSchedule(16, num_planes=2),
        VlbRouter(16),
        dict(cells_per_circuit=1, injection_window=2, drain=True),
        16,
    )


COMBOS = {
    "rr-vlb-drain": _combo_rr_vlb,
    "rr-vlb-percell-window": _combo_rr_vlb_window,
    "sorn-perflow-window": _combo_sorn_per_flow_window,
    "sorn-short-priority": _combo_sorn_short_priority,
}


def _run(combo, engine, seed, duration=250, measure_from=80, **overrides):
    schedule, router, cfg, n = combo()
    flows = _uniform_flows(n, seed, duration=duration)
    tracer = TraceRecorder(stride=5)
    sim = SlotSimulator(
        schedule,
        router,
        SimConfig(
            engine=engine, telemetry=TelemetryHub([tracer]), **cfg, **overrides
        ),
        rng=np.random.default_rng(seed + 1),
    )
    report = sim.run(flows, duration, measure_from=measure_from)
    return report, tracer


class TestDifferentialEquality:
    @pytest.mark.parametrize("combo", sorted(COMBOS), ids=sorted(COMBOS))
    @pytest.mark.parametrize("seed", [7, 42])
    def test_reports_and_traces_identical(self, combo, seed):
        """Same seed, same workload: the two engines must agree on the
        full report (delivered counts, FCT lists, occupancy statistics)
        and on every sampled trace point."""
        ref_report, ref_trace = _run(COMBOS[combo], "reference", seed)
        vec_report, vec_trace = _run(COMBOS[combo], "vectorized", seed)
        assert vec_report == ref_report
        assert vec_trace.points == ref_trace.points
        # Sanity: the runs actually exercised the fabric.
        assert ref_report.delivered_cells > 0

    def test_fig2f_configuration(self):
        """Reduced-scale Fig 2f setup (SORN schedule at the optimal q for
        x=0.56, clustered web-search traffic, saturation methodology):
        both engines produce the identical report."""
        x = 0.56
        schedule = build_sorn_schedule(32, 4, q=optimal_q(x))
        matrix = clustered_matrix(schedule.layout, x)
        workload = Workload(matrix, WEB_SEARCH, load=1.4, cell_bytes=150_000)
        flows = workload.generate(600, rng=11)
        reports = {}
        for engine in ("reference", "vectorized"):
            sim = SlotSimulator(
                schedule,
                SornRouter(schedule.layout),
                SimConfig(engine=engine),
                rng=5,
            )
            reports[engine] = sim.run(flows, 600, measure_from=150)
        assert reports["vectorized"] == reports["reference"]
        assert reports["reference"].window_delivered > 0


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError):
            SimConfig(engine="warp-drive")

    def test_default_is_reference(self):
        assert SimConfig().engine == "reference"


class TestLinkedVoqState:
    def test_accessors_track_qlen(self):
        from repro.sim import LinkedVoqState

        state = LinkedVoqState(4, num_lanes=2)
        state.qlen[0, 1] = 2
        state.qlen[1, 2] = 1
        state.credit(3)
        assert state.total_occupancy == 3
        assert state.queue_length(0, 1) == 2
        assert state.queue_length(1, 2) == 1
        assert state.max_voq_length() == 2
        assert state.node_backlog(0) == 2
        assert state.backlogs() == [2, 1, 0, 0]
        state.debit(1)
        assert state.total_occupancy == 2

    def test_validation(self):
        from repro.sim import LinkedVoqState

        with pytest.raises(SimulationError):
            LinkedVoqState(1)
        with pytest.raises(SimulationError):
            LinkedVoqState(4, num_lanes=0)


class TestCascadeRepair:
    def test_high_load_vlb_exercises_repair_tier(self, monkeypatch):
        """A saturated multi-plane VLB run with no event consumers must
        route cascade slots through the in-place repair tier (not the
        sequential fallback) and still match the reference engine
        bit-for-bit."""
        from repro.sim import vectorized as V

        calls = {"repair": 0}
        orig = V.VectorizedSession._repair_cascades

        def counting(self, *args, **kwargs):
            calls["repair"] += 1
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(V.VectorizedSession, "_repair_cascades", counting)
        n = 32
        workload = Workload(
            uniform_matrix(n), WEB_SEARCH, load=1.3, cell_bytes=4096.0
        )
        flows = workload.generate(220, rng=np.random.default_rng(3))
        reports = {}
        for engine in ("reference", "vectorized"):
            sim = SlotSimulator(
                RoundRobinSchedule(n, num_planes=4),
                VlbRouter(n),
                SimConfig(engine=engine, cells_per_circuit=1, drain=True),
                rng=np.random.default_rng(4),
            )
            reports[engine] = sim.run(flows, 220, measure_from=40)
        assert reports["vectorized"] == reports["reference"]
        assert calls["repair"] > 0, "stress run never hit the cascade-repair tier"

    def test_chained_cascade_wins_advance_correct_position(self):
        """Regression: a cell that wins several chained cascade hops in
        one slot used to have its position computed from the stale
        pre-pass ``rhop`` (ignoring the advances already recorded this
        pass), skipping the delivery check and over-advancing it past the
        end of its route — the next slot's drain then indexed past the
        route row (IndexError).  A saturated Opera expander run trips
        the chain reliably; both engines must agree bit-for-bit."""
        from repro.exp import factory
        from repro.traffic import FlowSizeDistribution

        n, slots = 16, 80
        schedule = factory.expander_schedule(n, 4, 1)
        router = factory.opera_router(n, 4, 1)
        workload = Workload(
            factory.clustered(n, 4, 0.56), FlowSizeDistribution.fixed(12), load=1.3
        )
        flows = workload.generate(slots, rng=3)
        reports = {}
        for engine in ("reference", "vectorized"):
            sim = SlotSimulator(
                schedule, router, SimConfig(engine=engine), rng=3
            )
            reports[engine] = sim.run(flows, slots, measure_from=slots // 2)
        assert reports["vectorized"] == reports["reference"]


class TestChunkedPresampling:
    """Chunked slot-batch presampling (``SimConfig.presample_chunk_cells``)
    must be bit-invisible: the refills draw from the same RNG stream in
    the same order as a whole-run presample, so any chunk size — even one
    cell at a time — reproduces the reference engine exactly, in both
    shared-path and per-flow-path modes."""

    @pytest.mark.parametrize(
        "combo", ["rr-vlb-drain", "sorn-short-priority", "sorn-perflow-window"]
    )
    @pytest.mark.parametrize("chunk", [1, 97])
    def test_chunk_size_is_invisible(self, combo, chunk):
        """Tiny and misaligned chunk sizes reproduce the reference
        engine's report and trace bit-for-bit."""
        ref_report, ref_trace = _run(COMBOS[combo], "reference", 7)
        vec_report, vec_trace = _run(
            COMBOS[combo], "vectorized", 7, presample_chunk_cells=chunk
        )
        assert vec_report == ref_report
        assert vec_trace.points == ref_trace.points

    def test_invalid_chunk_rejected(self):
        """A non-positive chunk size fails config validation."""
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SimConfig(presample_chunk_cells=0)


@pytest.mark.scale
class TestMemoryRegression:
    """Peak traced allocation of the memory-lean slot path at N=1024."""

    def test_n1024_peak_allocation_under_budget(self):
        """A short vectorized N=1024 run must stay under the 64 MiB
        budget of ``benchmarks/bench_scale.py`` — catches dtype
        widenings (int64 ``qlen`` or destination table) and a return to
        whole-run injection presampling, each of which alone pushes the
        footprint past the budget."""
        import tracemalloc

        from repro.sim import clear_cube_pool

        budget_bytes = 64 * 2**20
        schedule = build_sorn_schedule(1024, 32, q=optimal_q(0.56))
        router = SornRouter(schedule.layout)
        schedule.dest_table()  # shared cache, warmed outside the trace
        workload = Workload(
            clustered_matrix(schedule.layout, 0.56),
            WEB_SEARCH,
            load=0.3,
            cell_bytes=4096.0,
        )
        slots = 80
        flows = workload.generate(slots, rng=np.random.default_rng(5))
        sim = SlotSimulator(
            schedule, router, SimConfig(engine="vectorized"), rng=6
        )
        # An earlier test may have pooled same-shape VOQ cubes; drop them
        # so this run's allocations are actually traced.
        clear_cube_pool()
        tracemalloc.start()
        tracemalloc.reset_peak()
        report = sim.run(flows, slots, measure_from=slots // 2)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert report.delivered_cells > 0
        assert peak <= budget_bytes, (
            f"N=1024 peak {peak / 2**20:.1f} MiB over the "
            f"{budget_bytes / 2**20:.0f} MiB budget"
        )
