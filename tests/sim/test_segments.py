"""Segmented, resumable execution: ``start()``/``run_segment``/``finish``.

The closed-loop runtime depends on a contract both engines must honor:
running a simulation in arbitrary segment sizes — with VOQ contents and
in-flight cells carried across every boundary — produces the *same*
final report as one monolithic ``run()``, and mid-run schedule swaps at
segment boundaries behave identically under both engines.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.routing import SornRouter
from repro.schedules import RoundRobinSchedule, build_sorn_schedule
from repro.sim import SegmentCheckpoint, SimConfig, SlotSimulator
from repro.traffic import FlowSpec

ENGINES = ("reference", "vectorized")


def make_fabric(n=12, cliques=3, q=1):
    schedule = build_sorn_schedule(n, cliques, q=q)
    return schedule, SornRouter(schedule.layout)


def make_flows(n=12, count=60, horizon=120, seed=5):
    rng = np.random.default_rng(seed)
    flows = []
    for fid in range(count):
        src = int(rng.integers(n))
        dst = int(rng.integers(n - 1))
        if dst >= src:
            dst += 1
        flows.append(
            FlowSpec(
                flow_id=fid,
                src=src,
                dst=dst,
                size_cells=int(rng.integers(1, 5)),
                arrival_slot=int(rng.integers(horizon)),
            )
        )
    return flows


def make_sim(engine, config_kwargs=None, q=1):
    schedule, router = make_fabric(q=q)
    cfg = SimConfig(engine=engine, check_invariants=True, **(config_kwargs or {}))
    return SlotSimulator(schedule, router, cfg, rng=7)


class TestSegmentedEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("segment", [1, 7, 40, 1000])
    def test_segmented_equals_monolithic(self, engine, segment):
        flows = make_flows()
        whole = make_sim(engine).run(flows, 150)
        session = make_sim(engine).start(flows, 150)
        while not session.main_phase_done:
            session.run_segment(segment)
        assert session.finish() == whole

    @pytest.mark.parametrize(
        "config_kwargs",
        [
            {"per_flow_paths": True},
            {"injection_window": 2},
            {"short_flow_threshold_cells": 3},
        ],
    )
    @pytest.mark.parametrize("engine", ENGINES)
    def test_segmented_equals_monolithic_config_variants(
        self, engine, config_kwargs
    ):
        flows = make_flows()
        whole = make_sim(engine, config_kwargs).run(flows, 150)
        session = make_sim(engine, config_kwargs).start(flows, 150)
        while not session.main_phase_done:
            session.run_segment(13)
        assert session.finish() == whole

    @pytest.mark.parametrize("segment", [1, 9, 50])
    def test_cross_engine_checkpoints_identical(self, segment):
        flows = make_flows()
        sessions = [make_sim(e).start(flows, 150) for e in ENGINES]
        while not sessions[0].main_phase_done:
            cps = [s.run_segment(segment) for s in sessions]
            assert cps[0] == cps[1]
            snaps = [s.demand_snapshot() for s in sessions]
            np.testing.assert_array_equal(snaps[0], snaps[1])
        assert sessions[0].finish() == sessions[1].finish()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_is_start_finish(self, engine):
        flows = make_flows()
        assert (
            make_sim(engine).run(flows, 150)
            == make_sim(engine).start(flows, 150).finish()
        )


class TestCheckpoint:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_checkpoint_conserves_cells(self, engine):
        session = make_sim(engine).start(make_flows(), 150)
        while not session.main_phase_done:
            cp = session.run_segment(11)
            assert cp.injected_cells - cp.delivered_cells == cp.in_flight_cells
            assert cp.slot == session.slot

    def test_inconsistent_checkpoint_rejected(self):
        with pytest.raises(SimulationError, match="checkpoint"):
            SegmentCheckpoint(
                slot=5,
                injected_cells=10,
                delivered_cells=3,
                in_flight_cells=99,
                max_voq=1,
                window_delivered=3,
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_segment_clamps_to_duration(self, engine):
        session = make_sim(engine).start(make_flows(), 100)
        cp = session.run_segment(10**9)
        assert cp.slot <= 100
        assert session.main_phase_done

    @pytest.mark.parametrize("engine", ENGINES)
    def test_demand_snapshot_totals_match_checkpoint(self, engine):
        session = make_sim(engine).start(make_flows(), 150)
        while not session.main_phase_done:
            cp = session.run_segment(17)
            snap = session.demand_snapshot()
            assert snap.sum() == cp.injected_cells
            assert (snap >= 0).all()
            assert (np.diagonal(snap) == 0).all()


class TestLifecycle:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_finish_is_idempotent(self, engine):
        session = make_sim(engine).start(make_flows(), 120)
        first = session.finish()
        assert session.finish() is first
        assert session.finished

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_segment_after_finish_rejected(self, engine):
        session = make_sim(engine).start(make_flows(), 120)
        session.finish()
        with pytest.raises(SimulationError, match="finished"):
            session.run_segment(5)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_swap_after_finish_rejected(self, engine):
        session = make_sim(engine).start(make_flows(), 120)
        session.finish()
        with pytest.raises(SimulationError, match="finished"):
            session.swap_schedule(RoundRobinSchedule(12))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_invalid_segment_sizes_rejected(self, engine):
        from repro.errors import ReproError

        session = make_sim(engine).start(make_flows(), 120)
        for bad in (0, -3):
            with pytest.raises(ReproError):
                session.run_segment(bad)


class TestScheduleSwap:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_swap_node_count_mismatch_rejected(self, engine):
        session = make_sim(engine).start(make_flows(), 120)
        session.run_segment(10)
        with pytest.raises(SimulationError, match="nodes"):
            session.swap_schedule(RoundRobinSchedule(8))

    def test_swap_sequence_identical_across_engines(self):
        """Two mid-run swaps (q-retune, then oblivious fallback): both
        engines stay bit-identical at every boundary and at the end,
        with invariants checked throughout."""
        flows = make_flows()
        swaps = [
            (40, build_sorn_schedule(12, 3, q=3)),
            (80, RoundRobinSchedule(12)),
        ]
        results = []
        for engine in ENGINES:
            session = make_sim(engine).start(flows, 150)
            boundary_state = []
            for stop, schedule in swaps:
                session.run_segment(stop - session.slot)
                session.swap_schedule(schedule)
                boundary_state.append(
                    (session.checkpoint(), session.demand_snapshot().tolist())
                )
            results.append((boundary_state, session.finish()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_swap_preserves_in_flight_cells(self, engine):
        session = make_sim(engine).start(make_flows(), 150)
        session.run_segment(40)
        before = session.checkpoint()
        session.swap_schedule(build_sorn_schedule(12, 3, q=2))
        after = session.checkpoint()
        assert before == after
        report = session.finish()
        assert report.delivered_cells == report.injected_cells

    @pytest.mark.parametrize("engine", ENGINES)
    def test_swap_to_identical_schedule_is_noop(self, engine):
        flows = make_flows()
        whole = make_sim(engine).run(flows, 150)
        session = make_sim(engine).start(flows, 150)
        session.run_segment(40)
        session.swap_schedule(build_sorn_schedule(12, 3, q=1))
        assert session.finish() == whole
