"""Cerberus-style mixed static/rotor/demand pool schedule."""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.schedules import MixedPoolSchedule
from repro.schedules.matching import Matching


def dense_demand(n, seed=0):
    rng = np.random.default_rng(seed)
    demand = rng.random((n, n)) + 0.05
    np.fill_diagonal(demand, 0.0)
    return demand


def build(n=8, static=1, rotor=1, demand_planes=1, **kw):
    demand = dense_demand(n) if demand_planes else None
    return MixedPoolSchedule(
        n,
        static_planes=static,
        rotor_planes=rotor,
        demand_planes=demand_planes,
        demand=demand,
        **kw,
    )


class TestConstruction:
    def test_pool_partition(self):
        schedule = build(static=2, rotor=1, demand_planes=1)
        assert schedule.num_planes == 4
        assert schedule.pool_counts == {"static": 2, "rotor": 1, "demand": 1}
        assert [schedule.pool_of(p) for p in range(4)] == [
            "static", "static", "rotor", "demand",
        ]
        assert schedule.pool_planes("static") == [0, 1]
        assert schedule.pool_planes("rotor") == [2]
        assert schedule.pool_planes("demand") == [3]

    def test_period_covers_both_cycles(self):
        n = 8
        schedule = build(n=n)  # rotor period 7, demand period 14
        assert schedule.period % (n - 1) == 0
        assert schedule.period % schedule.demand_schedule.period == 0

    def test_all_pools_optional_but_not_empty(self):
        with pytest.raises(ScheduleError):
            MixedPoolSchedule(8, static_planes=0, rotor_planes=0, demand_planes=0)

    def test_demand_pool_requires_matrix(self):
        with pytest.raises(ScheduleError, match="requires a demand matrix"):
            MixedPoolSchedule(8, demand_planes=1, demand=None)

    def test_matrix_without_demand_pool_rejected(self):
        with pytest.raises(ScheduleError):
            MixedPoolSchedule(
                8, demand_planes=0, rotor_planes=1, demand=dense_demand(8)
            )

    def test_validates(self):
        build(n=6, static=2).validate()

    def test_not_offset_copies(self):
        assert not build()._planes_are_offset_copies()


class TestPoolSemantics:
    def test_static_planes_dwell(self):
        schedule = build(n=8, static=2, rotor=0, demand_planes=0)
        for plane in (0, 1):
            first = schedule.plane_matching(0, plane)
            for slot in (1, 5, schedule.period - 1):
                assert schedule.plane_matching(slot, plane) is first

    def test_static_shifts_generate_group(self):
        """Seeded shift selection always yields a connected circulant,
        even when n is composite and the raw draw shares a factor."""
        for n in (6, 8, 9, 12):
            for seed in range(6):
                schedule = MixedPoolSchedule(
                    n, static_planes=2, rotor_planes=0, demand_planes=0, seed=seed
                )
                import math

                assert math.gcd(*schedule.static_shifts, n) == 1

    def test_rotor_planes_cycle_all_rotations(self):
        n = 7
        schedule = build(n=n, static=0, rotor=2, demand_planes=0)
        for plane in (0, 1):
            shifts = set()
            for slot in range(n - 1):
                m = schedule.plane_matching(slot, plane)
                shifts.add(int(m.dst[0]))  # dst of node 0 identifies the shift
            assert len(shifts) == n - 1

    def test_rotor_planes_staggered(self):
        schedule = build(n=9, static=0, rotor=2, demand_planes=0)
        assert not np.array_equal(
            schedule.plane_matching(0, 0).dst, schedule.plane_matching(0, 1).dst
        )

    def test_demand_plane_runs_bvn_schedule(self):
        schedule = build(n=6, static=0, rotor=1, demand_planes=1)
        inner = schedule.demand_schedule
        plane = schedule.pool_planes("demand")[0]
        for slot in range(schedule.period):
            assert np.array_equal(
                schedule.plane_matching(slot, plane).dst,
                inner.matching(slot % inner.period).dst,
            )

    def test_demand_connected_delegates(self):
        schedule = build(n=6)
        inner = schedule.demand_schedule
        for (u, v) in list(inner.connected_pairs())[:5]:
            assert schedule.demand_connected(u, v)
        no_demand = build(n=6, demand_planes=0)
        assert not no_demand.demand_connected(0, 1)

    def test_dest_table_reflects_heterogeneous_planes(self):
        """The generic compiled bank and index must report each plane's
        own matching, not offset copies of plane 0."""
        schedule = build(n=8, static=1, rotor=1, demand_planes=1)
        bank, index = schedule.compiled()
        assert index.shape == (schedule.period, 3) and bank.shape[1] == 8
        for slot in (0, 3, schedule.period - 1):
            for plane in range(3):
                assert np.array_equal(
                    bank[index[slot, plane]], schedule.plane_matching(slot, plane).dst
                )

    def test_matching_is_plane_zero(self):
        schedule = build(n=8)
        for slot in (0, 2, 9):
            assert np.array_equal(
                schedule.matching(slot).dst, schedule.plane_matching(slot, 0).dst
            )

    def test_seed_changes_static_shifts(self):
        rotations = {
            Matching.rotation(11, s).dst[0]
            for s in MixedPoolSchedule(
                11, static_planes=3, rotor_planes=0, demand_planes=0, seed=0
            ).static_shifts
        }
        other = {
            Matching.rotation(11, s).dst[0]
            for s in MixedPoolSchedule(
                11, static_planes=3, rotor_planes=0, demand_planes=0, seed=5
            ).static_shifts
        }
        assert rotations != other
