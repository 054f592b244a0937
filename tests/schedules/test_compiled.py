"""The compiled schedule: a bank of distinct matchings plus a slot index.

Every schedule's ``bank[index]`` must equal, byte for byte, the dense
``(period, planes, N)`` table built the slow way.  The oracle is one
:class:`Matching` per slot and plane: :meth:`plane_matching` for the
schedules that compile through the generic path, and for SORN and
hierarchical SORN (whose ``matching`` now reads the bank) a per-slot
build from the schedule's definition (:func:`clique_row`).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import optimal_q
from repro.exp.families import FRONTIER_SYSTEMS, _frontier_fabric
from repro.schedules import (
    HierarchicalSornSchedule,
    Matching,
    SornSchedule,
    build_sorn_schedule,
)
from repro.topology.cliques import CliqueLayout
from repro.util import spread_evenly


def intra_positions(schedule, r):
    """Positions that intra matching *r* (0-based, cyclic) links each
    clique position to."""
    pos = np.arange(schedule.clique_size)
    if isinstance(schedule, SornSchedule):
        return (pos + r % (schedule.clique_size - 1) + 1) % schedule.clique_size
    r %= schedule.h * (schedule.radix - 1)
    dim, shift = r % schedule.h, r // schedule.h + 1
    return np.array([schedule.advance_position(int(i), dim, shift) for i in pos])


def clique_row(schedule, t):
    """Base-plane slot *t* of a (hierarchical) SORN schedule, from its
    definition: inter slots are spread evenly over the period, and each
    family steps through its matchings in order, one per slot of that
    family (inter matching g links clique c to clique c + g + 1)."""
    order = np.array(schedule.layout.groups())
    nc = order.shape[0]
    inter_slots = spread_evenly(schedule.num_inter_slots, schedule.period)
    k = int(np.searchsorted(inter_slots, t))  # inter slots before t
    if k < inter_slots.size and inter_slots[k] == t:
        rolled = order[(np.arange(nc) + k % (nc - 1) + 1) % nc]
    else:
        rolled = order[:, intra_positions(schedule, t - k)]
    dst = np.empty(schedule.num_nodes, dtype=np.int64)
    dst[order.ravel()] = rolled.ravel()
    return Matching(dst).dst


def dense_table(schedule) -> np.ndarray:
    """``(period, planes, N)`` int32 table, one matching per slot and plane."""
    if isinstance(schedule, (SornSchedule, HierarchicalSornSchedule)):

        def row(t, p):
            return clique_row(schedule, (t + schedule.plane_offset(p)) % schedule.period)

    else:

        def row(t, p):
            return schedule.plane_matching(t, p).dst

    return np.array(
        [[row(t, p) for p in range(schedule.num_planes)] for t in range(schedule.period)],
        dtype=np.int32,
    )


def assert_compiled_matches(schedule):
    bank, index = schedule.compiled()
    assert bank.dtype == np.int32 and index.dtype == np.int32
    assert not bank.flags.writeable and not index.flags.writeable
    assert index.shape == (schedule.period, schedule.num_planes)
    assert bank.shape[1] == schedule.num_nodes
    assert len({row.tobytes() for row in bank}) == len(bank), "duplicate bank rows"
    assert bank[index].tobytes() == dense_table(schedule).tobytes()
    return bank, index


def frontier_params(system, locality, flavor):
    """Small-fabric params for one frontier system (n=16 suits orn2d)."""
    params = {"system": system, "nodes": 16, "cliques": 4, "locality": locality}
    if system == "expander":
        params["expander_seed"] = flavor
    elif system == "beyond_vlb":
        params["direct_fraction"] = 0.3 + 0.2 * flavor
    elif system == "bvn":
        params["bvn_period"] = 20 + 4 * flavor
    elif system == "mixed":
        params["pool_seed"] = flavor
    return params


class TestByteIdentity:
    @given(
        system=st.sampled_from(FRONTIER_SYSTEMS),
        locality=st.sampled_from([0.4, 0.56, 0.8]),
        flavor=st.integers(0, 2),
    )
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_bank_index_equals_dense_table(self, system, locality, flavor):
        """Across every frontier fabric family: distinct read-only int32
        bank rows whose gather by the index is the dense table."""
        schedule, _ = _frontier_fabric(frontier_params(system, locality, flavor))
        assert_compiled_matches(schedule)

    def test_compiled_is_memoized(self):
        schedule = build_sorn_schedule(12, 3, q=2)
        bank, index = schedule.compiled()
        again = schedule.compiled()
        assert again[0] is bank and again[1] is index


class TestBankSize:
    @pytest.mark.parametrize(
        "nodes, cliques, q, planes",
        [
            (16, 4, 2.0, 1),
            (12, 3, 1.0, 2),
            (24, 4, 3.5, 3),
            (128, 8, optimal_q(0.56), 1),
            (8, 1, 1.0, 1),  # a single clique: intra rotations only
            (6, 6, 1.0, 2),  # one-node cliques: inter rotations only
        ],
    )
    def test_sorn_bank_is_both_rotation_families(self, nodes, cliques, q, planes):
        schedule = build_sorn_schedule(nodes, cliques, q=q, num_planes=planes)
        bank, _ = assert_compiled_matches(schedule)
        assert len(bank) == (schedule.clique_size - 1) + (cliques - 1)

    def test_sorn_bank_on_a_shuffled_layout(self):
        layout = CliqueLayout.random_equal(24, 4, rng=3)
        schedule = SornSchedule(layout, q=1.7, num_planes=2)
        bank, _ = assert_compiled_matches(schedule)
        assert len(bank) == 5 + 3

    @pytest.mark.parametrize(
        "nodes, cliques, h, q, planes",
        [(32, 2, 2, 3.0, 1), (64, 4, 2, 2.5, 2), (16, 2, 3, 1.5, 1), (9, 1, 2, 1.0, 1)],
    )
    def test_hierarchical_bank_is_digit_advances_plus_rotations(
        self, nodes, cliques, h, q, planes
    ):
        schedule = HierarchicalSornSchedule(
            CliqueLayout.equal(nodes, cliques), q=q, h=h, num_planes=planes
        )
        bank, _ = assert_compiled_matches(schedule)
        assert len(bank) == h * (schedule.radix - 1) + (cliques - 1)


class TestNodeRows:
    @pytest.mark.parametrize(
        "schedule",
        [
            build_sorn_schedule(16, 4, q=2.0, num_planes=2),
            HierarchicalSornSchedule(CliqueLayout.equal(16, 4), q=2, h=2),
        ],
        ids=["sorn", "hierarchical"],
    )
    def test_node_row_is_the_base_plane_column(self, schedule):
        base = dense_table(schedule)[:, 0]
        for v in range(schedule.num_nodes):
            row = schedule.node_row(v)
            assert row.dtype == np.int64
            assert row.tolist() == base[:, v].tolist()
            assert row.tolist() == [
                schedule.matching(t).destination(v) for t in range(schedule.period)
            ]


class TestPaperScale:
    def test_nc32_operating_point_compiles_small(self):
        """Table 1's second row (N=4096, Nc=32 at q*): a 240,157-slot
        period from 158 matchings, spot-checked against per-slot builds."""
        schedule = build_sorn_schedule(4096, 32, q=optimal_q(0.56))
        assert schedule.period == 240157
        bank, index = schedule.compiled()
        assert bank.shape == (158, 4096)
        assert index.shape == (240157, 1)
        rng = np.random.default_rng(0)
        for t in rng.integers(0, schedule.period, 64):
            assert np.array_equal(bank[index[t, 0]], clique_row(schedule, int(t)))
