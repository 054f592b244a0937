"""Fluid solver: exact reproduction of the paper's throughput bounds."""

import numpy as np
import pytest

from repro import Sorn
from repro.analysis import optimal_q, sorn_throughput, sorn_throughput_bounds
from repro.errors import SimulationError
from repro.routing import (
    BeyondVlbRouter,
    DirectRouter,
    FailureAwareRouter,
    HierarchicalSornRouter,
    MixedPoolRouter,
    MultiDimRouter,
    OperaRouter,
    SornRouter,
    VlbRouter,
)
from repro.schedules import (
    ExpanderSchedule,
    HierarchicalSornSchedule,
    MixedPoolSchedule,
    MultiDimSchedule,
    RoundRobinSchedule,
    build_sorn_schedule,
)
from repro.sim import link_loads, saturation_throughput
from repro.topology import CliqueLayout
from repro.traffic import (
    TrafficMatrix,
    clustered_matrix,
    permutation_matrix,
    uniform_matrix,
)

#: The localities ``sorn-repro fig2f`` sweeps.
FIG2F_LOCALITIES = [round(0.1 * i, 1) for i in range(10)]


def walk_loads(router, matrix):
    """Expected link loads by walking every pair's path_options in
    Python: an oracle written apart from the solver's array code."""
    n = matrix.num_nodes
    loads = np.zeros((n, n))
    for src in range(n):
        for dst in range(n):
            demand = matrix.rates[src, dst]
            if demand == 0.0 or src == dst:
                continue
            for prob, path in router.path_options(src, dst):
                for u, v in path.links():
                    loads[u, v] += demand * prob
    return loads


def _dense_matrix(n, seed):
    rates = np.random.default_rng(seed).random((n, n))
    np.fill_diagonal(rates, 0.0)
    return TrafficMatrix(rates)


class TestLinkLoads:
    def test_conservation(self):
        """Total link load equals demand times mean hops."""
        router = VlbRouter(8)
        matrix = uniform_matrix(8)
        loads = link_loads(router, matrix)
        assert loads.sum() == pytest.approx(matrix.total * router.mean_hops_uniform())

    def test_no_self_links(self):
        loads = link_loads(VlbRouter(8), uniform_matrix(8))
        assert np.diagonal(loads).sum() == 0.0

    def test_size_mismatch(self):
        from repro.errors import TrafficError

        with pytest.raises(TrafficError):
            link_loads(VlbRouter(8), uniform_matrix(9))

    def test_enumerates_one_source_at_a_time(self, monkeypatch):
        """One options_batch call per source row keeps the enumeration's
        memory at one row of pairs, not N^2."""
        router = VlbRouter(8)
        calls = []
        enumerate_pairs = router.options_batch

        def spy(srcs, dsts):
            calls.append((sorted(set(np.asarray(srcs).tolist())), len(dsts)))
            return enumerate_pairs(srcs, dsts)

        monkeypatch.setattr(router, "options_batch", spy)
        link_loads(router, uniform_matrix(8))
        assert calls == [([src], 7) for src in range(8)]


class TestLinkLoadsOracle:
    """link_loads against a pair-by-pair walk of path_options."""

    def test_vlb_bit_identical(self):
        router, matrix = VlbRouter(16), _dense_matrix(16, 3)
        assert np.array_equal(link_loads(router, matrix), walk_loads(router, matrix))

    @pytest.mark.parametrize("x", [0.0, 0.56, 0.9])
    def test_sorn_bit_identical(self, x):
        """Within one pair no SORN option crosses a link another option
        crosses, so summing in pair order is the walk's sum, bit for bit."""
        sorn = Sorn.optimal(64, 8, x)
        matrix = clustered_matrix(sorn.layout, x)
        loads = link_loads(sorn.router, matrix)
        assert np.array_equal(loads, walk_loads(sorn.router, matrix))

    @pytest.mark.parametrize(
        "kind",
        ["multidim", "hierarchical", "opera", "mixed-pool", "beyond-vlb", "direct", "failover"],
    )
    def test_other_routers_agree(self, kind):
        if kind == "multidim":
            router, matrix = MultiDimRouter(MultiDimSchedule(16, 2)), _dense_matrix(16, 1)
        elif kind == "hierarchical":
            layout = CliqueLayout.equal(32, 2)
            schedule = HierarchicalSornSchedule(layout, q=2, h=2)
            router, matrix = HierarchicalSornRouter(schedule), clustered_matrix(layout, 0.4)
        elif kind == "opera":
            router, matrix = OperaRouter(ExpanderSchedule(16, 4, seed=1)), _dense_matrix(16, 2)
        elif kind == "mixed-pool":
            demand = _dense_matrix(12, 4).rates
            schedule = MixedPoolSchedule(
                12, static_planes=1, rotor_planes=1, demand_planes=1, demand=demand
            )
            router, matrix = MixedPoolRouter(schedule), TrafficMatrix(demand)
        elif kind == "beyond-vlb":
            router, matrix = BeyondVlbRouter(12, 0.3), _dense_matrix(12, 5)
        elif kind == "direct":
            router, matrix = DirectRouter(12), _dense_matrix(12, 6)
        else:
            layout = CliqueLayout.equal(16, 4)
            router = FailureAwareRouter(SornRouter(layout), [5, 10])
            matrix = clustered_matrix(layout, 0.5)
        np.testing.assert_allclose(
            link_loads(router, matrix), walk_loads(router, matrix), rtol=1e-12, atol=0
        )


class TestClosedForms:
    """Fluid theta against the closed forms, to 1e-9."""

    @pytest.mark.parametrize("x", FIG2F_LOCALITIES)
    def test_sorn_at_optimal_q(self, x):
        """Fig 2(f)'s curve r = 1/(3 - x) at the paper's N=128, Nc=8."""
        sorn = Sorn.optimal(128, 8, x)
        result = sorn.fluid_throughput(clustered_matrix(sorn.layout, x))
        assert result.throughput == pytest.approx(1.0 / (3.0 - x), rel=1e-9)

    @pytest.mark.parametrize("n", [16, 64])
    def test_vlb_uniform(self, n):
        result = saturation_throughput(RoundRobinSchedule(n), VlbRouter(n), uniform_matrix(n))
        assert result.throughput == pytest.approx(1.0 / (2.0 - 1.0 / (n - 1)), rel=1e-9)

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("beta", [0.25, 0.5])
    def test_beyond_vlb_uniform(self, n, beta):
        """Wilson et al.'s beyond-VLB: 1/(2 - beta - (1 - beta)/(n - 1))."""
        result = saturation_throughput(
            RoundRobinSchedule(n), BeyondVlbRouter(n, beta), uniform_matrix(n)
        )
        expected = 1.0 / (2.0 - beta - (1.0 - beta) / (n - 1))
        assert result.throughput == pytest.approx(expected, rel=1e-9)


class TestVlbThroughput:
    def test_uniform_demand(self):
        """VLB on uniform demand: 1/(2 - 1/(N-1)), slightly above 1/2."""
        result = saturation_throughput(
            RoundRobinSchedule(16), VlbRouter(16), uniform_matrix(16)
        )
        expected = 1.0 / (2.0 - 1.0 / 15.0)
        assert result.throughput == pytest.approx(expected, rel=1e-6)

    def test_permutation_demand_worst_case(self):
        """Adversarial permutation demand: exactly 1/2 (the VLB guarantee)."""
        result = saturation_throughput(
            RoundRobinSchedule(16), VlbRouter(16), permutation_matrix(16, rng=0)
        )
        assert result.throughput == pytest.approx(0.5, rel=1e-6)

    def test_mean_hops_reported(self):
        result = saturation_throughput(
            RoundRobinSchedule(16), VlbRouter(16), uniform_matrix(16)
        )
        assert result.mean_hops == pytest.approx(2 - 1 / 15)

    def test_bandwidth_cost_inverse(self):
        result = saturation_throughput(
            RoundRobinSchedule(16), VlbRouter(16), permutation_matrix(16, rng=1)
        )
        assert result.normalized_bandwidth_cost == pytest.approx(2.0)


class TestSornThroughput:
    @pytest.mark.parametrize("x", [0.0, 0.3, 0.56, 0.8])
    def test_matches_theory_at_optimal_q(self, x):
        """Fig 2f's theoretical curve: fluid throughput == 1/(3-x) at q*.

        Finite-size effects vanish for the clustered matrix because its
        per-class uniformity matches the analysis exactly.
        """
        layout = CliqueLayout.equal(64, 8)
        q = optimal_q(x)
        schedule = build_sorn_schedule(64, 8, q=q, max_denominator=512)
        result = saturation_throughput(schedule, SornRouter(layout), clustered_matrix(layout, x))
        assert result.throughput == pytest.approx(sorn_throughput(x), rel=0.02)

    def test_suboptimal_q_binds_at_bound(self):
        """Off-optimal q: throughput tracks the binding (intra) bound.

        The asymptotic bound q/(2q+2) assumes every flow crosses intra
        links exactly twice; at finite clique size S some hops degenerate,
        so the exact expectation replaces the 2:
        ``x (2 - 1/(S-1)) + (1-x)(2 - 2/S)`` intra crossings per flow.
        """
        layout = CliqueLayout.equal(64, 8)
        x, q, size = 0.56, 2.0, 8  # q far below optimal: intra binds
        schedule = build_sorn_schedule(64, 8, q=q, max_denominator=512)
        result = saturation_throughput(schedule, SornRouter(layout), clustered_matrix(layout, x))
        crossings = x * (2 - 1 / (size - 1)) + (1 - x) * (2 - 2 / size)
        expected = (q / (q + 1)) / crossings
        assert result.throughput == pytest.approx(expected, rel=0.01)
        # And the asymptotic bound is approached from above.
        assert result.throughput >= sorn_throughput_bounds(q, x)

    def test_bottleneck_is_intra_when_q_small(self):
        layout = CliqueLayout.equal(32, 4)
        schedule = build_sorn_schedule(32, 4, q=1)
        result = saturation_throughput(
            schedule, SornRouter(layout), clustered_matrix(layout, 0.56)
        )
        u, v = result.bottleneck
        assert layout.same_clique(u, v)

    def test_throughput_capped_at_one(self):
        """Tiny demand still reports <= 1.0 (scale, not utilization)."""
        layout = CliqueLayout.equal(8, 2)
        schedule = build_sorn_schedule(8, 2, q=2)
        matrix = clustered_matrix(layout, 0.5).scaled(1e-6)
        result = saturation_throughput(schedule, SornRouter(layout), matrix)
        assert result.throughput <= 1.0


class TestErrors:
    def test_router_using_missing_link_detected(self):
        """A VLB router on a SORN schedule uses circuits the schedule
        never provides -> loud failure, not silent nonsense."""
        schedule = build_sorn_schedule(8, 2, q=3)
        with pytest.raises(SimulationError):
            saturation_throughput(schedule, VlbRouter(8), uniform_matrix(8))
