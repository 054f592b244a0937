"""Property-based tests for the traffic-matrix generators (hypothesis).

Three families of invariants, checked across randomized shapes, seeds,
and parameters rather than hand-picked cases:

- **Bandwidth feasibility** — every generator returns the saturated
  form: non-negative rates, zero diagonal, and no row or column (egress/
  ingress port) above 1.0 node bandwidth, with the busiest port at
  exactly 1.0.
- **Locality realization** — :func:`clustered_matrix` realizes the
  requested intra-clique fraction ``x`` exactly (as measured by
  ``CliqueLayout.intra_fraction``), for any non-degenerate layout.
- **Seeded determinism** — equal integer seeds reproduce identical
  matrices and identical :class:`Workload` flow lists; the sampled
  generators actually vary across seeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TrafficError
from repro.topology import CliqueLayout
from repro.traffic import (
    FlowSizeDistribution,
    Workload,
    clustered_matrix,
    gravity_matrix,
    hotspot_matrix,
    permutation_matrix,
    skewed_matrix,
    uniform_matrix,
)

FAST = settings(max_examples=25, deadline=None)


@st.composite
def layouts(draw):
    """Non-degenerate equal layouts: >= 2 cliques of >= 2 nodes."""
    num_cliques = draw(st.integers(2, 5))
    clique_size = draw(st.integers(2, 6))
    return CliqueLayout.equal(num_cliques * clique_size, num_cliques)


def saturated_matrices(draw, n, seed):
    kind = draw(st.sampled_from(["uniform", "perm", "gravity", "hotspot", "skew"]))
    if kind == "uniform":
        return uniform_matrix(n)
    if kind == "perm":
        return permutation_matrix(n, rng=seed)
    if kind == "gravity":
        weights = draw(
            st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)
        )
        return gravity_matrix(weights)
    if kind == "hotspot":
        return hotspot_matrix(
            n, num_hotspots=draw(st.integers(1, min(3, n * (n - 1)))),
            hotspot_fraction=draw(st.floats(0.1, 0.9)), rng=seed,
        )
    return skewed_matrix(n, sigma=draw(st.floats(0.0, 2.0)), rng=seed)


any_matrix = st.composite(
    lambda draw: saturated_matrices(
        draw, draw(st.integers(2, 12)), draw(st.integers(0, 2**16))
    )
)


class TestBandwidthFeasibility:
    @FAST
    @given(matrix=any_matrix())
    def test_rates_feasible_and_saturated(self, matrix):
        rates = matrix.rates
        assert (rates >= 0).all()
        assert np.diagonal(rates).max() == 0.0
        # No egress or ingress port above node bandwidth...
        assert matrix.max_port_load() <= 1.0 + 1e-9
        assert rates.sum(axis=1).max() <= 1.0 + 1e-9
        assert rates.sum(axis=0).max() <= 1.0 + 1e-9
        # ...and the busiest port pinned at exactly 1.0 (saturated form).
        assert matrix.max_port_load() == pytest.approx(1.0)

    @FAST
    @given(layout=layouts(), x=st.floats(0.0, 1.0))
    def test_clustered_rows_sum_to_bandwidth(self, layout, x):
        rates = clustered_matrix(layout, x).rates
        assert rates.sum(axis=1) == pytest.approx(np.ones(layout.num_nodes))


class TestLocalityRealization:
    @FAST
    @given(layout=layouts(), x=st.floats(0.0, 1.0))
    def test_clustered_realizes_requested_x(self, layout, x):
        matrix = clustered_matrix(layout, x)
        assert matrix.locality(layout) == pytest.approx(x, abs=1e-9)

    @FAST
    @given(x=st.floats(0.0, 1.0))
    def test_degenerate_single_clique_is_all_intra(self, x):
        # One clique: every feasible peer is intra, whatever x asked for.
        layout = CliqueLayout.equal(6, 1)
        matrix = clustered_matrix(layout, x)
        assert matrix.locality(layout) == pytest.approx(1.0)

    @FAST
    @given(x=st.floats(0.0, 1.0))
    def test_degenerate_singleton_cliques_are_all_inter(self, x):
        # Singleton cliques: no clique-mates exist to receive the x share.
        layout = CliqueLayout.equal(6, 6)
        matrix = clustered_matrix(layout, x)
        assert matrix.locality(layout) == pytest.approx(0.0)


def _clustered_rates_per_node(layout, x):
    """The per-node loop ``clustered_matrix`` used to run, kept as the
    oracle for its array form."""
    n = layout.num_nodes
    ids = layout.assignment()
    same = ids[:, None] == ids[None, :]
    np.fill_diagonal(same, False)
    other = ~(ids[:, None] == ids[None, :])
    intra_peers = same.sum(axis=1).astype(float)
    inter_peers = other.sum(axis=1).astype(float)
    rates = np.zeros((n, n))
    for node in range(n):
        intra_share, inter_share = x, 1.0 - x
        if intra_peers[node] == 0:
            inter_share += intra_share
            intra_share = 0.0
        if inter_peers[node] == 0:
            intra_share += inter_share
            inter_share = 0.0
        if intra_share:
            rates[node, same[node]] = intra_share / intra_peers[node]
        if inter_share:
            rates[node, other[node]] = inter_share / inter_peers[node]
    np.fill_diagonal(rates, 0.0)
    return rates


@st.composite
def unequal_layouts(draw):
    """Cliques of unequal sizes (singletons included) whose members are
    scattered over the node ids."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    ids = [c for c, size in enumerate(sizes) for _ in range(size)]
    if len(ids) < 2:
        ids = [0, 0]
    return CliqueLayout.from_assignment(draw(st.permutations(ids)))


class TestClusteredMatchesPerNodeLoop:
    """``clustered_matrix`` builds the matrix with array operations; its
    bytes equal the per-node loop's on every layout, degenerate ones
    included."""

    @FAST
    @given(layout=layouts(), x=st.floats(0.0, 1.0))
    def test_equal_layouts(self, layout, x):
        rates = clustered_matrix(layout, x).rates
        assert rates.tobytes() == _clustered_rates_per_node(layout, x).tobytes()

    @FAST
    @given(
        layout=st.sampled_from(
            [CliqueLayout.equal(6, 1), CliqueLayout.equal(6, 6)]
        ),
        x=st.floats(0.0, 1.0),
    )
    def test_degenerate_layouts(self, layout, x):
        rates = clustered_matrix(layout, x).rates
        assert rates.tobytes() == _clustered_rates_per_node(layout, x).tobytes()

    @FAST
    @given(layout=unequal_layouts(), x=st.floats(0.0, 1.0))
    def test_unequal_scattered_layouts(self, layout, x):
        rates = clustered_matrix(layout, x).rates
        assert rates.tobytes() == _clustered_rates_per_node(layout, x).tobytes()


class TestHotspotFeasibility:
    def test_oversubscribed_hotspots_rejected(self):
        """Regression: asking for more distinct hotspot pairs than exist
        used to spin the rejection-sampling loop forever (found by the
        property suite at n=2, num_hotspots=3)."""
        with pytest.raises(TrafficError, match="ordered\\s+node pairs"):
            hotspot_matrix(2, num_hotspots=3)

    def test_exactly_all_pairs_allowed(self):
        matrix = hotspot_matrix(2, num_hotspots=2, rng=0)
        assert (matrix.rates[~np.eye(2, dtype=bool)] > 0).all()


class TestSeededDeterminism:
    @FAST
    @given(n=st.integers(2, 12), seed=st.integers(0, 2**16))
    def test_sampled_matrices_reproduce(self, n, seed):
        for gen in (permutation_matrix, skewed_matrix):
            np.testing.assert_array_equal(
                gen(n, rng=seed).rates, gen(n, rng=seed).rates
            )
        np.testing.assert_array_equal(
            hotspot_matrix(n, rng=seed).rates, hotspot_matrix(n, rng=seed).rates
        )

    def test_seeds_actually_vary_output(self):
        draws = {skewed_matrix(8, rng=seed).rates.tobytes() for seed in range(5)}
        assert len(draws) == 5

    @FAST
    @given(
        layout=layouts(),
        x=st.floats(0.0, 1.0),
        load=st.floats(0.1, 1.2),
        seed=st.integers(0, 2**16),
        duration=st.integers(10, 60),
    )
    def test_workload_generation_reproduces(self, layout, x, load, seed, duration):
        matrix = clustered_matrix(layout, x)
        workload = Workload(matrix, FlowSizeDistribution.fixed(7), load=load)
        first = workload.generate(duration, rng=seed)
        second = workload.generate(duration, rng=seed)
        assert first == second
        for spec in first:
            assert spec.src != spec.dst
            assert matrix.rate(spec.src, spec.dst) > 0
            assert 0 <= spec.arrival_slot < duration
