"""SORN hierarchical 2/3-hop routing (paper section 4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Sorn
from repro.errors import RoutingError
from repro.routing import SornRouter
from repro.topology import CliqueLayout
from repro.traffic import clustered_matrix


@pytest.fixture
def router8():
    """Figure 2(d) scale: 8 nodes, 2 cliques of 4."""
    return SornRouter(CliqueLayout.equal(8, 2))


class TestConstruction:
    def test_rejects_unequal_layout(self):
        with pytest.raises(RoutingError):
            SornRouter(CliqueLayout([[0, 1, 2], [3]]))

    def test_max_hops(self, router8):
        assert router8.max_hops == 3

    def test_single_clique_max_hops(self):
        assert SornRouter(CliqueLayout.flat(6)).max_hops == 2


class TestIntraCliqueRouting:
    def test_options_stay_in_clique(self, router8):
        for _, path in router8.path_options(0, 3):
            assert all(v < 4 for v in path.nodes)
            assert path.hops <= 2

    def test_option_count_and_probs(self, router8):
        options = router8.path_options(0, 3)
        assert len(options) == 3  # direct + 2 intermediates
        assert sum(p for p, _ in options) == pytest.approx(1.0)

    def test_expected_hops(self, router8):
        assert router8.expected_hops(0, 3) == pytest.approx(2 - 1 / 3)


class TestInterCliqueRouting:
    def test_paper_example_paths_enumerated(self, router8):
        """0 -> 6 routes via clique-mates; the aligned-entry paths include
        0->3->7->6 (the paper's example) among the S options."""
        paths = {path.nodes for _, path in router8.path_options(0, 6)}
        assert (0, 3, 7, 6) in paths
        assert (0, 1, 5, 6) in paths
        assert (0, 4, 6) in paths  # mid = src, entry = aligned peer 4

    def test_lb_hop_uniform_over_clique(self, router8):
        options = router8.path_options(0, 6)
        assert len(options) == 4  # one per clique member
        for prob, _ in options:
            assert prob == pytest.approx(1 / 4)

    def test_inter_hop_is_position_aligned(self, router8):
        for _, path in router8.path_options(2, 5):
            # The crossing link (u, v) satisfies pos(v) == pos(u).
            crossing = [
                (u, v)
                for u, v in path.links()
                if (u < 4) != (v < 4)
            ]
            assert len(crossing) == 1
            u, v = crossing[0]
            assert u % 4 == v % 4

    def test_expected_hops_inter(self, router8):
        assert router8.expected_hops(0, 6) == pytest.approx(3 - 2 / 4)

    def test_aligned_peer(self, router8):
        assert router8.aligned_peer(2, 1) == 6
        assert router8.aligned_peer(7, 0) == 3


class TestMeanHops:
    """Fluid mean hops of a clustered matrix with intra-clique fraction x:
    ``x (2 - 1/(S-1)) + (1 - x)(3 - 2/S)``, which tends to the paper's
    ``3 - x`` as S grows (2.44 hops at x = 0.56)."""

    @staticmethod
    def fluid_mean_hops(nodes, cliques, x):
        sorn = Sorn.optimal(nodes, cliques, x)
        return sorn.fluid_throughput(clustered_matrix(sorn.layout, x)).mean_hops

    def test_mean_hops_at_locality(self):
        for nodes, cliques, x in [(32, 4, 0.56), (64, 8, 0.3), (128, 8, 0.9)]:
            size = nodes // cliques
            expected = x * (2 - 1 / (size - 1)) + (1 - x) * (3 - 2 / size)
            assert self.fluid_mean_hops(nodes, cliques, x) == pytest.approx(
                expected, abs=1e-9
            )

    def test_mean_hops_monotone_in_locality(self):
        hops = [self.fluid_mean_hops(8, 2, x) for x in (0.1, 0.5, 0.9)]
        assert hops[0] > hops[1] > hops[2]


class TestSampling:
    def test_sample_matches_enumeration_support(self, router8, rng):
        enumerated = {path.nodes for _, path in router8.path_options(0, 6)}
        sampled = {router8.path(0, 6, rng).nodes for _ in range(300)}
        assert sampled <= enumerated
        assert len(sampled) == len(enumerated)  # all options hit

    def test_intra_sample_distribution(self, router8, rng):
        direct = sum(1 for _ in range(2000) if router8.path(0, 1, rng).hops == 1)
        assert direct / 2000 == pytest.approx(1 / 3, abs=0.04)


@settings(max_examples=30, deadline=None)
@given(
    nc=st.sampled_from([2, 4]),
    size=st.sampled_from([2, 4, 8]),
    src=st.integers(0, 31),
    dst=st.integers(0, 31),
)
def test_distribution_property(nc, size, src, dst):
    n = nc * size
    src, dst = src % n, dst % n
    if src == dst:
        return
    router = SornRouter(CliqueLayout.equal(n, nc))
    router.validate_distribution(src, dst)
    for _, path in router.path_options(src, dst):
        same = (src // size) == (dst // size)
        assert path.hops <= (2 if same else 3)
