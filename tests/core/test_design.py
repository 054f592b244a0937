"""SornDesign: parameter validity and derived quantities."""

import pytest
from hypothesis import given, strategies as st

from repro.core import SornDesign
from repro.errors import ConfigurationError


class TestValidation:
    def test_divisibility(self):
        with pytest.raises(ConfigurationError):
            SornDesign(num_nodes=10, num_cliques=3, q=2, locality=0.5)

    def test_q_at_least_one(self):
        with pytest.raises(ConfigurationError):
            SornDesign(num_nodes=8, num_cliques=2, q=0.5, locality=0.5)

    def test_locality_range(self):
        with pytest.raises(ConfigurationError):
            SornDesign(num_nodes=8, num_cliques=2, q=2, locality=1.5)

    def test_frozen(self):
        design = SornDesign(8, 2, 2.0, 0.5)
        with pytest.raises(Exception):
            design.q = 3.0


class TestOptimalConstruction:
    def test_table1_parameters(self):
        design = SornDesign.optimal(4096, 64, 0.56)
        assert design.q == pytest.approx(2 / 0.44)
        assert design.clique_size == 64
        assert design.throughput == pytest.approx(1 / 2.44)
        assert design.is_q_optimal

    def test_x_one_rejected(self):
        with pytest.raises(ConfigurationError):
            SornDesign.optimal(8, 2, 1.0)

    def test_flat_design(self):
        design = SornDesign.flat(16)
        assert design.num_cliques == 1
        assert design.clique_size == 16


class TestDerivedQuantities:
    def test_bandwidth_fractions_sum(self):
        design = SornDesign(16, 4, 3.0, 0.5)
        assert design.intra_bandwidth_fraction + design.inter_bandwidth_fraction == pytest.approx(1.0)

    def test_suboptimal_q_lowers_throughput(self):
        optimal = SornDesign.optimal(16, 4, 0.5)
        low_q = SornDesign(16, 4, 1.0, 0.5)
        assert low_q.throughput < optimal.throughput
        assert not low_q.is_q_optimal

    def test_with_cliques(self):
        design = SornDesign.optimal(16, 4, 0.5).with_cliques(2)
        assert design.num_cliques == 2
        assert design.q == pytest.approx(4.0)

    def test_feasible_clique_counts(self):
        assert SornDesign.feasible_clique_counts(12) == [1, 2, 3, 4, 6, 12]

    def test_describe_mentions_parameters(self):
        text = SornDesign.optimal(16, 4, 0.5).describe()
        assert "Nc=4" in text and "x=0.50" in text


@given(x=st.floats(0.0, 0.99))
def test_optimal_throughput_in_paper_band(x):
    """r* = 1/(3-x) is bounded between 1/3 and 1/2 (paper section 4)."""
    design = SornDesign.optimal(8, 2, x)
    assert 1 / 3 - 1e-9 <= design.throughput <= 0.5 + 1e-9
    assert design.throughput == pytest.approx(design.optimal_throughput)
