"""Hypothesis property tests for the demand estimator.

The adaptation loops trust the estimator without checking it at run
time: the EWMA (and the locality read off it) converges to a stationary
demand and stays between the observations it blends.  This module pins
that down as properties over randomized matrices and localities.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.control import DemandEstimator
from repro.topology import CliqueLayout
from repro.traffic import TrafficMatrix, clustered_matrix

_HEALTH = [
    HealthCheck.too_slow,
    HealthCheck.data_too_large,
    HealthCheck.filter_too_much,
]
settings.register_profile(
    "default", max_examples=25, deadline=None, suppress_health_check=_HEALTH
)
settings.register_profile(
    "ci-fuzz",
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=_HEALTH,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

pytestmark = pytest.mark.fuzz


@st.composite
def demand_matrices(draw, num_nodes):
    """An arbitrary valid (non-negative, zero-diagonal) demand matrix."""
    rates = draw(
        st.lists(
            st.lists(
                st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
                min_size=num_nodes,
                max_size=num_nodes,
            ),
            min_size=num_nodes,
            max_size=num_nodes,
        )
    )
    arr = np.array(rates, dtype=float)
    np.fill_diagonal(arr, 0.0)
    return TrafficMatrix(arr)


class TestEwmaConvergence:
    @given(
        matrix=demand_matrices(6),
        alpha=st.floats(0.05, 1.0),
        repeats=st.integers(10, 40),
    )
    def test_converges_to_stationary_input(self, matrix, alpha, repeats):
        """Feeding the same matrix repeatedly converges geometrically:
        the residual shrinks like (1 - alpha)^k, so after k observations
        the estimate is within (1-alpha)^(k-1) * spread of the input."""
        est = DemandEstimator(6, alpha=alpha)
        for _ in range(repeats):
            est.observe(matrix)
        residual = np.abs(est.estimate().rates - matrix.rates).max()
        spread = matrix.rates.max() - matrix.rates.min()
        bound = (1.0 - alpha) ** (repeats - 1) * max(spread, 1e-12)
        assert residual <= bound + 1e-9

    @given(matrix=demand_matrices(5), alpha=st.floats(0.05, 1.0))
    def test_first_observation_adopted_exactly(self, matrix, alpha):
        est = DemandEstimator(5, alpha=alpha)
        est.observe(matrix)
        np.testing.assert_array_equal(est.estimate().rates, matrix.rates)

    @given(
        a=demand_matrices(5),
        b=demand_matrices(5),
        alpha=st.floats(0.05, 0.95),
    )
    def test_estimate_stays_between_observation_extremes(self, a, b, alpha):
        """The EWMA is a convex combination: every entry stays inside the
        per-entry min/max envelope of everything observed so far."""
        est = DemandEstimator(5, alpha=alpha)
        est.observe(a)
        est.observe(b)
        est.observe(a)
        lo = np.minimum(a.rates, b.rates)
        hi = np.maximum(a.rates, b.rates)
        rates = est.estimate().rates
        assert (rates >= lo - 1e-9).all()
        assert (rates <= hi + 1e-9).all()

    @given(
        x_true=st.floats(0.0, 0.99),
        alpha=st.floats(0.1, 1.0),
        repeats=st.integers(5, 25),
    )
    def test_locality_estimator_converges_to_true_locality(
        self, x_true, alpha, repeats
    ):
        layout = CliqueLayout.equal(12, 3)
        matrix = clustered_matrix(layout, x_true)
        est = DemandEstimator(12, alpha=alpha)
        for _ in range(repeats):
            est.observe(matrix)
        # The clustered matrix realizes x_true exactly, and a stationary
        # EWMA input is a fixed point — locality must match it.
        x = est.estimate().locality(layout)
        assert x == pytest.approx(matrix.locality(layout))
        assert x == pytest.approx(x_true, abs=0.02)
