"""Hypothesis property tests for the demand estimator.

The adaptation loops trust three estimator properties without checking
them at run time: the EWMA (and the locality read off it) converges to a
stationary demand, the noise helper is deterministic under a fixed seed
(so robustness experiments are reproducible), and injected noise is
actually bounded by the advertised magnitude.  This module pins each one
down as a property over randomized matrices, localities and seeds.
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


class TestErrorInjectionDeterminism:
    @given(
        matrix=demand_matrices(5),
        relative_error=st.floats(0.0, 0.9),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_noisy_estimate_deterministic_under_fixed_seed(
        self, matrix, relative_error, seed
    ):
        est = DemandEstimator(5)
        est.observe(matrix)
        first = est.estimate_with_noise(relative_error, rng=seed)
        second = est.estimate_with_noise(relative_error, rng=seed)
        np.testing.assert_array_equal(first.rates, second.rates)


class TestErrorInjectionBounds:
    @given(
        matrix=demand_matrices(6),
        relative_error=st.floats(0.0, 0.99),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_relative_error_bounded_entrywise(
        self, matrix, relative_error, seed
    ):
        """Every perturbed entry lies within the advertised multiplicative
        band [1-e, 1+e] of the clean estimate (diagonal stays zero)."""
        est = DemandEstimator(6)
        est.observe(matrix)
        clean = est.estimate().rates
        noisy = est.estimate_with_noise(relative_error, rng=seed).rates
        lo = clean * (1.0 - relative_error)
        hi = clean * (1.0 + relative_error)
        assert (noisy >= lo - 1e-9).all()
        assert (noisy <= hi + 1e-9).all()
        assert (np.diagonal(noisy) == 0.0).all()

    @given(matrix=demand_matrices(5), seed=st.integers(0, 2**31 - 1))
    def test_zero_error_is_identity(self, matrix, seed):
        est = DemandEstimator(5)
        est.observe(matrix)
        np.testing.assert_array_equal(
            est.estimate_with_noise(0.0, rng=seed).rates, est.estimate().rates
        )
