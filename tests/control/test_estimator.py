"""Demand and locality estimation."""

import pytest

from repro.control import DemandEstimator
from repro.errors import ControlPlaneError
from repro.topology import CliqueLayout
from repro.traffic import clustered_matrix, uniform_matrix


class TestDemandEstimator:
    def test_requires_observation(self):
        with pytest.raises(ControlPlaneError):
            DemandEstimator(8).estimate()

    def test_first_observation_verbatim(self):
        est = DemandEstimator(8, alpha=0.3)
        est.observe(uniform_matrix(8))
        assert est.estimate() == uniform_matrix(8)

    def test_ewma_blends(self):
        layout = CliqueLayout.equal(8, 2)
        est = DemandEstimator(8, alpha=0.5)
        est.observe(clustered_matrix(layout, 1.0))
        est.observe(clustered_matrix(layout, 0.0))
        x = est.estimate().locality(layout)
        assert 0.3 < x < 0.7

    def test_converges_to_stationary_demand(self):
        layout = CliqueLayout.equal(8, 2)
        est = DemandEstimator(8, alpha=0.4)
        est.observe(uniform_matrix(8))
        target = clustered_matrix(layout, 0.8)
        for _ in range(30):
            est.observe(target)
        assert est.estimate().locality(layout) == pytest.approx(0.8, abs=0.01)

    def test_size_mismatch(self):
        est = DemandEstimator(8)
        with pytest.raises(ControlPlaneError):
            est.observe(uniform_matrix(9))

    def test_alpha_zero_rejected(self):
        with pytest.raises(ControlPlaneError):
            DemandEstimator(8, alpha=0.0)

    def test_reset(self):
        est = DemandEstimator(8)
        est.observe(uniform_matrix(8))
        est.reset()
        assert est.observations == 0
        with pytest.raises(ControlPlaneError):
            est.estimate()


class TestLocalityEstimator:
    """The locality x both adaptation loops read off the EWMA estimate."""

    def test_tracks_locality(self):
        layout = CliqueLayout.equal(16, 4)
        est = DemandEstimator(16, alpha=1.0)
        est.observe(clustered_matrix(layout, 0.56))
        assert est.estimate().locality(layout) == pytest.approx(0.56)
        assert est.observations == 1
