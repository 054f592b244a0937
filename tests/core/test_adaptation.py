"""AdaptationLoop: the periodic semi-oblivious control cycle."""

import pytest

from repro.control.planner import LOCALITY_CAP, MAX_Q
from repro.core import AdaptationLoop, Sorn
from repro.errors import ControlPlaneError
from repro.topology import CliqueLayout
from repro.traffic import clustered_matrix, uniform_matrix


def make_loop(n=16, nc=4, x0=0.5, **kwargs):
    return AdaptationLoop(Sorn.optimal(n, nc, x0), **kwargs)


class TestStep:
    def test_retunes_q_when_locality_shifts(self):
        loop = make_loop(x0=0.2, recluster=False)
        matrix = clustered_matrix(loop.deployment.layout, 0.8)
        decision = loop.step(matrix)
        assert decision.applied
        assert loop.deployment.design.locality == pytest.approx(0.8, abs=0.01)
        assert decision.predicted_throughput > decision.current_throughput

    def test_stable_demand_no_churn(self):
        loop = make_loop(x0=0.56, recluster=False)
        matrix = clustered_matrix(loop.deployment.layout, 0.56)
        loop.step(matrix)
        second = loop.step(matrix)
        assert not second.applied
        assert loop.updates_applied <= 1

    def test_recluster_discovers_shuffled_locality(self):
        """Demand concentrated on a *different* partition: reclustering
        recovers it and lifts predicted throughput toward 1/(3-x)."""
        truth = CliqueLayout.random_equal(16, 4, rng=5)
        loop = make_loop(x0=0.3, recluster=True, gain_threshold=0.01)
        matrix = clustered_matrix(truth, 0.9)
        decision = loop.step(matrix)
        assert decision.applied
        groups = {frozenset(g) for g in loop.deployment.layout.groups()}
        assert groups == {frozenset(g) for g in truth.groups()}
        assert decision.estimated_locality == pytest.approx(0.9, abs=0.02)

    def test_without_recluster_misaligned_locality_stays_low(self):
        truth = CliqueLayout.random_equal(16, 4, rng=5)
        loop = make_loop(x0=0.3, recluster=False)
        decision = loop.step(clustered_matrix(truth, 0.9))
        # Random partition captures only ~3/15 of demand as intra.
        assert decision.estimated_locality < 0.5

    def test_uniform_demand_settles_at_one_third_regime(self):
        loop = make_loop(x0=0.5, recluster=False, gain_threshold=0.0)
        decision = loop.step(uniform_matrix(16))
        # x for an equal partition of uniform demand: (S-1)/(N-1) = 0.2.
        assert decision.estimated_locality == pytest.approx(0.2, abs=0.01)

    def test_hysteresis_blocks_marginal_gains(self):
        loop = make_loop(x0=0.5, recluster=False, gain_threshold=0.5)
        decision = loop.step(clustered_matrix(loop.deployment.layout, 0.6))
        assert not decision.applied
        assert "below threshold" in decision.reason
        assert decision.update_plan is None  # no candidate was built

    def test_q_star_capped_at_max_q(self):
        """x = 0.9 asks for q* = 2/(1-x) = 20; the loop deploys the
        planner's cap, as the simulated runtime does."""
        loop = AdaptationLoop(Sorn.optimal(16, 4, 0.2), recluster=False)
        decision = loop.step(clustered_matrix(loop.deployment.layout, 0.9))
        assert decision.applied
        assert loop.deployment.design.q == MAX_Q
        assert loop.deployment.design.locality == pytest.approx(0.9)

    def test_all_intra_estimate_capped(self):
        loop = make_loop(x0=0.2, recluster=False)
        decision = loop.step(clustered_matrix(loop.deployment.layout, 1.0))
        assert decision.estimated_locality == LOCALITY_CAP
        assert loop.deployment.design.locality == LOCALITY_CAP
        assert loop.deployment.design.q == MAX_Q

    def test_decisions_recorded(self):
        loop = make_loop(recluster=False)
        matrix = clustered_matrix(loop.deployment.layout, 0.7)
        loop.step(matrix)
        loop.step(matrix)
        assert len(loop.decisions) == 2

    def test_update_plan_attached(self):
        loop = make_loop(recluster=False)
        decision = loop.step(clustered_matrix(loop.deployment.layout, 0.9))
        assert decision.update_plan is not None
        assert decision.update_plan.is_drain_free  # same layout, q only

    def test_negative_threshold_rejected(self):
        with pytest.raises(ControlPlaneError):
            make_loop(gain_threshold=-0.1)

    def test_predicted_gain_property(self):
        loop = make_loop(x0=0.2, recluster=False)
        decision = loop.step(clustered_matrix(loop.deployment.layout, 0.9))
        assert decision.predicted_gain == pytest.approx(
            decision.predicted_throughput / decision.current_throughput - 1
        )


class TestConvergence:
    def test_ewma_tracks_slow_shift(self):
        """Demand drifts 0.2 -> 0.8; the loop follows within a few cycles."""
        loop = make_loop(x0=0.2, recluster=False, alpha=0.5, gain_threshold=0.01)
        layout = loop.deployment.layout
        for x in [0.2, 0.4, 0.6, 0.8, 0.8, 0.8]:
            loop.step(clustered_matrix(layout, x))
        assert loop.deployment.design.locality == pytest.approx(0.8, abs=0.1)
        assert loop.updates_applied >= 2
