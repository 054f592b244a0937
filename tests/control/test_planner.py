"""The decision step and update planning: capped q* and predicted gain,
drain-freedom and bandwidth-shift accounting."""

import pytest

from repro.analysis import optimal_q, sorn_throughput, sorn_throughput_bounds
from repro.control import plan_retune, plan_update
from repro.control.planner import LOCALITY_CAP, MAX_Q
from repro.errors import ControlPlaneError
from repro.schedules import RoundRobinSchedule, build_sorn_schedule
from repro.topology import CliqueLayout
from repro.traffic import clustered_matrix


class TestPlanUpdate:
    def test_identity_update_is_noop(self):
        schedule = build_sorn_schedule(16, 4, q=2)
        plan = plan_update(schedule, schedule)
        assert plan.is_drain_free
        assert plan.preserves_neighbor_superset
        assert plan.bandwidth_shift == pytest.approx(0.0)

    def test_q_retune_drain_free_with_shift(self):
        """SORN's headline property: q changes move bandwidth, not state."""
        old = build_sorn_schedule(16, 4, q=1)
        new = build_sorn_schedule(16, 4, q=5)
        plan = plan_update(old, new)
        assert plan.is_drain_free
        assert plan.preserves_neighbor_superset
        assert plan.bandwidth_shift > 0.1

    def test_layout_change_needs_state(self):
        old = build_sorn_schedule(16, 4, q=2)
        new = build_sorn_schedule(
            16, 4, q=2, layout=CliqueLayout.random_equal(16, 4, rng=5)
        )
        plan = plan_update(old, new)
        assert not plan.preserves_neighbor_superset
        assert not plan.is_drain_free
        assert plan.new_neighbor_pairs
        assert plan.retired_neighbor_pairs

    def test_clique_count_change(self):
        old = build_sorn_schedule(16, 4, q=2)
        new = build_sorn_schedule(16, 2, q=2)
        plan = plan_update(old, new)
        # Growing cliques adds intra neighbors at every node.
        assert len(plan.nodes_with_new_neighbors) == 16

    def test_sorn_to_flat_round_robin(self):
        old = build_sorn_schedule(16, 4, q=2)
        new = RoundRobinSchedule(16)
        plan = plan_update(old, new)
        assert not plan.preserves_neighbor_superset  # RR faces everyone
        assert plan.is_drain_free  # nothing retired: superset only grows

    def test_size_mismatch_rejected(self):
        with pytest.raises(ControlPlaneError):
            plan_update(RoundRobinSchedule(8), RoundRobinSchedule(9))

    def test_bandwidth_shift_bounds(self):
        old = build_sorn_schedule(8, 2, q=1)
        new = build_sorn_schedule(8, 2, q=6)
        plan = plan_update(old, new)
        assert 0.0 <= plan.bandwidth_shift <= 1.0

    def test_summary_mentions_drain_state(self):
        schedule = build_sorn_schedule(8, 2, q=2)
        assert "drain-free" in plan_update(schedule, schedule).summary()


class TestPlanRetune:
    """The one estimate -> q* -> gain step both adaptation loops take."""

    def test_closed_forms_below_the_caps(self):
        layout = CliqueLayout.equal(16, 4)
        retune = plan_retune(clustered_matrix(layout, 0.56), layout, 2.0)
        assert retune.locality == pytest.approx(0.56)
        assert retune.q == pytest.approx(optimal_q(0.56))
        assert retune.current_throughput == pytest.approx(
            sorn_throughput_bounds(2.0, 0.56)
        )
        assert retune.predicted_throughput == pytest.approx(sorn_throughput(0.56))

    def test_caps(self):
        layout = CliqueLayout.equal(16, 4)
        all_intra = plan_retune(clustered_matrix(layout, 1.0), layout, 2.0)
        assert all_intra.locality == LOCALITY_CAP
        assert all_intra.q == MAX_Q
        # x = 0.9 asks for q* = 20.
        assert plan_retune(clustered_matrix(layout, 0.9), layout, 2.0).q == MAX_Q

    def test_no_sorn_incumbent_leaves_nothing_to_beat(self):
        layout = CliqueLayout.equal(16, 4)
        retune = plan_retune(clustered_matrix(layout, 0.56), layout, None)
        assert retune.current_throughput == 0.0
        assert retune.gain == float("inf")

    def test_candidate_layout_scores_the_candidate_only(self):
        incumbent = CliqueLayout.equal(16, 4)
        truth = CliqueLayout.random_equal(16, 4, rng=5)
        estimate = clustered_matrix(truth, 0.9)
        retune = plan_retune(estimate, incumbent, 2.0, candidate_layout=truth)
        assert retune.locality == pytest.approx(0.9)
        assert retune.current_throughput == pytest.approx(
            sorn_throughput_bounds(2.0, estimate.locality(incumbent))
        )
