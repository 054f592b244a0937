"""Synchronized update execution against node state fleets."""

import pytest

from repro.control import UpdateCampaign, apply_synchronized_update, build_node_states
from repro.errors import ControlPlaneError
from repro.schedules import build_sorn_schedule


class TestApplySynchronizedUpdate:
    def test_installs_rows_everywhere(self):
        old = build_sorn_schedule(8, 2, q=1)
        new = build_sorn_schedule(8, 2, q=3)
        nodes = build_node_states(old)
        reports = apply_synchronized_update(nodes, new)
        assert len(reports) == 8
        for node in nodes:
            assert node.period == new.period
            assert (node.schedule_row == new.cached_node_row(node.node_id)).all()

    def test_q_retune_reports_clean(self):
        old = build_sorn_schedule(8, 2, q=1)
        new = build_sorn_schedule(8, 2, q=3)
        nodes = build_node_states(old)
        for report in apply_synchronized_update(nodes, new).values():
            assert report.is_drain_free
            assert report.preserves_neighbor_superset

    def test_fleet_size_mismatch(self):
        nodes = build_node_states(build_sorn_schedule(8, 2, q=1))
        with pytest.raises(ControlPlaneError):
            apply_synchronized_update(nodes, build_sorn_schedule(10, 2, q=1))

    def test_queued_traffic_counted_when_stranded(self):
        from repro.topology import CliqueLayout

        old = build_sorn_schedule(8, 2, q=2)
        shuffled = CliqueLayout.random_equal(8, 2, rng=3)
        new = build_sorn_schedule(8, 2, q=2, layout=shuffled)
        nodes = build_node_states(old)
        victim = nodes[0]
        retired = set(victim.active_neighbors()) - set(
            int(v) for v in new.cached_node_row(0) if v >= 0
        )
        if retired:
            victim.enqueue(next(iter(retired)), "cell")
            reports = apply_synchronized_update(nodes, new)
            assert reports[0].stranded_cells == 1


class TestMixedStateCollisions:
    def make_pair(self):
        """Two same-period schedules differing in slot content.

        q=1 and the reversed-slot variant share period; rotating the slot
        order changes which matching each slot carries.
        """

        old = build_sorn_schedule(8, 2, q=3).materialize()
        new = old.rotated(1)
        return old, new

    def test_no_switch_no_collisions(self):
        old, new = self.make_pair()
        from repro.control import mixed_state_collision_fraction

        assert mixed_state_collision_fraction(old, new, []) == 0.0

    def test_full_switch_no_collisions(self):
        old, new = self.make_pair()
        from repro.control import mixed_state_collision_fraction

        assert mixed_state_collision_fraction(old, new, range(8)) == 0.0

    def test_partial_switch_collides(self):
        """Half the fleet on the new schedule: senders collide on outputs
        — the transient the synchronous barrier avoids."""
        old, new = self.make_pair()
        from repro.control import mixed_state_collision_fraction

        loss = mixed_state_collision_fraction(old, new, [0, 1, 2, 3])
        assert loss > 0.2

    def test_identical_schedules_always_clean(self):
        old = build_sorn_schedule(8, 2, q=2)
        from repro.control import mixed_state_collision_fraction

        assert mixed_state_collision_fraction(old, old, [0, 5]) == 0.0

    def test_period_mismatch_rejected(self):
        from repro.control import mixed_state_collision_fraction
        from repro.errors import ControlPlaneError

        old = build_sorn_schedule(8, 2, q=1)
        new = build_sorn_schedule(8, 2, q=3)
        if old.period != new.period:
            with pytest.raises(ControlPlaneError):
                mixed_state_collision_fraction(old, new, [0])

    def test_switched_range_validated(self):
        from repro.control import mixed_state_collision_fraction
        from repro.errors import ControlPlaneError

        old, new = self.make_pair()
        with pytest.raises(ControlPlaneError):
            mixed_state_collision_fraction(old, new, [99])


class TestUpdateCampaign:
    def test_dwell_enforced(self):
        campaign = UpdateCampaign(build_sorn_schedule(8, 2, q=1), min_dwell_epochs=5)
        assert campaign.maybe_apply(0, build_sorn_schedule(8, 2, q=2)) is not None
        assert campaign.maybe_apply(3, build_sorn_schedule(8, 2, q=3)) is None
        assert campaign.maybe_apply(5, build_sorn_schedule(8, 2, q=3)) is not None
        assert campaign.updates_applied == 2

    def test_history_records_cleanliness(self):
        campaign = UpdateCampaign(build_sorn_schedule(8, 2, q=1))
        record = campaign.maybe_apply(0, build_sorn_schedule(8, 2, q=4))
        assert record.was_clean

    def test_current_schedule_tracked(self):
        initial = build_sorn_schedule(8, 2, q=1)
        target = build_sorn_schedule(8, 2, q=4)
        campaign = UpdateCampaign(initial)
        campaign.maybe_apply(0, target)
        assert campaign.current_schedule is target

    def test_rejects_bad_dwell(self):
        with pytest.raises(ControlPlaneError):
            UpdateCampaign(build_sorn_schedule(8, 2, q=1), min_dwell_epochs=0)


class TestMaybeApplyBoundaries:
    """Dwell off-by-one and epoch-clock validation of maybe_apply."""

    def make_campaign(self, dwell):
        return UpdateCampaign(
            build_sorn_schedule(8, 2, q=1), min_dwell_epochs=dwell
        )

    def test_rejected_exactly_one_epoch_before_dwell(self):
        campaign = self.make_campaign(4)
        campaign.maybe_apply(10, build_sorn_schedule(8, 2, q=2))
        assert campaign.maybe_apply(13, build_sorn_schedule(8, 2, q=3)) is None

    def test_accepted_at_exactly_min_dwell_epochs(self):
        campaign = self.make_campaign(4)
        campaign.maybe_apply(10, build_sorn_schedule(8, 2, q=2))
        record = campaign.maybe_apply(14, build_sorn_schedule(8, 2, q=3))
        assert record is not None and record.epoch == 14

    def test_dwell_one_accepts_every_epoch(self):
        campaign = self.make_campaign(1)
        for epoch, q in enumerate((2, 3, 4)):
            assert campaign.maybe_apply(epoch, build_sorn_schedule(8, 2, q=q))
        assert campaign.updates_applied == 3

    def test_dwell_measured_from_last_applied_not_last_rejected(self):
        campaign = self.make_campaign(3)
        campaign.maybe_apply(0, build_sorn_schedule(8, 2, q=2))
        assert campaign.maybe_apply(2, build_sorn_schedule(8, 2, q=3)) is None
        # Epoch 3 = 0 + dwell: accepted even though epoch 2 was rejected
        # in between (rejections must not reset the dwell clock).
        assert campaign.maybe_apply(3, build_sorn_schedule(8, 2, q=3))

    def test_negative_epoch_rejected(self):
        campaign = self.make_campaign(1)
        with pytest.raises(ControlPlaneError, match="non-negative"):
            campaign.maybe_apply(-1, build_sorn_schedule(8, 2, q=2))

    def test_non_monotonic_epoch_rejected(self):
        campaign = self.make_campaign(1)
        campaign.maybe_apply(5, build_sorn_schedule(8, 2, q=2))
        with pytest.raises(
            ControlPlaneError, match="strictly increasing.*3.*after.*5"
        ):
            campaign.maybe_apply(3, build_sorn_schedule(8, 2, q=3))

    def test_repeated_epoch_rejected(self):
        campaign = self.make_campaign(1)
        campaign.maybe_apply(5, build_sorn_schedule(8, 2, q=2))
        with pytest.raises(ControlPlaneError, match="strictly increasing"):
            campaign.maybe_apply(5, build_sorn_schedule(8, 2, q=3))

    def test_rejected_request_still_advances_the_clock(self):
        campaign = self.make_campaign(5)
        campaign.maybe_apply(0, build_sorn_schedule(8, 2, q=2))
        assert campaign.maybe_apply(2, build_sorn_schedule(8, 2, q=3)) is None
        with pytest.raises(ControlPlaneError, match="strictly increasing"):
            campaign.maybe_apply(1, build_sorn_schedule(8, 2, q=3))

    def test_force_update_bypasses_dwell_but_validates_epochs(self):
        campaign = self.make_campaign(10)
        campaign.maybe_apply(0, build_sorn_schedule(8, 2, q=2))
        record = campaign.force_update(1, build_sorn_schedule(8, 2, q=3))
        assert record is not None and campaign.updates_applied == 2
        with pytest.raises(ControlPlaneError, match="strictly increasing"):
            campaign.force_update(1, build_sorn_schedule(8, 2, q=4))
