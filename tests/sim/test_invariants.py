"""InvariantChecker: clean runs stay silent, corrupted inputs raise."""

import pytest

from repro.errors import InvariantViolation
from repro.routing import SornRouter, VlbRouter
from repro.schedules import RoundRobinSchedule, build_sorn_schedule
from repro.sim import (
    FailureTimeline,
    InvariantChecker,
    LinkedVoqState,
    SimConfig,
    SimNetwork,
    SlotSimulator,
)
from repro.traffic import FlowSpec


def _flows(n, count, size=4):
    return [
        FlowSpec(i, i % n, (i + 1 + i // n) % n, size, i % 3) for i in range(count)
    ]


class TestCleanRuns:
    """Enabling the checker must be invisible on a correct engine."""

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_clean_run_is_silent_and_unchanged(self, engine):
        n = 10
        schedule = RoundRobinSchedule(n, num_planes=2)
        flows = _flows(n, 30)
        base = SimConfig(engine=engine, drain=True, max_drain_slots=200)
        checked = SimConfig(
            engine=engine, drain=True, max_drain_slots=200, check_invariants=True
        )
        plain = SlotSimulator(schedule, VlbRouter(n), base, rng=11).run(flows, 120)
        audited = SlotSimulator(schedule, VlbRouter(n), checked, rng=11).run(
            flows, 120
        )
        assert plain == audited

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_clean_run_with_timeline(self, engine):
        schedule = build_sorn_schedule(12, 3, q=2)
        flows = _flows(12, 24)
        tl = FailureTimeline.parse("node:4@20-80,plane:0@50-60")
        config = SimConfig(
            engine=engine, drain=True, max_drain_slots=300, check_invariants=True
        )
        report = SlotSimulator(
            schedule, SornRouter(schedule.layout), config, rng=2, timeline=tl
        ).run(flows, 150)
        assert report.delivered_cells > 0

    def test_checker_counts_checks(self):
        schedule = RoundRobinSchedule(6)
        checker = InvariantChecker(schedule)
        row = schedule.plane_matching(0, 0).dst
        src = 0
        checker.record_transmit(0, 0, src, int(row[src]), 1)
        assert checker.checks_run == 1


class TestTransmitChecks:
    def _checker(self, schedule=None):
        schedule = schedule or RoundRobinSchedule(6)
        return schedule, InvariantChecker(schedule)

    def test_over_capacity(self):
        """A circuit carries one cell per slot."""
        schedule, checker = self._checker()
        row = schedule.plane_matching(0, 0).dst
        with pytest.raises(InvariantViolation, match="capacity 1"):
            checker.record_transmit(0, 0, 0, int(row[0]), 2)

    def test_circuit_not_in_schedule(self):
        schedule, checker = self._checker()
        row = schedule.plane_matching(0, 0).dst
        wrong = (int(row[0]) + 1) % 6
        with pytest.raises(InvariantViolation, match="connects"):
            checker.record_transmit(0, 0, 0, wrong, 1)

    def test_masked_circuit_rejected(self):
        """A transmit over a circuit the timeline has faulted must fail
        even though the healthy schedule opens it."""
        schedule = RoundRobinSchedule(6)
        row = schedule.plane_matching(0, 0).dst
        dst = int(row[0])
        tl = FailureTimeline.node_failure(dst)
        checker = InvariantChecker(schedule, tl)
        with pytest.raises(InvariantViolation, match="connects"):
            checker.record_transmit(0, 0, 0, dst, 1)


class TestDeliveryChecks:
    def test_delivery_before_injection(self):
        schedule = RoundRobinSchedule(6)
        checker = InvariantChecker(schedule)
        with pytest.raises(InvariantViolation, match="before its injection"):
            checker.record_delivery(3, 5, (0, 1))

    def test_delivery_before_circuit_up(self):
        schedule = RoundRobinSchedule(6)
        checker = InvariantChecker(schedule)
        up = schedule.circuit_slots(0, 1)
        first = int(up[0])
        # Deliver on the slot *before* the circuit 0->1 first opens.
        if first > 0:
            with pytest.raises(InvariantViolation, match="earliest feasible"):
                checker.record_delivery(first - 1, 0, (0, 1))
        # At the opening slot the delivery is legal.
        checker.record_delivery(first, 0, (0, 1))

    def test_delivery_at_bound_accepted_multi_hop(self):
        schedule = RoundRobinSchedule(8)
        checker = InvariantChecker(schedule)
        path = (0, 3, 6)
        earliest = 0
        for u, v in zip(path, path[1:]):
            earliest = checker._next_up_slot(earliest, u, v)
        checker.record_delivery(earliest, 0, path)
        with pytest.raises(InvariantViolation, match="delta_m"):
            checker.record_delivery(earliest - 1, 0, path)

    def test_never_open_circuit(self):
        schedule = RoundRobinSchedule(6)
        checker = InvariantChecker(schedule)
        with pytest.raises(InvariantViolation, match="never opens"):
            checker.record_delivery(10, 0, (0, 0))


class TestConservationChecks:
    def test_reference_census_mismatch(self):
        schedule = RoundRobinSchedule(6)
        checker = InvariantChecker(schedule)
        network = SimNetwork(6)
        with pytest.raises(InvariantViolation, match="conservation"):
            checker.end_slot(0, network, injected_total=1, delivered_total=0)

    def test_clean_end_slot(self):
        schedule = RoundRobinSchedule(6)
        checker = InvariantChecker(schedule)
        checker.end_slot(0, SimNetwork(6), injected_total=0, delivered_total=0)
        checker.end_slot(1, LinkedVoqState(6), injected_total=4, delivered_total=4)
        # Queued cells whose per-VOQ counters agree with the fabric total
        # (counters written at the pairs' ranks, assigned before the
        # writes since a new rank may widen the arrays; head/tail stay
        # empty).
        state = LinkedVoqState(6)
        state.credit(3)
        r01, r45 = state.rank(0, 1), state.rank(4, 5)
        state.qlen[0, r01] = 2
        state.qlen[4, r45] = 1
        assert state.queue_length(0, 1) == 2
        assert state.backlogs() == [2, 0, 0, 0, 1, 0]
        checker.end_slot(2, state, injected_total=7, delivered_total=4)

    def test_array_negative_counter(self):
        schedule = RoundRobinSchedule(6)
        checker = InvariantChecker(schedule)
        state = LinkedVoqState(6)
        # One cell queued at (0, 1), then drained and delivered from the
        # wrong VOQ — one at the same node, so the per-node backlogs
        # still balance and only the per-VOQ counter goes below 0.
        state.credit(1)
        r01, r03 = state.rank(0, 1), state.rank(0, 3)
        state.qlen[0, r01] += 1
        state.qlen[0, r03] -= 1
        state.debit(1)
        assert state.backlogs() == [0] * 6
        assert state.min_voq_length() == -1
        with pytest.raises(InvariantViolation, match="negative VOQ counter"):
            checker.end_slot(0, state, injected_total=1, delivered_total=1)

    def test_array_counter_sum_mismatch(self):
        schedule = RoundRobinSchedule(6)
        checker = InvariantChecker(schedule)
        state = LinkedVoqState(6)
        r01 = state.rank(0, 1)
        state.qlen[0, r01] = 2  # counters drift from the fabric total
        with pytest.raises(InvariantViolation, match="sum"):
            checker.end_slot(0, state, injected_total=0, delivered_total=0)
