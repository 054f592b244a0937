"""Deterministic unit tests for the closed-loop adaptation runtime.

The randomized chaos harness lives in ``test_chaos.py``; here every
branch of the health state machine, the estimate validation, the retry
budget and the epoch accounting is pinned with scripted scenarios.
"""

import numpy as np
import pytest

from repro.control import (
    AdaptiveSimulation,
    ControllerState,
    RetunePlan,
    RuntimeConfig,
    ScriptedChaos,
    UpdateCampaign,
    plan_update,
    validate_estimate,
)
from repro.errors import ControlPlaneError
from repro.routing import SornRouter
from repro.schedules import RoundRobinSchedule, build_sorn_schedule
from repro.sim import EpochTransitionCollector, SimConfig, SimSession, TelemetryHub
from repro.traffic import FlowSpec

N, CLIQUES = 12, 3


def make_flows(count=80, horizon=200, seed=3, n=N):
    rng = np.random.default_rng(seed)
    flows = []
    for fid in range(count):
        src = int(rng.integers(n))
        dst = int(rng.integers(n - 1))
        if dst >= src:
            dst += 1
        flows.append(
            FlowSpec(
                flow_id=fid,
                src=src,
                dst=dst,
                size_cells=int(rng.integers(1, 5)),
                arrival_slot=int(rng.integers(horizon)),
            )
        )
    return flows


def make_adaptive(runtime=None, chaos=None, engine="vectorized", telemetry=None):
    schedule = build_sorn_schedule(N, CLIQUES, q=1.0)
    return AdaptiveSimulation(
        schedule,
        SornRouter(schedule.layout),
        runtime or RuntimeConfig(epoch_slots=40),
        config=SimConfig(
            engine=engine, check_invariants=True, telemetry=telemetry
        ),
        rng=11,
        chaos=chaos,
    )


class TestRuntimeConfig:
    def test_defaults_valid(self):
        RuntimeConfig(epoch_slots=10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epoch_slots": 0},
            {"epoch_slots": 10, "alpha": 0.0},
            {"epoch_slots": 10, "gain_threshold": -0.1},
            {"epoch_slots": 10, "min_dwell_epochs": 0},
            {"epoch_slots": 10, "max_planner_retries": -1},
            {"epoch_slots": 10, "base_backoff_slots": 0},
            {"epoch_slots": 10, "fallback_after": 0},
            {"epoch_slots": 10, "recover_after": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(Exception):
            RuntimeConfig(**kwargs)


class TestValidateEstimate:
    def good(self):
        arr = np.ones((4, 4))
        np.fill_diagonal(arr, 0.0)
        return arr

    def test_accepts_valid_matrix(self):
        matrix = validate_estimate(self.good(), 4)
        assert matrix.num_nodes == 4

    def test_rejects_nan(self):
        bad = self.good()
        bad[0, 1] = np.nan
        with pytest.raises(ControlPlaneError, match="NaN or infinite"):
            validate_estimate(bad, 4)

    def test_rejects_inf(self):
        bad = self.good()
        bad[1, 0] = np.inf
        with pytest.raises(ControlPlaneError, match="NaN or infinite"):
            validate_estimate(bad, 4)

    def test_rejects_negative(self):
        bad = self.good()
        bad[2, 3] = -0.5
        with pytest.raises(ControlPlaneError, match="negative"):
            validate_estimate(bad, 4)

    def test_rejects_self_traffic(self):
        bad = self.good()
        bad[2, 2] = 1.0
        with pytest.raises(ControlPlaneError, match="self-traffic"):
            validate_estimate(bad, 4)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ControlPlaneError, match="shape"):
            validate_estimate(np.zeros((3, 4)), 4)

    def test_rejects_non_numeric(self):
        with pytest.raises(ControlPlaneError):
            validate_estimate([["a", "b"], ["c", "d"]], 2)


class TestScriptedChaos:
    def test_rejects_unknown_corruption_kind(self):
        with pytest.raises(ControlPlaneError, match="unknown estimate"):
            ScriptedChaos(corrupt_epochs={0: "gamma-rays"})

    @pytest.mark.parametrize(
        "kind", ["nan", "inf", "negative", "self-traffic", "shape"]
    )
    def test_every_corruption_kind_fails_validation(self, kind):
        chaos = ScriptedChaos(corrupt_epochs={0: kind})
        clean = np.ones((4, 4))
        np.fill_diagonal(clean, 0.0)
        corrupted = chaos.corrupt_estimate(0, clean)
        with pytest.raises(ControlPlaneError):
            validate_estimate(corrupted, 4)

    def test_corruption_does_not_mutate_input(self):
        chaos = ScriptedChaos(corrupt_epochs={0: "nan"})
        clean = np.ones((4, 4))
        np.fill_diagonal(clean, 0.0)
        chaos.corrupt_estimate(0, clean)
        assert np.isfinite(clean).all()

    def test_planner_failure_counts_attempts(self):
        chaos = ScriptedChaos(planner_fail_attempts={3: 2})
        assert chaos.planner_failure(3, 0)
        assert chaos.planner_failure(3, 1)
        assert not chaos.planner_failure(3, 2)
        assert not chaos.planner_failure(4, 0)


class TestConstruction:
    def test_rejects_schedule_without_layout(self):
        with pytest.raises(ControlPlaneError, match="layout"):
            AdaptiveSimulation(
                RoundRobinSchedule(N),
                SornRouter(build_sorn_schedule(N, CLIQUES, q=1).layout),
                RuntimeConfig(epoch_slots=10),
            )

    def test_rejects_mismatched_fallback(self):
        schedule = build_sorn_schedule(N, CLIQUES, q=1)
        with pytest.raises(ControlPlaneError, match="fallback"):
            AdaptiveSimulation(
                schedule,
                SornRouter(schedule.layout),
                RuntimeConfig(epoch_slots=10),
                fallback_schedule=RoundRobinSchedule(N + 4),
            )


class TestBenignLoop:
    def test_healthy_run_retunes_and_accounts(self):
        result = make_adaptive().run(make_flows(), 240)
        assert result.final_state == ControllerState.HEALTHY
        assert result.failed_epochs == 0
        assert result.fallback_engagements == 0
        assert result.updates_applied >= 1
        assert result.epochs[0].action == "retuned"
        assert result.epochs[-1].action == "final"
        # Epoch boundaries tile the run and cell deltas sum to the total.
        assert sum(e.delivered_cells for e in result.epochs) == (
            result.report.delivered_cells
        )
        for prev, cur in zip(result.epochs, result.epochs[1:]):
            assert cur.start_slot == prev.end_slot
            assert cur.epoch == prev.epoch + 1

    def test_engines_bit_identical(self):
        flows = make_flows()
        results = {
            engine: make_adaptive(engine=engine).run(flows, 240)
            for engine in ("reference", "vectorized")
        }
        assert results["reference"].epochs == results["vectorized"].epochs
        assert results["reference"].report == results["vectorized"].report

    def test_epoch_telemetry_matches_reports(self):
        collector = EpochTransitionCollector()
        result = make_adaptive(telemetry=TelemetryHub([collector])).run(
            make_flows(), 240
        )
        rows = collector.rows()
        assert len(rows) == len(result.epochs)
        for row, record in zip(rows, result.epochs):
            assert row["epoch"] == record.epoch
            assert row["state"] == record.state
            assert row["action"] == record.action
        assert collector.states() == list(result.state_sequence())

    def test_dwell_holds_updates(self):
        rt = RuntimeConfig(
            epoch_slots=40, min_dwell_epochs=100, gain_threshold=0.0
        )
        result = make_adaptive(runtime=rt).run(make_flows(), 240)
        assert result.updates_applied <= 1
        assert any(e.action == "held" for e in result.epochs)
        held = next(e for e in result.epochs if e.action == "held")
        assert "dwell" in held.reason

    def test_held_epoch_builds_no_candidate(self, monkeypatch):
        """The dwell clock is asked first: with a dwell of 2 and no gain
        threshold, the epochs between retunes are held, and only the
        retunes build a candidate schedule (and plan its update)."""
        calls = []
        build = AdaptiveSimulation._build_candidate

        def counting(self, q):
            calls.append(q)
            return build(self, q)

        monkeypatch.setattr(AdaptiveSimulation, "_build_candidate", counting)
        rt = RuntimeConfig(epoch_slots=40, min_dwell_epochs=2, gain_threshold=0.0)
        result = make_adaptive(runtime=rt).run(make_flows(), 240)
        actions = [e.action for e in result.epochs]
        assert actions.count("held") >= 1
        assert len(calls) == actions.count("retuned") == result.updates_applied

    def test_candidate_adding_neighbor_pairs_is_kept_out(self):
        """A candidate that would need queues toward new neighbors — a
        SORN schedule on another clique layout — is kept out, with a
        reason naming the new pairs, and the session is not swapped."""
        sim = make_adaptive(runtime=RuntimeConfig(epoch_slots=40, gain_threshold=0.0))
        other = build_sorn_schedule(N, 4, q=2.0)
        plan = plan_update(sim.initial_schedule, other)
        assert plan.new_neighbor_pairs
        sim._build_candidate = lambda q: other
        swaps = []

        class Session:
            def swap_schedule(self, schedule):
                swaps.append(schedule)

        campaign = UpdateCampaign(sim.initial_schedule)
        retune = RetunePlan(0.5, 2.0, 0.4, 0.5)
        action, reason, applied = sim._maybe_retune(0, retune, 1.0, campaign, Session())
        assert (action, applied) == ("kept", None)
        assert reason == (
            f"candidate adds {len(plan.new_neighbor_pairs)} neighbor pairs: "
            f"{plan.summary()}"
        )
        assert "drain-free:" not in reason
        assert swaps == []
        assert campaign.updates_applied == 0


class TestStateMachine:
    def test_degrades_then_recovers_health(self):
        chaos = ScriptedChaos(outage_epochs={1})
        result = make_adaptive(chaos=chaos).run(make_flows(), 240)
        seq = result.state_sequence()
        assert seq[1] == ControllerState.DEGRADED
        assert ControllerState.FALLBACK not in seq
        assert result.epochs[1].action == "degraded"
        assert "outage" in result.epochs[1].reason
        assert seq[2] == ControllerState.HEALTHY

    def test_fallback_engages_after_budget(self):
        rt = RuntimeConfig(epoch_slots=40, fallback_after=2)
        chaos = ScriptedChaos(outage_epochs={0, 1, 2, 3, 4})
        result = make_adaptive(runtime=rt, chaos=chaos).run(make_flows(), 240)
        seq = result.state_sequence()
        assert seq[0] == ControllerState.DEGRADED
        assert seq[1] == ControllerState.FALLBACK
        assert result.epochs[1].action == "fallback-engaged"
        assert result.fallback_engagements == 1
        assert result.final_state == ControllerState.FALLBACK
        # While in fallback the loop reports no q (oblivious schedule).
        assert result.epochs[2].q is None

    def test_fallback_recovers_after_good_epochs(self):
        rt = RuntimeConfig(epoch_slots=40, fallback_after=1, recover_after=2)
        chaos = ScriptedChaos(outage_epochs={0})
        result = make_adaptive(runtime=rt, chaos=chaos).run(make_flows(), 280)
        seq = result.state_sequence()
        assert seq[0] == ControllerState.FALLBACK
        recovered = next(e for e in result.epochs if e.action == "recovered")
        assert recovered.epoch == 2  # outage, then recover_after good epochs
        assert seq[recovered.epoch] == ControllerState.HEALTHY
        assert result.recoveries == 1
        assert result.epochs[recovered.epoch].q is not None

    def test_update_counters_match_schedule_swaps(self, monkeypatch):
        """The report's counters, read off the epoch history, agree with
        the schedule swaps the runtime pushed into the session."""
        swaps = []
        swap = SimSession.swap_schedule

        def counting_swap(session, schedule):
            swaps.append(schedule)
            swap(session, schedule)

        monkeypatch.setattr(SimSession, "swap_schedule", counting_swap)
        rt = RuntimeConfig(epoch_slots=40, fallback_after=1, recover_after=2)
        chaos = ScriptedChaos(outage_epochs={0})
        result = make_adaptive(runtime=rt, chaos=chaos).run(make_flows(), 280)
        assert result.updates_applied == len(swaps)
        fallbacks = sum(isinstance(s, RoundRobinSchedule) for s in swaps)
        assert result.fallback_engagements == fallbacks == 1
        assert result.recoveries == 1
        assert result.failed_epochs == 1

    def test_estimate_corruption_degrades_not_raises(self):
        chaos = ScriptedChaos(
            corrupt_epochs={0: "nan", 1: "negative", 2: "shape"}
        )
        result = make_adaptive(chaos=chaos).run(make_flows(), 240)
        for epoch in range(3):
            assert not result.epochs[epoch].succeeded
            assert "estimate rejected" in result.epochs[epoch].reason


class TestPlannerRetries:
    def test_retry_succeeds_within_budget(self):
        rt = RuntimeConfig(
            epoch_slots=400, max_planner_retries=3, base_backoff_slots=2
        )
        chaos = ScriptedChaos(planner_fail_attempts={0: 2})
        result = make_adaptive(runtime=rt, chaos=chaos).run(
            make_flows(horizon=700), 800
        )
        first = result.epochs[0]
        assert first.succeeded
        assert first.planner_attempts == 3
        # Backoff 2 after attempt 0, 4 after attempt 1: exponential.
        assert first.backoff_slots == 6
        assert result.failed_epochs == 0

    def test_retries_exhausted_degrades(self):
        rt = RuntimeConfig(epoch_slots=400, max_planner_retries=1)
        chaos = ScriptedChaos(planner_fail_attempts={0: 99})
        result = make_adaptive(runtime=rt, chaos=chaos).run(
            make_flows(horizon=700), 800
        )
        first = result.epochs[0]
        assert not first.succeeded
        assert "planner failed after 2 attempts" in first.reason

    def test_backoff_bounded_by_epoch_deadline(self):
        # Retries allowed, but the epoch is short: cumulative backoff
        # blows the deadline before the retry budget runs out.
        rt = RuntimeConfig(
            epoch_slots=5, max_planner_retries=10, base_backoff_slots=4
        )
        chaos = ScriptedChaos(planner_fail_attempts={0: 99})
        result = make_adaptive(runtime=rt, chaos=chaos).run(
            make_flows(horizon=5), 60
        )
        first = result.epochs[0]
        assert not first.succeeded
        assert "deadline" in first.reason
        assert first.planner_attempts < 11


class TestIdleEpochs:
    def test_quiet_epochs_do_not_move_the_state_machine(self):
        # All arrivals land in the first 40 slots; later epochs are idle
        # and must neither fail nor count toward recovery/fallback.
        flows = make_flows(horizon=40)
        rt = RuntimeConfig(epoch_slots=40, fallback_after=1)
        result = make_adaptive(runtime=rt).run(flows, 240)
        idle = [e for e in result.epochs if e.action == "idle"]
        assert idle
        assert all(e.succeeded for e in idle)
        assert result.final_state == ControllerState.HEALTHY
        assert result.failed_epochs == 0
