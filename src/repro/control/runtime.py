"""The closed-loop adaptation runtime (paper sections 3 and 5).

Everything before this module exercised the semi-oblivious control loop
*offline*: estimate demand, derive a schedule, analyze the update.  Here
the loop actually closes over a live simulation.
:class:`AdaptiveSimulation` drives a resumable engine session
(:meth:`repro.sim.engine.SlotSimulator.start`) in fixed-length epochs:
at every epoch boundary it reads the *measured* demand of the segment
just executed, folds it into a :class:`~repro.control.estimator.
DemandEstimator`, derives ``q* = 2 / (1 - x)`` and its predicted gain
with :func:`~repro.control.planner.plan_retune` (the matrix-level
loop's decision step too), gates the candidate through
:func:`~repro.control.planner.plan_update` and an
:class:`~repro.control.updates.UpdateCampaign` dwell policy, and — when
the predicted gain clears the hysteresis threshold — records the update
on the campaign's dwell clock and swaps the schedule into the running
session (VOQ contents and in-flight cells carried across).

Demand-aware designs live or die by how they behave when the demand
signal is wrong or late, so the loop is wrapped in explicit robustness
machinery:

- a controller **health state machine** ``HEALTHY -> DEGRADED ->
  FALLBACK``: any failed epoch degrades the controller (the fabric keeps
  the last-known-good schedule); ``fallback_after`` *consecutive*
  failures engage the fully oblivious uniform fallback schedule, which
  needs no demand signal at all; ``recover_after`` consecutive good
  epochs re-derive a demand-aware schedule and return to HEALTHY;
- **estimate validation** (:func:`validate_estimate`) rejecting NaN,
  infinite, negative, wrong-shape and self-traffic matrices before they
  reach the estimator;
- **retry with exponential backoff** on planner failure, bounded by the
  epoch deadline (a controller that cannot produce a schedule within
  the epoch has missed its deadline — same outcome as an outage);
- a scripted **controller outage / fault-injection** surface
  (:class:`ChaosPolicy`), deliberately decoupled from the simulation
  RNG so chaos cannot perturb the engines' bit-exactness contract.

Every epoch emits an :class:`EpochReport` and an epoch-transition
telemetry event (:class:`repro.sim.telemetry.EpochTransitionCollector`).
The chaos harness (``tests/control/test_chaos.py``) asserts the loop
never raises, both engines stay bit-identical per epoch, invariants hold
across every schedule swap, and delivered throughput degrades gracefully
versus the static oblivious baseline.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import ControlPlaneError
from ..routing.base import Router
from ..schedules.round_robin import RoundRobinSchedule
from ..schedules.schedule import CircuitSchedule
from ..schedules.sorn_schedule import build_sorn_schedule
from ..sim.engine import SegmentCheckpoint, SimConfig, SlotSimulator
from ..sim.failures import FailureTimeline
from ..sim.metrics import SimReport
from ..topology.cliques import CliqueLayout
from ..traffic.matrix import TrafficMatrix
from ..traffic.workload import FlowsLike, FlowTable
from ..util import check_fraction, check_positive_int, RngLike
from .estimator import DemandEstimator
from .planner import RetunePlan, plan_retune, plan_update
from .updates import UpdateCampaign

__all__ = [
    "AdaptiveReport",
    "AdaptiveSimulation",
    "ChaosPolicy",
    "ControllerState",
    "EpochReport",
    "RuntimeConfig",
    "ScriptedChaos",
    "validate_estimate",
]


class ControllerState:
    """Controller health states (string constants, not an enum, so epoch
    records serialize to plain JSON without adapters)."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    FALLBACK = "fallback"


@dataclasses.dataclass(frozen=True)
class RuntimeConfig:
    """Tunable knobs of the adaptation runtime.  The caps on the
    locality estimate and q* are the planner's constants
    (:data:`~repro.control.planner.LOCALITY_CAP`, ``MAX_Q``).

    Attributes
    ----------
    epoch_slots:
        Control-loop cadence: slots simulated between control steps.
        Also the controller's deadline budget — planner retries whose
        cumulative backoff reaches it count as a missed epoch.
    alpha:
        EWMA weight of the newest demand observation.
    gain_threshold:
        Hysteresis: a candidate schedule is applied only when its
        predicted worst-case throughput exceeds the incumbent's by this
        relative margin (prevents q-thrash on estimation noise).
    min_dwell_epochs:
        Operator rate limit between applied updates (see
        :class:`~repro.control.updates.UpdateCampaign`).
    max_planner_retries:
        Retries after the first failed planning attempt within an epoch.
    base_backoff_slots:
        First retry backoff; doubles per subsequent retry.
    fallback_after:
        Consecutive failed epochs before the oblivious fallback engages.
    recover_after:
        Consecutive good epochs (while in FALLBACK) before the runtime
        re-derives a demand-aware schedule and returns to HEALTHY.
    """

    epoch_slots: int
    alpha: float = 0.3
    gain_threshold: float = 0.02
    min_dwell_epochs: int = 1
    max_planner_retries: int = 3
    base_backoff_slots: int = 2
    fallback_after: int = 3
    recover_after: int = 2

    def __post_init__(self) -> None:
        check_positive_int(self.epoch_slots, "epoch_slots")
        check_fraction(self.alpha, "alpha")
        if self.alpha == 0.0:
            raise ControlPlaneError("alpha must be positive")
        if self.gain_threshold < 0:
            raise ControlPlaneError("gain_threshold must be non-negative")
        check_positive_int(self.min_dwell_epochs, "min_dwell_epochs")
        if self.max_planner_retries < 0:
            raise ControlPlaneError("max_planner_retries must be non-negative")
        check_positive_int(self.base_backoff_slots, "base_backoff_slots")
        check_positive_int(self.fallback_after, "fallback_after")
        check_positive_int(self.recover_after, "recover_after")


def validate_estimate(raw, num_nodes: int) -> TrafficMatrix:
    """Validate a raw demand observation before it reaches the estimator.

    A corrupt estimate must be rejected *here*, at the controller's
    trust boundary — :class:`~repro.traffic.matrix.TrafficMatrix` would
    also refuse it, but with an exception type the health state machine
    cannot distinguish from a programming error.  Raises
    :class:`~repro.errors.ControlPlaneError` naming the defect.
    """
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ControlPlaneError(f"estimate is not numeric: {exc}") from exc
    if arr.shape != (num_nodes, num_nodes):
        raise ControlPlaneError(
            f"estimate has shape {arr.shape}, expected "
            f"{(num_nodes, num_nodes)}"
        )
    if not np.isfinite(arr).all():
        raise ControlPlaneError("estimate contains NaN or infinite entries")
    if (arr < 0).any():
        raise ControlPlaneError("estimate contains negative entries")
    if np.diagonal(arr).any():
        raise ControlPlaneError("estimate has nonzero self-traffic entries")
    return TrafficMatrix(arr)


class ChaosPolicy:
    """Fault-injection surface of the controller; the base class injects
    nothing.

    The hooks are *scripted* (deterministic functions of the epoch
    index), never drawing from the simulation RNG: the vectorized engine
    presamples its whole RNG stream before slot 0, so a chaos policy
    touching that stream would break the engines' bit-exactness — the
    very property the chaos harness exists to prove.
    """

    def controller_outage(self, epoch: int) -> bool:
        """Whether the controller misses this epoch entirely."""
        return False

    def corrupt_estimate(self, epoch: int, observed: np.ndarray) -> np.ndarray:
        """Chance to corrupt the raw observed-demand array."""
        return observed

    def planner_failure(self, epoch: int, attempt: int) -> bool:
        """Whether planning *attempt* (0-based) fails this epoch."""
        return False

    def preemption(self, epoch: int) -> bool:
        """Whether the worker hosting the loop is preempted at this
        epoch boundary.

        A preempted run is saved to a durable checkpoint, torn down, and
        resumed in a fresh simulator — the restored session must be
        bit-identical, health state machine and all, so preemption is
        invisible in every report and telemetry stream.
        """
        return False


_CORRUPTION_KINDS = ("nan", "inf", "negative", "self-traffic", "shape")


@dataclasses.dataclass
class ScriptedChaos(ChaosPolicy):
    """A fully scripted chaos timeline.

    Attributes
    ----------
    outage_epochs:
        Epochs at which the controller misses its deadline outright.
    corrupt_epochs:
        ``{epoch: kind}`` estimate corruptions; kinds are ``"nan"``,
        ``"inf"``, ``"negative"``, ``"self-traffic"`` and ``"shape"``.
    planner_fail_attempts:
        ``{epoch: k}`` — the first *k* planning attempts of that epoch
        fail (k > max retries means the whole epoch fails).
    preempt_epochs:
        Epochs at whose boundary the hosting worker is preempted: the
        run checkpoints to disk, dies, and resumes in a fresh simulator
        (bit-identically, by the durable-checkpoint contract).
    """

    outage_epochs: Set[int] = dataclasses.field(default_factory=set)
    corrupt_epochs: Dict[int, str] = dataclasses.field(default_factory=dict)
    planner_fail_attempts: Dict[int, int] = dataclasses.field(default_factory=dict)
    preempt_epochs: Set[int] = dataclasses.field(default_factory=set)

    def __post_init__(self) -> None:
        bad = [k for k in self.corrupt_epochs.values() if k not in _CORRUPTION_KINDS]
        if bad:
            raise ControlPlaneError(
                f"unknown estimate corruption kinds {sorted(set(bad))}; "
                f"valid: {list(_CORRUPTION_KINDS)}"
            )

    def controller_outage(self, epoch: int) -> bool:
        return epoch in self.outage_epochs

    def corrupt_estimate(self, epoch: int, observed: np.ndarray) -> np.ndarray:
        kind = self.corrupt_epochs.get(epoch)
        if kind is None:
            return observed
        bad = np.array(observed, dtype=float)
        if kind == "nan":
            bad[0, -1] = np.nan
        elif kind == "inf":
            bad[-1, 0] = np.inf
        elif kind == "negative":
            bad[0, -1] = -1.0
        elif kind == "self-traffic":
            bad[0, 0] = 1.0
        else:  # "shape"
            bad = bad[:-1, :-1]
        return bad

    def planner_failure(self, epoch: int, attempt: int) -> bool:
        return attempt < self.planner_fail_attempts.get(epoch, 0)

    def preemption(self, epoch: int) -> bool:
        return epoch in self.preempt_epochs


@dataclasses.dataclass(frozen=True)
class EpochReport:
    """One control epoch: what the fabric did and what the controller
    decided.

    ``state`` is the health state *after* the control step; ``action``
    is one of ``retuned / kept / held / idle / degraded /
    fallback-engaged / fallback-held / recovered / final``.  The cell
    counters are deltas over this epoch's segment.  Identical seeded
    adaptive runs produce equal report sequences under either engine.
    """

    epoch: int
    start_slot: int
    end_slot: int
    state: str
    action: str
    reason: str
    succeeded: bool
    planner_attempts: int
    backoff_slots: int
    locality: Optional[float]
    q: Optional[float]
    injected_cells: int
    delivered_cells: int
    in_flight_cells: int


@dataclasses.dataclass(frozen=True)
class AdaptiveReport:
    """Outcome of one adaptive run: the final simulation report plus the
    full epoch history, which the controller counters are read off."""

    report: SimReport
    epochs: Tuple[EpochReport, ...]
    final_state: str

    @property
    def delivered_cells(self) -> int:
        return self.report.delivered_cells

    @property
    def updates_applied(self) -> int:
        updates = ("retuned", "fallback-engaged", "recovered")
        return sum(e.action in updates for e in self.epochs)

    @property
    def fallback_engagements(self) -> int:
        return sum(e.action == "fallback-engaged" for e in self.epochs)

    @property
    def recoveries(self) -> int:
        return sum(e.action == "recovered" for e in self.epochs)

    @property
    def failed_epochs(self) -> int:
        return sum(not e.succeeded for e in self.epochs)

    def state_sequence(self) -> List[str]:
        """Health state per epoch, in order."""
        return [e.state for e in self.epochs]

    def summary(self) -> str:
        """One-line human-readable account of the whole adaptive run."""
        return (
            f"adaptive run: {len(self.epochs)} epochs, "
            f"{self.updates_applied} updates applied, "
            f"{self.failed_epochs} failed epochs, "
            f"{self.fallback_engagements} fallback engagement(s), "
            f"{self.recoveries} recovery(ies), final state "
            f"{self.final_state}, {self.report.delivered_cells} cells "
            f"delivered"
        )


class _EpochOutcome:
    """Mutable scratch for one control step (internal)."""

    __slots__ = ("failure", "attempts", "backoff", "locality", "idle")

    def __init__(self) -> None:
        self.failure: Optional[str] = None
        self.attempts = 0
        self.backoff = 0
        self.locality: Optional[float] = None
        self.idle = False


class AdaptiveSimulation:
    """Closed-loop supervisor: simulate an epoch, adapt, repeat.

    Parameters
    ----------
    schedule:
        Initial SORN schedule; must carry a clique ``layout`` (the
        locality measurement and every re-derived schedule use it — the
        runtime retunes q on a fixed layout, which keeps updates
        drain-free and presampled routes valid).
    router:
        The oblivious router (fixed for the whole run; see
        :meth:`repro.sim.engine.SimSession.swap_schedule`).
    runtime:
        The :class:`RuntimeConfig` knobs.
    config, rng, timeline:
        Passed to the underlying :class:`~repro.sim.engine.SlotSimulator`
        unchanged, so an adaptive run composes with both engines,
        invariant checking, telemetry and failure timelines.
    chaos:
        Optional :class:`ChaosPolicy` fault injector.
    fallback_schedule:
        The fully oblivious schedule FALLBACK engages; defaults to a
        uniform :class:`~repro.schedules.round_robin.RoundRobinSchedule`
        with the same plane count.  It opens every directed pair, so any
        oblivious route remains serviceable under it.
    """

    def __init__(
        self,
        schedule: CircuitSchedule,
        router: Router,
        runtime: RuntimeConfig,
        config: Optional[SimConfig] = None,
        rng: RngLike = None,
        timeline: Optional[FailureTimeline] = None,
        chaos: Optional[ChaosPolicy] = None,
        fallback_schedule: Optional[CircuitSchedule] = None,
    ):
        layout = getattr(schedule, "layout", None)
        if not isinstance(layout, CliqueLayout):
            raise ControlPlaneError(
                "the adaptive runtime needs a clique-structured schedule "
                "(one with a .layout); got "
                f"{type(schedule).__name__}"
            )
        q = getattr(schedule, "q", None)
        if q is None:
            raise ControlPlaneError(
                "the initial schedule must expose its oversubscription "
                "ratio q (a SornSchedule does)"
            )
        self.layout: CliqueLayout = layout
        self.initial_schedule = schedule
        self.initial_q = float(q)
        self.router = router
        self.runtime = runtime
        self.sim = SlotSimulator(schedule, router, config, rng, timeline)
        self.chaos = chaos if chaos is not None else ChaosPolicy()
        if fallback_schedule is None:
            fallback_schedule = RoundRobinSchedule(
                schedule.num_nodes, num_planes=schedule.num_planes
            )
        if fallback_schedule.num_nodes != schedule.num_nodes:
            raise ControlPlaneError(
                f"fallback schedule covers {fallback_schedule.num_nodes} "
                f"nodes, fabric has {schedule.num_nodes}"
            )
        self.fallback_schedule = fallback_schedule

    # -- the loop ------------------------------------------------------------

    def run(self, flows: FlowsLike, duration_slots: int) -> AdaptiveReport:
        """Run *flows* for *duration_slots* under closed-loop adaptation.

        Robustness contract: no controller failure — corrupt estimates,
        planner faults, outages — escapes this method.  Engine-level
        :class:`~repro.errors.InvariantViolation` (an engine *bug*, not
        a controller fault) does propagate.
        """
        rt = self.runtime
        flows = FlowTable.of(flows)  # once, not again on every preemption
        session = self.sim.start(flows, duration_slots)
        hub = self.sim.config.telemetry
        emit_epoch = (
            hub.record_epoch if hub is not None and hub.wants_epochs else None
        )
        campaign = UpdateCampaign(
            self.initial_schedule, min_dwell_epochs=rt.min_dwell_epochs
        )
        estimator = DemandEstimator(self.layout.num_nodes, alpha=rt.alpha)
        prev_demand = np.zeros(
            (self.layout.num_nodes, self.layout.num_nodes), dtype=np.int64
        )
        state = ControllerState.HEALTHY
        current_q: Optional[float] = self.initial_q
        consecutive_failures = 0
        recovery_streak = 0
        epochs: List[EpochReport] = []
        epoch = 0
        prev_cp = session.checkpoint()

        while not session.main_phase_done:
            start_slot = session.slot
            session.run_segment(rt.epoch_slots)
            cp = session.checkpoint()
            demand = session.demand_snapshot()
            observed = demand - prev_demand
            prev_demand = demand

            if session.main_phase_done:
                # Horizon reached: nothing left to adapt; record the
                # final segment and stop (a swap here would only govern
                # the drain phase).
                epochs.append(
                    self._final_report(epoch, start_slot, cp, prev_cp, state, current_q)
                )
                if emit_epoch is not None:
                    self._emit(emit_epoch, epochs[-1])
                break

            if self.chaos.preemption(epoch):
                # The hosting worker is preempted at this epoch boundary:
                # persist the session, tear it down, and resume it in a
                # brand-new simulator.  The durable-checkpoint contract
                # makes the hand-off bit-exact, so the control loop (and
                # its health state machine, which lives in this frame's
                # locals) continues as if nothing happened.
                session = self._preempt_restore(session, flows)

            out = _EpochOutcome()
            retune = self._control_step(epoch, observed, estimator, current_q, out)

            if out.failure is not None:
                consecutive_failures += 1
                recovery_streak = 0
                if state == ControllerState.FALLBACK:
                    action, reason = "fallback-held", out.failure
                elif consecutive_failures >= rt.fallback_after:
                    campaign.force_update(epoch, self.fallback_schedule)
                    session.swap_schedule(self.fallback_schedule)
                    state = ControllerState.FALLBACK
                    current_q = None
                    action = "fallback-engaged"
                    reason = (
                        f"{consecutive_failures} consecutive failed epochs "
                        f"(budget {rt.fallback_after}); last: {out.failure}"
                    )
                else:
                    state = ControllerState.DEGRADED
                    action = "degraded"
                    reason = f"keeping last-known-good schedule; {out.failure}"
            elif out.idle:
                action, reason = "idle", "no demand observed this epoch"
            else:
                consecutive_failures = 0
                if state == ControllerState.FALLBACK:
                    recovery_streak += 1
                    if recovery_streak >= rt.recover_after:
                        candidate = self._build_candidate(retune.q)
                        campaign.force_update(epoch, candidate)
                        session.swap_schedule(candidate)
                        state = ControllerState.HEALTHY
                        current_q = retune.q
                        recovery_streak = 0
                        action = "recovered"
                        reason = (
                            f"re-derived q={retune.q:.3g} after "
                            f"{rt.recover_after} good epochs"
                        )
                    else:
                        action = "fallback-held"
                        reason = (
                            f"recovery progress {recovery_streak}/"
                            f"{rt.recover_after}"
                        )
                else:
                    state = ControllerState.HEALTHY
                    action, reason, applied_q = self._maybe_retune(
                        epoch, retune, current_q, campaign, session
                    )
                    if applied_q is not None:
                        current_q = applied_q

            epochs.append(
                EpochReport(
                    epoch=epoch,
                    start_slot=start_slot,
                    end_slot=cp.slot,
                    state=state,
                    action=action,
                    reason=reason,
                    succeeded=out.failure is None,
                    planner_attempts=out.attempts,
                    backoff_slots=out.backoff,
                    locality=out.locality,
                    q=current_q,
                    injected_cells=cp.injected_cells - prev_cp.injected_cells,
                    delivered_cells=cp.delivered_cells - prev_cp.delivered_cells,
                    in_flight_cells=cp.in_flight_cells,
                )
            )
            if emit_epoch is not None:
                self._emit(emit_epoch, epochs[-1])
            prev_cp = cp
            epoch += 1

        return AdaptiveReport(
            report=session.finish(), epochs=tuple(epochs), final_state=state
        )

    def _preempt_restore(self, session, flows: FlowTable):
        """Save *session* to disk and resume it in a fresh simulator.

        Models a worker preemption at an epoch boundary.  The resuming
        simulator is built against the session's *current* (possibly
        swapped) schedule with an arbitrary seed — routes and RNG state
        travel inside the checkpoint — and shares the original config,
        so the same telemetry hub keeps collecting (its state is
        restored, not appended, by the checkpoint machinery).
        """
        fd, path = tempfile.mkstemp(suffix=".ckpt")
        os.close(fd)
        try:
            session.save(path)
            sim = SlotSimulator(
                session.schedule,
                self.router,
                self.sim.config,
                rng=0,
                timeline=self.sim.timeline,
            )
            return sim.resume(path, flows)
        finally:
            try:
                os.remove(path)
            except OSError:
                pass

    # -- control-step pieces -------------------------------------------------

    def _control_step(
        self,
        epoch: int,
        observed: np.ndarray,
        estimator: DemandEstimator,
        current_q: Optional[float],
        out: _EpochOutcome,
    ) -> Optional[RetunePlan]:
        """One controller invocation; returns the planner's decision
        against the incumbent q (None in FALLBACK), or None on failure.

        Populates *out* with the failure reason, retry accounting and
        locality estimate.  Never raises for controller-level faults.
        """
        rt = self.runtime
        if self.chaos.controller_outage(epoch):
            out.failure = "controller outage: epoch deadline missed"
            return None
        raw = self.chaos.corrupt_estimate(epoch, observed)
        try:
            matrix = validate_estimate(raw, self.layout.num_nodes)
        except ControlPlaneError as exc:
            out.failure = f"estimate rejected: {exc}"
            return None
        if matrix.total == 0.0:
            # A silent fabric is not a controller fault; there is just
            # nothing to learn from (or adapt to) this epoch.
            out.idle = True
            return None
        estimator.observe(matrix)
        retune = plan_retune(estimator.estimate(), self.layout, current_q)
        out.locality = retune.locality

        deadline = rt.epoch_slots
        while True:
            attempt = out.attempts
            out.attempts += 1
            if not self.chaos.planner_failure(epoch, attempt):
                return retune
            if out.attempts > rt.max_planner_retries:
                out.failure = (
                    f"planner failed after {out.attempts} attempts: "
                    "injected planner fault"
                )
                return None
            out.backoff += rt.base_backoff_slots * (2 ** attempt)
            if out.backoff >= deadline:
                out.failure = (
                    f"planner retry backoff ({out.backoff} slots) "
                    f"exceeded the epoch deadline ({deadline} slots)"
                )
                return None

    def _build_candidate(self, q: float) -> CircuitSchedule:
        return build_sorn_schedule(
            self.layout.num_nodes,
            self.layout.num_cliques,
            q=q,
            num_planes=self.initial_schedule.num_planes,
            layout=self.layout,
        )

    def _maybe_retune(
        self,
        epoch: int,
        retune: RetunePlan,
        current_q: Optional[float],
        campaign: UpdateCampaign,
        session,
    ) -> Tuple[str, str, Optional[float]]:
        """Hysteresis + dwell + drain-free gating of a healthy retune.

        Returns ``(action, reason, applied_q)`` with ``applied_q`` None
        when the incumbent schedule is kept.
        """
        rt = self.runtime
        gain, candidate_q = retune.gain, retune.q
        if gain <= rt.gain_threshold:
            return (
                "kept",
                f"predicted gain {gain:+.3f} below threshold "
                f"{rt.gain_threshold:+.3f}",
                None,
            )
        candidate = self._build_candidate(candidate_q)
        plan = plan_update(campaign.current_schedule, candidate)
        if not plan.preserves_neighbor_superset:
            # Fixed-layout q-retunes never trip this; it guards against
            # a candidate that would need new NIC queue state mid-run.
            return ("kept", f"candidate not drain-free: {plan.summary()}", None)
        record = campaign.maybe_apply(epoch, candidate)
        if record is None:
            return (
                "held",
                f"dwell window ({rt.min_dwell_epochs} epochs) rate-limited "
                f"a q={candidate_q:.3g} retune",
                None,
            )
        session.swap_schedule(candidate)
        return (
            "retuned",
            f"q {current_q:.3g} -> {candidate_q:.3g} for locality "
            f"{retune.locality:.3f} (predicted gain {gain:+.3f}; "
            f"{plan.summary()})",
            candidate_q,
        )

    def _final_report(
        self,
        epoch: int,
        start_slot: int,
        cp: SegmentCheckpoint,
        prev_cp: SegmentCheckpoint,
        state: str,
        current_q: Optional[float],
    ) -> EpochReport:
        return EpochReport(
            epoch=epoch,
            start_slot=start_slot,
            end_slot=cp.slot,
            state=state,
            action="final",
            reason="arrival horizon reached",
            succeeded=True,
            planner_attempts=0,
            backoff_slots=0,
            locality=None,
            q=current_q,
            injected_cells=cp.injected_cells - prev_cp.injected_cells,
            delivered_cells=cp.delivered_cells - prev_cp.delivered_cells,
            in_flight_cells=cp.in_flight_cells,
        )

    @staticmethod
    def _emit(emit_epoch, record: EpochReport) -> None:
        emit_epoch(
            record.epoch,
            record.end_slot,
            record.state,
            record.action,
            record.reason,
            record.locality,
            record.q,
        )
