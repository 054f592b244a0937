"""The slot-synchronous flow-level simulator.

Each slot, every plane of the circuit schedule activates one matching;
each active circuit (u, v) carries one cell from u's VOQ toward v — the
slot the paper counts delta_m and throughput in.  Every flow injects
whole at its arrival slot, and each of its cells carries its own source
route sampled from the router's oblivious path distribution (per-cell
VLB).  Delivered cells feed flow-completion accounting.

The engine is deliberately simple and exact: no events, no approximations,
one pass per slot.  It is the substrate for the Fig 2f "simulation of 128
nodes and 8 cliques using real-world traffic" and the FCT benchmarks.

This module holds the *reference* implementation — the object-level loop
every other engine is judged against.  ``SimConfig(engine="vectorized")``
dispatches :meth:`SlotSimulator.run` to the array fast path in
:mod:`repro.sim.vectorized`, which reproduces this loop's results exactly
(per-seed, per-slot) at a fraction of the wall-clock cost.

Runs are *resumable*: :meth:`SlotSimulator.start` returns a
:class:`SimSession` that advances the clock in segments
(:meth:`SimSession.run_segment`), carrying all VOQ contents and in-flight
cells across segment boundaries, and accepts a schedule swap between
segments (:meth:`SimSession.swap_schedule`) — the substrate of the
closed-loop adaptation runtime in :mod:`repro.control.runtime`.
:meth:`SlotSimulator.run` is exactly ``start(...)`` followed by
``finish()``, so a monolithic run and any segmentation of it produce
identical results in both engines.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Dict, List, Optional

from ..errors import CheckpointError, SimulationError
from ..routing.base import Router
from ..schedules.schedule import CircuitSchedule
from ..traffic.workload import FlowsLike, FlowTable
from ..util import check_positive_int, ensure_rng, RngLike
from .failures import FailureTimeline
from .flows import Cell, FlowState
from .metrics import SimReport
from .network import SimNetwork
from .telemetry import TelemetryHub

__all__ = ["SegmentCheckpoint", "SimConfig", "SimSession", "SlotSimulator"]


@dataclasses.dataclass(frozen=True)
class SegmentCheckpoint:
    """Engine-agnostic accounting snapshot at a segment boundary.

    Both engines report the same five integers from the same intra-run
    position (after the last executed slot), so a reference and a
    vectorized run of the same seeded workload produce *equal* checkpoint
    sequences under any segmentation — the per-epoch comparison basis of
    the chaos harness.
    """

    slot: int
    injected_cells: int
    delivered_cells: int
    in_flight_cells: int
    max_voq: int
    window_delivered: int

    def __post_init__(self) -> None:
        if self.injected_cells - self.delivered_cells != self.in_flight_cells:
            raise SimulationError(
                f"checkpoint at slot {self.slot} violates conservation: "
                f"injected {self.injected_cells}, delivered "
                f"{self.delivered_cells}, in flight {self.in_flight_cells}"
            )


class SimSession:
    """A resumable simulator run (shared engine-session machinery).

    Obtained from :meth:`SlotSimulator.start`; never constructed
    directly.  The session owns the full mid-run state — VOQ contents,
    in-flight cells, per-flow ledgers, RNG position, telemetry and
    invariant-checker hookups — so execution can pause at any main-phase
    slot boundary and resume later, optionally under a *different*
    schedule (:meth:`swap_schedule`).  Subclasses implement the actual
    slot loop (:meth:`_advance`), the report (:meth:`_build_report`),
    the demand census (:meth:`demand_snapshot`) and the schedule
    installation hook (:meth:`_install_schedule`).
    """

    #: Set by subclass __init__.
    slot: int
    duration_slots: int
    measure_from: int
    horizon: int
    schedule: CircuitSchedule
    #: Engine tag recorded in durable checkpoints ("reference"/"vectorized").
    _engine_name: str = ""

    def _advance(self, stop: Optional[int]) -> None:
        raise NotImplementedError

    def _build_report(self) -> SimReport:
        raise NotImplementedError

    def _install_schedule(self, new_schedule: CircuitSchedule) -> None:
        raise NotImplementedError

    def _session_rng(self):
        """The RNG stream this session consumes (engine-specific home)."""
        raise NotImplementedError

    def _state_payload(self) -> dict:
        """Engine-specific dynamic state for a durable checkpoint."""
        raise NotImplementedError

    def _restore_state(self, state: dict) -> None:
        """Inverse of :meth:`_state_payload` on a freshly started session."""
        raise NotImplementedError

    def demand_snapshot(self):
        """Cumulative injected cells per (src, dst) pair as an (N, N)
        array — the measured demand signal a control plane may read at a
        segment boundary.  Identical across engines at equal slots."""
        raise NotImplementedError

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has produced the final report."""
        return self._report is not None

    @property
    def main_phase_done(self) -> bool:
        """Whether the arrival horizon has been reached (drain may remain)."""
        return self.slot >= self.duration_slots

    def run_segment(self, slots: Optional[int] = None) -> "SegmentCheckpoint":
        """Advance up to *slots* main-phase slots (default: to the
        horizon) and return the boundary :class:`SegmentCheckpoint`.

        Segments subdivide only the main phase ``[0, duration_slots)``;
        the drain phase, if configured, runs inside :meth:`finish`.
        """
        if self._report is not None:
            raise SimulationError("cannot run a segment on a finished run")
        if slots is None:
            stop = self.duration_slots
        else:
            slots = check_positive_int(slots, "slots")
            stop = min(self.slot + slots, self.duration_slots)
        self._advance(stop)
        return self.checkpoint()

    def checkpoint(self) -> "SegmentCheckpoint":
        """The accounting snapshot after the last executed slot."""
        return SegmentCheckpoint(
            slot=self.slot,
            injected_cells=self._injected,
            delivered_cells=self._delivered,
            in_flight_cells=self.network.total_occupancy,
            max_voq=self._max_voq,
            window_delivered=self._window_delivered,
        )

    def swap_schedule(self, new_schedule: CircuitSchedule) -> None:
        """Install *new_schedule* at the current slot boundary.

        All in-flight cells and VOQ contents survive the swap (the
        invariant checker, when enabled, asserts none are lost or
        duplicated).  The router — and therefore every already-sampled
        source route — is unchanged, so the swap is safe exactly when
        the new schedule still opens the circuits routes use; SORN
        q-retunes on a fixed layout and the uniform fallback schedule
        both qualify (see :mod:`repro.control.runtime`).
        """
        if self._report is not None:
            raise SimulationError("cannot swap schedule on a finished run")
        if new_schedule.num_nodes != self.schedule.num_nodes:
            raise SimulationError(
                f"new schedule covers {new_schedule.num_nodes} nodes, "
                f"run has {self.schedule.num_nodes}"
            )
        if self._timeline is not None:
            self._timeline.bind(new_schedule)
        if self._checker is not None:
            self._checker.record_schedule_swap(
                self.slot,
                new_schedule,
                self.network,
                self._injected,
                self._delivered,
            )
        self._install_schedule(new_schedule)

    def finish(self) -> SimReport:
        """Run all remaining slots (including drain) and build the final
        :class:`SimReport`.  Idempotent: later calls return the cached
        report."""
        if self._report is None:
            self._advance(None)
            if self._hub is not None:
                self._hub.finalize(self.horizon)
            self._report = self._build_report()
        return self._report

    # -- durable checkpoints ---------------------------------------------------

    def save(self, path: str) -> None:
        """Write a durable checkpoint of the paused session to *path*.

        Call at a segment boundary (anywhere :meth:`run_segment` can
        pause).  A run killed after the save and resumed through
        :meth:`SlotSimulator.resume` — on a simulator built from the
        same schedule (the one live *now*, after any mid-run swaps),
        router, config, RNG-seeded stream and timeline, with the same
        workload — finishes with byte-identical reports, traces and
        telemetry to the uninterrupted run.  The write is atomic and the
        file carries a schema version and content checksum (see
        :mod:`repro.sim.checkpoint`).
        """
        from .checkpoint import (
            config_digest,
            flows_digest,
            schedule_fingerprint,
            write_checkpoint,
        )

        if self._report is not None:
            raise CheckpointError(
                "cannot checkpoint a finished run — save at a segment "
                "boundary before finish()"
            )
        rng = self._session_rng()
        payload = {
            "engine": self._engine_name,
            "duration_slots": self.duration_slots,
            "measure_from": self.measure_from,
            "slot": self.slot,
            "horizon": self.horizon,
            "done": self._done,
            "config_digest": config_digest(self.config),
            "flows_digest": flows_digest(self._flows),
            "schedule": schedule_fingerprint(self.schedule),
            "rng_state": rng.bit_generator.state,
            "counters": {
                "occupancy_sum": self._occupancy_sum,
                "max_voq": self._max_voq,
                "window_delivered": self._window_delivered,
                "delivered": self._delivered,
                "injected": self._injected,
            },
            "state": self._state_payload(),
            "telemetry": self._hub.state_dict() if self._hub is not None else None,
            "checker": (
                self._checker.state_dict() if self._checker is not None else None
            ),
        }
        write_checkpoint(path, payload)

    def _restore(self, payload: dict, path: str) -> None:
        """Apply a validated checkpoint payload to this freshly started
        session (the :meth:`SlotSimulator.resume` back half)."""
        from .checkpoint import config_digest, flows_digest, schedule_fingerprint

        if payload.get("engine") != self._engine_name:
            raise CheckpointError(
                f"checkpoint {path!r} was saved by the "
                f"{payload.get('engine')!r} engine; this simulator runs "
                f"{self._engine_name!r}"
            )
        if payload.get("config_digest") != config_digest(self.config):
            raise CheckpointError(
                f"checkpoint {path!r} was saved under a different SimConfig; "
                f"resume with the identical configuration"
            )
        if payload.get("flows_digest") != flows_digest(self._flows):
            raise CheckpointError(
                f"checkpoint {path!r} was saved under a different workload; "
                f"resume with the identical flow list"
            )
        if payload.get("schedule") != schedule_fingerprint(self.schedule):
            raise CheckpointError(
                f"checkpoint {path!r} was saved under a different schedule; "
                f"resume on the schedule that was live at save time "
                f"(after any mid-run swaps)"
            )
        rng = self._session_rng()
        try:
            rng.bit_generator.state = payload["rng_state"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {path!r} carries an RNG state this build "
                f"cannot restore: {exc}"
            ) from exc
        try:
            counters = payload["counters"]
            self.slot = int(payload["slot"])
            self.horizon = int(payload["horizon"])
            self._done = bool(payload["done"])
            self._occupancy_sum = int(counters["occupancy_sum"])
            self._max_voq = int(counters["max_voq"])
            self._window_delivered = int(counters["window_delivered"])
            self._delivered = int(counters["delivered"])
            self._injected = int(counters["injected"])
            state = payload["state"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {path!r} payload is structurally invalid: {exc}"
            ) from exc
        self._restore_state(state)
        saved_telemetry = payload.get("telemetry")
        if saved_telemetry is not None:
            if self._hub is None:
                raise CheckpointError(
                    f"checkpoint {path!r} carries telemetry state but the "
                    f"resuming config has no active TelemetryHub"
                )
            self._hub.load_state(saved_telemetry)
        elif self._hub is not None:
            raise CheckpointError(
                f"the resuming config has a TelemetryHub but checkpoint "
                f"{path!r} carries no telemetry state"
            )
        saved_checker = payload.get("checker")
        if saved_checker is not None and self._checker is not None:
            self._checker.load_state(saved_checker)


@dataclasses.dataclass(frozen=True)
class SimConfig:
    """Tunable knobs of the simulator.

    A circuit carries one cell per slot and plane; that is the slot the
    paper counts delta_m and throughput in, so capacity is no knob.

    Attributes
    ----------
    drain:
        After the arrival horizon, keep running (up to ``max_drain_slots``)
        until the network is empty.
    max_drain_slots:
        Safety bound on the drain phase.
    short_flow_threshold_cells:
        When set, flows of at most this many cells get strict service
        priority over bulk flows in every VOQ (Opera-style latency class;
        see :func:`repro.sim.network.short_flow_priority_lane`).
    classify_fct_threshold_cells:
        Report-only class split: record short/bulk FCT populations at
        this threshold *without* changing queueing (defaults to
        ``short_flow_threshold_cells``).  Lets FIFO baselines report the
        same classes a prioritized run serves.
    engine:
        ``"reference"`` runs the exact object-level loop in this module;
        ``"vectorized"`` runs the array fast path
        (:class:`repro.sim.vectorized.VectorizedSession`), which produces
        identical results slot-for-slot (same RNG draws, same FIFO/lane
        order) at a fraction of the wall-clock cost.
    telemetry:
        Optional :class:`repro.sim.telemetry.TelemetryHub` — the one
        observer seam of both engines.  The engines feed the hub's
        collectors (a :class:`repro.sim.tracing.TraceRecorder` and the
        :class:`repro.sim.telemetry.PhaseProfiler` included) through
        the same events (circuit transmissions, cell deliveries,
        stride-sampled fabric state), so identical seeded runs emit
        bit-identical telemetry regardless of the engine.  Strictly
        read-only — cannot change results, nor the vectorized engine's
        slot spans.  ``None`` (the default) and empty hubs cost nothing
        in the slot loop.
    check_invariants:
        Run an :class:`repro.sim.invariants.InvariantChecker` inside the
        slot loop: cell conservation, VOQ non-negativity, circuit
        capacity, and the earliest-feasible delivery (delta_m) bound are
        validated every slot, raising
        :class:`repro.errors.InvariantViolation` on the first breach.
        Read-only — cannot change results, only abort bad ones.  Meant
        for tests and fuzzing; off by default for speed.
    """

    drain: bool = False
    max_drain_slots: int = 100_000
    short_flow_threshold_cells: Optional[int] = None
    classify_fct_threshold_cells: Optional[int] = None
    engine: str = "reference"
    check_invariants: bool = False
    telemetry: Optional["TelemetryHub"] = None

    def __post_init__(self) -> None:
        if self.engine not in ("reference", "vectorized"):
            raise SimulationError(
                f"engine must be 'reference' or 'vectorized', got {self.engine!r}"
            )
        if self.telemetry is not None and not isinstance(self.telemetry, TelemetryHub):
            raise SimulationError(
                f"telemetry must be a TelemetryHub or None, "
                f"got {type(self.telemetry).__name__}"
            )
        check_positive_int(self.max_drain_slots, "max_drain_slots")
        if self.short_flow_threshold_cells is not None:
            check_positive_int(
                self.short_flow_threshold_cells, "short_flow_threshold_cells"
            )
        if self.classify_fct_threshold_cells is not None:
            check_positive_int(
                self.classify_fct_threshold_cells, "classify_fct_threshold_cells"
            )

    @property
    def report_threshold_cells(self) -> int:
        """Threshold used for report-side class splitting (0 = off)."""
        if self.classify_fct_threshold_cells is not None:
            return self.classify_fct_threshold_cells
        return self.short_flow_threshold_cells or 0


#: Process-wide profiler attached to every in-process simulation while a
#: :func:`profiled_runs` context is active (CLI ``--profile`` plumbing).
_PROFILE_SINK = None


@contextlib.contextmanager
def profiled_runs(profiler):
    """Attach *profiler* to every simulation constructed in this process
    while the context is active.

    Simulators whose config carries no telemetry hub get a fresh hub
    holding only *profiler*; hubs without a registered
    :class:`repro.sim.telemetry.PhaseProfiler` get *profiler* registered
    into them; hubs that already profile are left alone.  The profiler
    accumulates across every run inside the context, so one sink
    captures a whole multi-point CLI invocation.  Results stay
    bit-identical — the profiler is excluded from telemetry snapshots
    and report state — and the profiled run takes the same code path,
    slot spans included, as an unprofiled one.  Contexts nest; each
    restores the previous sink on exit.
    """
    global _PROFILE_SINK
    previous = _PROFILE_SINK
    _PROFILE_SINK = profiler
    try:
        yield profiler
    finally:
        _PROFILE_SINK = previous


def _profiled_config(config: "SimConfig", profiler) -> "SimConfig":
    """*config* with *profiler* attached (see :func:`profiled_runs`)."""
    hub = config.telemetry
    if hub is None:
        return dataclasses.replace(config, telemetry=TelemetryHub([profiler]))
    if hub.profiler is None:
        hub.register(profiler)
    return config


class SlotSimulator:
    """Simulate a schedule + router combination under a flow workload.

    Parameters
    ----------
    schedule, router, config, rng:
        The simulated fabric, routing scheme, tunables and RNG stream.
    timeline:
        Optional :class:`repro.sim.failures.FailureTimeline` of scripted
        faults (nodes, links, planes failing and healing at configured
        slots).  Both engines mask the affected circuits out of the
        schedule at exactly the affected slots, so failure runs remain
        bit-identical across engines.
    """

    def __init__(
        self,
        schedule: CircuitSchedule,
        router: Router,
        config: Optional[SimConfig] = None,
        rng: RngLike = None,
        timeline: Optional[FailureTimeline] = None,
    ):
        if router.num_nodes != schedule.num_nodes:
            raise SimulationError(
                f"router covers {router.num_nodes} nodes, schedule "
                f"{schedule.num_nodes}"
            )
        self.schedule = schedule
        self.router = router
        self.config = config or SimConfig()
        if _PROFILE_SINK is not None:
            self.config = _profiled_config(self.config, _PROFILE_SINK)
        self.rng = ensure_rng(rng)
        if timeline is not None and len(timeline) == 0:
            timeline = None
        self.timeline = timeline
        if timeline is not None:
            timeline.bind(schedule)

    # -- injection ------------------------------------------------------------

    def _inject_cells(self, flow: FlowState, network: SimNetwork, slot: int) -> int:
        """Inject every cell of *flow* at its source, each on its own
        sampled path; returns the number injected."""
        spec = flow.spec
        for _ in range(spec.size_cells):
            path = self.router.path(spec.src, spec.dst, self.rng).nodes
            network.enqueue(Cell(flow=flow, path=path, hop=0, injected_slot=slot))
        flow.injected_cells = spec.size_cells
        return spec.size_cells

    # -- main loop --------------------------------------------------------------

    def start(
        self,
        flows: FlowsLike,
        duration_slots: int,
        measure_from: int = 0,
    ) -> SimSession:
        """Begin a resumable run; returns the engine's :class:`SimSession`.

        The session starts at slot 0 with nothing executed — drive it
        with :meth:`SimSession.run_segment` /
        :meth:`SimSession.finish`.  Argument semantics match
        :meth:`run`; this is where a ``FlowSpec`` sequence becomes the
        :class:`~repro.traffic.FlowTable` both engines read.
        """
        duration_slots = check_positive_int(duration_slots, "duration_slots")
        if not 0 <= measure_from < duration_slots:
            raise SimulationError("measure_from must be within the horizon")
        flows = FlowTable.of(flows)
        if self.config.engine == "vectorized":
            from .vectorized import VectorizedSession

            return VectorizedSession(self, flows, duration_slots, measure_from)
        return ReferenceSession(self, flows, duration_slots, measure_from)

    def resume(
        self,
        path: str,
        flows: FlowsLike,
    ) -> SimSession:
        """Rebuild a paused session from the durable checkpoint at *path*.

        The simulator must be constructed with the schedule that was
        live when the checkpoint was taken (after any mid-run swaps),
        the same router, config and timeline, and *flows* must be the
        identical workload; mismatches are rejected with a precise
        :class:`~repro.errors.CheckpointError`, as are missing,
        truncated, corrupt, or schema-incompatible files — a bad
        checkpoint is never silently re-run from slot 0.  Telemetry
        collectors (a registered :class:`~repro.sim.tracing.TraceRecorder`
        included) are restored into the config's hub, which must carry
        the saving hub's collector set.  The construction-time RNG seed is
        irrelevant: the checkpointed RNG state (and every presampled
        route) is restored verbatim, so the resumed run finishes
        byte-identical to the uninterrupted one.
        """
        from .checkpoint import read_checkpoint

        payload = read_checkpoint(path)
        try:
            duration_slots = int(payload["duration_slots"])
            measure_from = int(payload["measure_from"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {path!r} payload is missing its run geometry: "
                f"{exc}"
            ) from exc
        session = self.start(flows, duration_slots, measure_from)
        session._restore(payload, path)
        return session

    def run(
        self,
        flows: FlowsLike,
        duration_slots: int,
        measure_from: int = 0,
    ) -> SimReport:
        """Run the workload for *duration_slots* (plus optional drain).

        ``measure_from`` opens a measurement window: deliveries at slots
        >= measure_from are counted separately (see
        :attr:`SimReport.window_throughput`), excluding the warmup ramp.
        To trace the run, register a
        :class:`repro.sim.tracing.TraceRecorder` in the config's
        telemetry hub.

        Exactly equivalent to ``start(...)`` followed by ``finish()``.
        """
        return self.start(flows, duration_slots, measure_from).finish()

    def measure_saturation_throughput(
        self,
        flows: FlowsLike,
        duration_slots: int,
        warmup_fraction: float = 0.25,
    ) -> float:
        """Throughput of an (over)loaded run, excluding the warmup ramp.

        Runs without drain and reports delivered cells per node per slot
        over the post-warmup window — the simulation methodology behind
        the Fig 2f measured points.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise SimulationError("warmup_fraction must be in [0, 1)")
        warmup = int(duration_slots * warmup_fraction)
        report = self.run(flows, duration_slots, measure_from=warmup)
        return report.window_throughput


class ReferenceSession(SimSession):
    """The reference engine's resumable run state.

    The slot loop is the exact loop the monolithic ``run`` used to
    inline; pausing happens only at slot boundaries, so any segmentation
    replays the identical event sequence (same RNG draws, same FIFO
    order, same telemetry stream).
    """

    _engine_name = "reference"

    def __init__(
        self,
        sim: SlotSimulator,
        flows: FlowTable,
        duration_slots: int,
        measure_from: int,
    ):
        config = sim.config
        self._sim = sim
        self.config = config
        self.schedule = sim.schedule
        self.duration_slots = duration_slots
        self.measure_from = measure_from
        self.horizon = duration_slots
        self.slot = 0
        self._done = False
        self._report: Optional[SimReport] = None
        self._timeline = sim.timeline
        checker = None
        if config.check_invariants:
            from .invariants import InvariantChecker

            checker = InvariantChecker(self.schedule, sim.timeline)
        self._checker = checker
        hub = config.telemetry
        if hub is not None and hub.is_noop:
            hub = None
        self._hub = hub
        # Bound-method locals: one attribute lookup per run, not per event.
        self._rec_tx = (
            hub.record_transmit if hub is not None and hub.wants_transmits else None
        )
        self._rec_del = (
            hub.record_delivery_hops
            if hub is not None and hub.wants_deliveries
            else None
        )
        self._rec_sample = (
            hub.sample if hub is not None and hub.wants_samples else None
        )
        self._prof = hub.profiler if hub is not None else None
        if config.short_flow_threshold_cells is not None:
            from .network import short_flow_priority_lane

            self.network = SimNetwork(
                self.schedule.num_nodes,
                num_lanes=4,
                lane_of=short_flow_priority_lane(config.short_flow_threshold_cells),
            )
        else:
            self.network = SimNetwork(self.schedule.num_nodes)
        self._flows = flows
        self._states: Dict[int, FlowState] = {
            spec.flow_id: FlowState(spec=spec) for spec in flows
        }
        self._arrivals: Dict[int, List[FlowState]] = {}
        for state in self._states.values():
            self._arrivals.setdefault(state.spec.arrival_slot, []).append(state)
        self._occupancy_sum = 0
        self._max_voq = 0
        self._window_delivered = 0
        self._delivered = 0
        self._injected = 0

    def _install_schedule(self, new_schedule: CircuitSchedule) -> None:
        self.schedule = new_schedule

    def _session_rng(self):
        return self._sim.rng

    def _state_payload(self) -> dict:
        # Flow ledgers in spec order and every queued cell in the
        # deterministic (node, neighbor, lane, FIFO) order — restoring in
        # the same order reproduces the deque contents exactly, so the
        # resumed drain pops the identical cells.
        flow_rows = [
            [
                state.spec.flow_id,
                state.injected_cells,
                state.delivered_cells,
                state.first_delivery_slot,
                state.completion_slot,
                state.total_hop_count,
            ]
            for state in self._states.values()
        ]
        voq_cells = [
            [
                node,
                neighbor,
                lane,
                cell.flow.spec.flow_id,
                list(cell.path),
                cell.hop,
                cell.injected_slot,
            ]
            for node, neighbor, lane, cell in self.network.iter_voq_cells()
        ]
        return {
            "flows": flow_rows,
            "voq_cells": voq_cells,
        }

    def _restore_state(self, state: dict) -> None:
        states = self._states
        try:
            for fid, injected, delivered, first, completion, hoptot in state[
                "flows"
            ]:
                flow = states.get(fid)
                if flow is None:
                    raise CheckpointError(
                        f"checkpoint names unknown flow id {fid!r}"
                    )
                flow.injected_cells = int(injected)
                flow.delivered_cells = int(delivered)
                flow.first_delivery_slot = None if first is None else int(first)
                flow.completion_slot = (
                    None if completion is None else int(completion)
                )
                flow.total_hop_count = int(hoptot)
            for node, neighbor, lane, fid, path, hop, injected_slot in state[
                "voq_cells"
            ]:
                flow = states.get(fid)
                if flow is None:
                    raise CheckpointError(
                        f"checkpointed cell belongs to unknown flow id {fid!r}"
                    )
                cell = Cell(
                    flow=flow,
                    path=tuple(path),
                    hop=int(hop),
                    injected_slot=int(injected_slot),
                )
                self.network.restore_cell(int(node), int(neighbor), int(lane), cell)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"reference-engine checkpoint state is structurally "
                f"invalid: {exc}"
            ) from exc

    def demand_snapshot(self):
        import numpy as np

        n = self.schedule.num_nodes
        demand = np.zeros((n, n), dtype=np.int64)
        for state in self._states.values():
            if state.injected_cells:
                demand[state.spec.src, state.spec.dst] += state.injected_cells
        return demand

    def _advance(self, stop: Optional[int]) -> None:
        if self._done:
            return
        config = self.config
        schedule = self.schedule
        network = self.network
        arrivals = self._arrivals
        timeline = self._timeline
        checker = self._checker
        rec_tx = self._rec_tx
        rec_del = self._rec_del
        rec_sample = self._rec_sample
        prof = self._prof
        if prof is not None:
            from time import perf_counter
        inject_cells = self._sim._inject_cells
        duration_slots = self.duration_slots
        measure_from = self.measure_from
        occupancy_sum = self._occupancy_sum
        max_voq = self._max_voq
        window_delivered = self._window_delivered
        delivered_running = self._delivered
        injected_running = self._injected
        slot = self.slot

        try:
            while stop is None or slot < stop:
                if prof is not None:
                    lap = perf_counter()
                if slot < duration_slots:
                    for flow in arrivals.get(slot, ()):  # new arrivals
                        injected_running += inject_cells(flow, network, slot)
                if prof is not None:
                    lap = prof.lap("inject", lap)

                # One matching per plane; each circuit pops one cell.
                for plane in range(schedule.num_planes):
                    matching = schedule.plane_matching(slot, plane)
                    if timeline is not None and timeline.affects(slot):
                        matching = timeline.mask_matching(matching, slot, plane)
                    for src, dst in matching.pairs():
                        cell = network.pop(src, dst)
                        if cell is None:
                            continue
                        if checker is not None:
                            checker.record_transmit(slot, plane, src, dst, 1)
                        if rec_tx is not None:
                            rec_tx(slot, plane, src, dst, 1)
                        if cell.at_last_hop:
                            hops = len(cell.path) - 1
                            cell.flow.record_delivery(slot, hops)
                            delivered_running += 1
                            if slot >= measure_from:
                                window_delivered += 1
                            if checker is not None:
                                checker.record_delivery(
                                    slot, cell.injected_slot, cell.path
                                )
                            if rec_del is not None:
                                rec_del(slot, cell.injected_slot, hops)
                        else:
                            cell.advance()
                            network.enqueue(cell)
                if prof is not None:
                    lap = prof.lap("forward", lap)

                if checker is not None:
                    checker.end_slot(
                        slot, network, injected_running, delivered_running
                    )
                occupancy_sum += network.total_occupancy
                voq = network.max_voq_length()
                if voq > max_voq:
                    max_voq = voq
                if rec_sample is not None:
                    rec_sample(slot, network, delivered_running)
                if prof is not None:
                    prof.lap("stats", lap)

                slot += 1
                if slot >= duration_slots:
                    if not (config.drain and network.total_occupancy > 0):
                        self.horizon = slot
                        self._done = True
                        break
                    if slot >= duration_slots + config.max_drain_slots:
                        self.horizon = slot
                        self._done = True
                        break
        finally:
            self._occupancy_sum = occupancy_sum
            self._max_voq = max_voq
            self._window_delivered = window_delivered
            self._delivered = delivered_running
            self._injected = injected_running
            self.slot = slot

    def _build_report(self) -> SimReport:
        horizon = self.horizon
        return SimReport.from_flows(
            self._states,
            num_nodes=self.schedule.num_nodes,
            duration_slots=horizon,
            max_voq=self._max_voq,
            mean_occupancy=self._occupancy_sum / horizon if horizon else 0.0,
            window_start=self.measure_from,
            window_delivered=self._window_delivered,
            short_threshold_cells=self.config.report_threshold_cells,
        )
