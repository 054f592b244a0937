"""Executing synchronized schedule updates against node state.

The deployment model (paper section 5): a logically centralized control
plane pushes new per-node schedule tables and all nodes switch at an
agreed epoch boundary — feasible within seconds with an Orion-style SDN
control plane, ample for updates happening every minutes-to-hours.

:func:`apply_synchronized_update` performs the switch against a fleet of
:class:`~repro.hardware.node.NodeState` objects and aggregates their
per-node reports; :class:`UpdateCampaign` manages a history of updates and
enforces a minimum dwell time between them (rate-limiting reconfiguration,
as operators do).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from ..errors import ControlPlaneError
from ..hardware.node import NodeState, ScheduleUpdateReport
from ..schedules.schedule import CircuitSchedule

__all__ = [
    "apply_synchronized_update",
    "UpdateCampaign",
    "CampaignRecord",
    "mixed_state_collision_fraction",
]


def build_node_states(schedule: CircuitSchedule) -> List[NodeState]:
    """Instantiate per-node NIC state for every node of a schedule."""
    return [
        NodeState(node, schedule.cached_node_row(node))
        for node in range(schedule.num_nodes)
    ]


def apply_synchronized_update(
    nodes: Sequence[NodeState], new_schedule: CircuitSchedule
) -> Dict[int, ScheduleUpdateReport]:
    """Atomically install *new_schedule*'s rows on every node.

    Returns the per-node reports; raises if the fleet size disagrees with
    the schedule (a malformed campaign must not partially apply).
    """
    if len(nodes) != new_schedule.num_nodes:
        raise ControlPlaneError(
            f"fleet has {len(nodes)} nodes, schedule covers "
            f"{new_schedule.num_nodes}"
        )
    rows = [new_schedule.cached_node_row(node.node_id) for node in nodes]
    reports: Dict[int, ScheduleUpdateReport] = {}
    for node, row in zip(nodes, rows):
        reports[node.node_id] = node.apply_schedule_update(row)
    return reports


def mixed_state_collision_fraction(
    old: CircuitSchedule,
    new: CircuitSchedule,
    switched_nodes: Sequence[int],
) -> float:
    """Fraction of circuits lost while an update is only partially applied.

    In the AWGR realization circuits are *sender-driven*: a transmitter
    retunes its laser and the grating passively delivers.  If some nodes
    have switched to the new schedule while others still follow the old
    one, two senders can land on the same output port in the same slot —
    both circuits are lost.  This quantifies that transient: over one
    period (the schedules' periods must match, as they do for q-retunes
    on a fixed layout), the fraction of attempted circuits destroyed by
    output collisions.

    A zero result certifies the update could even be applied lazily; a
    large one is why the control plane synchronizes the switch-over
    behind a barrier (paper section 5, citing Orion-style control planes).
    """
    if old.num_nodes != new.num_nodes:
        raise ControlPlaneError("schedules cover different node counts")
    if old.period != new.period:
        raise ControlPlaneError(
            "mixed-state analysis needs equal periods (rebase or pad first)"
        )
    switched = set(int(v) for v in switched_nodes)
    bad = [v for v in switched if not 0 <= v < old.num_nodes]
    if bad:
        raise ControlPlaneError(f"switched nodes out of range: {bad}")
    attempted = 0
    delivered = 0
    for slot in range(old.period):
        old_m = old.matching(slot)
        new_m = new.matching(slot)
        claims: Dict[int, int] = {}
        for src in range(old.num_nodes):
            dst = (new_m if src in switched else old_m).destination(src)
            if dst < 0:
                continue
            attempted += 1
            claims[dst] = claims.get(dst, 0) + 1
        delivered += sum(1 for count in claims.values() if count == 1)
    if attempted == 0:
        return 0.0
    return 1.0 - delivered / attempted


@dataclasses.dataclass(frozen=True)
class CampaignRecord:
    """One executed update: when, and how disruptive it was."""

    epoch: int
    stranded_cells: int
    nodes_with_new_state: int

    @property
    def was_clean(self) -> bool:
        return self.stranded_cells == 0 and self.nodes_with_new_state == 0


class UpdateCampaign:
    """Stateful update executor with a minimum dwell between updates.

    Parameters
    ----------
    schedule:
        Initial schedule; node state is instantiated from it.
    min_dwell_epochs:
        Updates requested sooner than this after the previous one are
        rejected (returns None), modeling operator rate limits.
    """

    def __init__(self, schedule: CircuitSchedule, min_dwell_epochs: int = 1):
        if min_dwell_epochs < 1:
            raise ControlPlaneError("min_dwell_epochs must be >= 1")
        self.nodes = build_node_states(schedule)
        self.min_dwell_epochs = int(min_dwell_epochs)
        self.current_schedule = schedule
        self.history: List[CampaignRecord] = []
        self._last_epoch: Optional[int] = None
        self._last_requested: Optional[int] = None

    def _check_epoch(self, epoch: int) -> int:
        """Epochs are a clock: requests must be non-negative and strictly
        increasing across :meth:`maybe_apply` and :meth:`force_update`."""
        epoch = int(epoch)
        if epoch < 0:
            raise ControlPlaneError(
                f"update epoch must be non-negative, got {epoch}"
            )
        if self._last_requested is not None and epoch <= self._last_requested:
            raise ControlPlaneError(
                f"update epochs must be strictly increasing: got epoch "
                f"{epoch} after epoch {self._last_requested}"
            )
        self._last_requested = epoch
        return epoch

    def _apply(self, epoch: int, new_schedule: CircuitSchedule) -> CampaignRecord:
        reports = apply_synchronized_update(self.nodes, new_schedule)
        record = CampaignRecord(
            epoch=epoch,
            stranded_cells=sum(r.stranded_cells for r in reports.values()),
            nodes_with_new_state=sum(
                1 for r in reports.values() if not r.preserves_neighbor_superset
            ),
        )
        self.history.append(record)
        self.current_schedule = new_schedule
        self._last_epoch = epoch
        return record

    def maybe_apply(
        self, epoch: int, new_schedule: CircuitSchedule
    ) -> Optional[CampaignRecord]:
        """Apply an update at *epoch* unless within the dwell window.

        The dwell boundary is inclusive of the reconfiguration epoch:
        with ``min_dwell_epochs = d`` and the previous update at epoch
        ``e``, the first accepted epoch is exactly ``e + d`` (requests at
        ``e + d - 1`` return None).  Raises
        :class:`repro.errors.ControlPlaneError` for negative or
        non-monotonic epochs.
        """
        epoch = self._check_epoch(epoch)
        if (
            self._last_epoch is not None
            and epoch - self._last_epoch < self.min_dwell_epochs
        ):
            return None
        return self._apply(epoch, new_schedule)

    def force_update(self, epoch: int, new_schedule: CircuitSchedule) -> CampaignRecord:
        """Apply an update at *epoch* regardless of the dwell window.

        The safety-engagement entry point: engaging the oblivious
        fallback (or recovering from it) must not be rate-limited by the
        operator dwell policy.  Epoch validation still applies.
        """
        epoch = self._check_epoch(epoch)
        return self._apply(epoch, new_schedule)

    @property
    def updates_applied(self) -> int:
        return len(self.history)
