"""Machine-checked runtime invariants for the slot simulator engines.

With two engines shipping (the object-level reference loop and the array
fast path), correctness rests on more than a curated differential test
list: :class:`InvariantChecker` is a debug layer either engine can run
*inside* the slot loop, validating every slot that the simulated fabric
still obeys physics:

- **Cell conservation** — cells injected so far equal cells delivered
  plus cells sitting in VOQs; nothing is duplicated or silently dropped.
- **VOQ non-negativity / counter consistency** — read through the
  accessors both VOQ fabrics share (``min_voq_length``, ``backlogs``):
  no per-VOQ counter goes negative and the per-node backlogs sum to the
  running fabric total (the vectorized engine's per-neighbor counters
  and the reference engine's deque census alike).
- **Circuit capacity** — no circuit transmits more than one cell in
  one plane activation, and every transmission rides a circuit the
  (failure-masked) schedule actually opened that slot.
- **Earliest-feasible delivery (the delta_m bound)** — a delivered cell
  cannot arrive before the chain of circuits its source route needs has
  opened.  Folding :meth:`next feasible slot <_next_up_slot>` over the
  route from the injection slot yields the per-cell intrinsic-latency
  lower bound whose worst case over pairs is the paper's analytical
  delta_m; observed delivery at an earlier slot means an engine forwarded
  a cell over a circuit that was not up.  Failure timelines only *remove*
  circuits, so the healthy-schedule bound stays valid during faults.

The checker is strictly read-only: it never touches the RNG or any
engine state, so enabling it (``SimConfig(check_invariants=True)``)
cannot change simulation results — only abort them with
:class:`repro.errors.InvariantViolation` when an engine misbehaves.
Every fuzz run of the differential harness keeps it enabled.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import InvariantViolation
from ..schedules.schedule import CircuitSchedule

__all__ = ["InvariantChecker"]


class InvariantChecker:
    """Validates per-slot engine behavior against the schedule's physics.

    Parameters
    ----------
    schedule:
        The (healthy) circuit schedule the run uses.
    timeline:
        The active :class:`repro.sim.failures.FailureTimeline`, if any —
        needed to validate transmissions against the *masked* schedule.
    """

    def __init__(self, schedule: CircuitSchedule, timeline=None):
        self.schedule = schedule
        self.timeline = timeline
        self.checks_run = 0
        self._row_key: Optional[Tuple[int, int]] = None
        self._row: Optional[np.ndarray] = None
        # Per-(src, dst) sorted slot indices (one period, all planes
        # unioned) at which the circuit is up; memoized lazily.
        self._up_slots: Dict[Tuple[int, int], np.ndarray] = {}
        # First slot governed by the most recent mid-run schedule swap
        # (None = the run never swapped).  Cells injected earlier crossed
        # a schedule change, so their delta_m bound — computed against a
        # single schedule — is not applicable to them.
        self._swap_slot: Optional[int] = None

    def _fail(self, message: str) -> None:
        raise InvariantViolation(message)

    # -- durable checkpoints ---------------------------------------------------

    def state_dict(self) -> dict:
        """The checker's persistent state for durable checkpoints.

        Only ``checks_run`` and the last swap slot matter; the row /
        up-slot memos are lazy caches rebuilt on demand from the
        schedule the resumed session installs.
        """
        return {"checks_run": self.checks_run, "swap_slot": self._swap_slot}

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.checks_run = int(state["checks_run"])
        swap = state["swap_slot"]
        self._swap_slot = None if swap is None else int(swap)
        self._row_key = None
        self._row = None
        self._up_slots.clear()

    # -- circuit capacity ------------------------------------------------------

    def _effective_row(self, slot: int, plane: int) -> np.ndarray:
        """The masked destination row for (*slot*, *plane*), cached for
        the current (slot, plane) since engines drain planes in order."""
        key = (slot, plane)
        if self._row_key != key:
            bank, index = self.schedule.compiled()
            row = bank[index[slot % self.schedule.period, plane]]
            if self.timeline is not None:
                row = self.timeline.mask_dst_row(row, slot, plane)
            self._row_key = key
            self._row = row
        return self._row

    def record_transmit(
        self, slot: int, plane: int, src: int, dst: int, count: int
    ) -> None:
        """Validate one circuit's transmissions this plane activation."""
        self.checks_run += 1
        if count > 1:
            self._fail(
                f"slot {slot} plane {plane}: circuit {src}->{dst} transmitted "
                f"{count} cells, capacity 1"
            )
        row = self._effective_row(slot, plane)
        if row[src] != dst:
            self._fail(
                f"slot {slot} plane {plane}: transmitted over {src}->{dst} but "
                f"the schedule connects {src}->{int(row[src])}"
            )

    # -- delivery latency ------------------------------------------------------

    def _circuit_up_slots(self, u: int, v: int) -> np.ndarray:
        """Sorted period-slot indices where u->v is up on *any* plane.

        Read from the schedule's compiled bank and index rather than
        shifting base-plane slots by plane offsets, so schedules whose
        planes are not offset copies (expander rotors, mixed pools) are
        checked against what the planes actually connect.
        """
        key = (u, v)
        slots = self._up_slots.get(key)
        if slots is None:
            slots = self.schedule.circuit_up_slots(u, v)
            self._up_slots[key] = slots
        return slots

    def _next_up_slot(self, start: int, u: int, v: int) -> int:
        """First absolute slot >= *start* with u->v up on some plane."""
        slots = self._circuit_up_slots(u, v)
        if slots.size == 0:
            self._fail(
                f"cell traversed circuit {u}->{v}, which the schedule "
                f"never opens"
            )
        period = self.schedule.period
        base = start % period
        idx = int(np.searchsorted(slots, base))
        if idx < slots.size:
            return start + int(slots[idx]) - base
        return start + period - base + int(slots[0])

    def record_delivery(
        self, slot: int, injected_slot: int, path: Sequence[int]
    ) -> None:
        """Validate one delivered cell against its intrinsic-latency bound."""
        self.checks_run += 1
        if slot < injected_slot:
            self._fail(
                f"cell delivered at slot {slot} before its injection at "
                f"slot {injected_slot}"
            )
        if self._swap_slot is not None and injected_slot < self._swap_slot:
            # The cell crossed a schedule swap; a single-schedule
            # earliest-feasible chain does not bound it.  Causality
            # (checked above) and conservation still apply.
            return
        earliest = injected_slot
        for u, v in zip(path, path[1:]):
            # Same-slot multi-hop cascades are legal (a later circuit of
            # the same plane matching can drain a just-forwarded cell),
            # so each hop's earliest slot may equal the previous hop's.
            earliest = self._next_up_slot(earliest, int(u), int(v))
        if slot < earliest:
            self._fail(
                f"cell on route {tuple(path)} injected at slot "
                f"{injected_slot} delivered at slot {slot}, before its "
                f"earliest feasible slot {earliest} (delta_m bound)"
            )

    # -- schedule swaps --------------------------------------------------------

    def record_schedule_swap(
        self,
        slot: int,
        new_schedule: CircuitSchedule,
        network,
        injected_total: int,
        delivered_total: int,
    ) -> None:
        """Validate and adopt a mid-run schedule swap at a slot boundary.

        Asserts no cell is lost or duplicated across the swap — the same
        conservation + VOQ-census check as :meth:`end_slot`, taken at the
        instant of the swap — then rebases every schedule-derived cache
        (capacity rows, circuit up-slots) onto *new_schedule*.  Cells
        injected before *slot* are exempted from the delta_m bound from
        here on (their feasibility chain spans two schedules); cells
        injected after are checked against the new schedule.
        """
        self.checks_run += 1
        if new_schedule.num_nodes != self.schedule.num_nodes:
            self._fail(
                f"slot {slot}: schedule swap changes the node count "
                f"({self.schedule.num_nodes} -> {new_schedule.num_nodes})"
            )
        occupancy = network.total_occupancy
        if injected_total - delivered_total != occupancy:
            self._fail(
                f"slot {slot}: cells lost or duplicated across schedule "
                f"swap — injected {injected_total}, delivered "
                f"{delivered_total}, but {occupancy} cells in flight"
            )
        self.end_slot(slot, network, injected_total, delivered_total)
        self.schedule = new_schedule
        self._row_key = None
        self._row = None
        self._up_slots.clear()
        self._swap_slot = slot

    # -- conservation ----------------------------------------------------------

    def end_slot(
        self, slot: int, network, injected_total: int, delivered_total: int
    ) -> None:
        """Validate fabric-wide accounting after one simulated slot."""
        self.checks_run += 1
        occupancy = network.total_occupancy
        if occupancy < 0:
            self._fail(f"slot {slot}: negative fabric occupancy {occupancy}")
        if injected_total - delivered_total != occupancy:
            self._fail(
                f"slot {slot}: cell conservation broken — injected "
                f"{injected_total}, delivered {delivered_total}, but "
                f"{occupancy} cells in flight"
            )
        lowest = network.min_voq_length()
        if lowest < 0:
            self._fail(f"slot {slot}: negative VOQ counter (min {lowest})")
        census = sum(network.backlogs())
        if census != occupancy:
            self._fail(
                f"slot {slot}: VOQ counters sum to {census}, fabric total "
                f"says {occupancy}"
            )
