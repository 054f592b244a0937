"""The circuit-schedule abstraction shared by all network designs.

A :class:`CircuitSchedule` is a periodic sequence of matchings that every
node follows synchronously.  Subclasses may generate matchings lazily (the
4096-node analyses never materialize the Theta(N^2) schedule), or hold an
explicit list (:class:`ExplicitSchedule`) for simulation-scale networks.

Parallel uplinks are modeled as *planes*: plane ``p`` of a schedule with
``num_planes = U`` runs the same matching sequence offset by ``period/U``
slots, which is how Sirius spreads one logical rotation across 16 physical
uplinks and divides the effective cycle time by 16.

Array consumers read one compiled form, :meth:`CircuitSchedule.compiled`:
a *bank* of the period's distinct matchings plus a ``(slot, plane)``
*index* into it.  A period reuses few matchings (the SORN schedule at
N=4096, Nc=64 cycles 126 of them through 3843 slots), so the pair is a
small fraction of the dense ``(period, planes, N)`` table it encodes.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ScheduleError
from ..util import check_positive_int
from .matching import Matching

__all__ = ["CircuitSchedule", "ExplicitSchedule"]


class CircuitSchedule(abc.ABC):
    """Periodic synchronous schedule of matchings over ``num_nodes`` ports."""

    def __init__(self, num_nodes: int, period: int, num_planes: int = 1):
        self._num_nodes = check_positive_int(num_nodes, "num_nodes", minimum=2)
        self._period = check_positive_int(period, "period")
        self._num_planes = check_positive_int(num_planes, "num_planes")
        self._row_cache: Dict[int, np.ndarray] = {}
        self._compiled: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- core interface ------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of ports/nodes the schedule connects."""
        return self._num_nodes

    @property
    def period(self) -> int:
        """Schedule period in slots."""
        return self._period

    @property
    def num_planes(self) -> int:
        """Parallel uplink planes running offset copies of the schedule."""
        return self._num_planes

    @abc.abstractmethod
    def matching(self, slot: int) -> Matching:
        """The base-plane matching at (cyclic) slot index *slot*."""

    # -- derived accessors -----------------------------------------------------

    def plane_offset(self, plane: int) -> int:
        """Slot offset of *plane* relative to the base plane."""
        if not 0 <= plane < self._num_planes:
            raise ScheduleError(f"plane {plane} out of range [0, {self._num_planes})")
        return plane * self._period // self._num_planes

    def plane_matching(self, slot: int, plane: int = 0) -> Matching:
        """Matching active on *plane* at absolute slot *slot*."""
        return self.matching((slot + self.plane_offset(plane)) % self._period)

    def dest(self, slot: int, src: int, plane: int = 0) -> int:
        """Destination of *src* at *slot* on *plane* (-1 if idle)."""
        return self.plane_matching(slot, plane).destination(src)

    def matchings(self) -> Iterator[Matching]:
        """Iterate the base plane's matchings over one period."""
        for slot in range(self._period):
            yield self.matching(slot)

    def node_row(self, src: int) -> np.ndarray:
        """One node's slot -> neighbor table over a period (base plane).

        This is the schedule table a control plane programs into the
        node's NIC (Fig 2c), and the row
        :func:`repro.control.planner.plan_update` diffs: one bank column
        gathered by the base plane's index.
        """
        if not 0 <= src < self._num_nodes:
            raise ScheduleError(f"node {src} out of range [0, {self._num_nodes})")
        bank, index = self.compiled()
        return bank[index[:, 0], src].astype(np.int64)

    def edge_fractions(self) -> Dict[Tuple[int, int], float]:
        """Virtual-edge bandwidth fractions: ``f[(u, v)]`` is the fraction of
        slots in which the circuit u -> v is up.

        A circuit in fraction ``l`` of slots implements a virtual edge of
        bandwidth ``b*l`` for per-node bandwidth ``b`` (paper section 4,
        "Topology").  Materializes one period; subclasses with closed forms
        may override.
        """
        counts: Dict[Tuple[int, int], int] = {}
        for m in self.matchings():
            for s, d in m.pairs():
                counts[(s, d)] = counts.get((s, d), 0) + 1
        return {edge: c / self._period for edge, c in counts.items()}

    def neighbors(self, src: int) -> List[int]:
        """All neighbors *src* ever faces over one period (sorted)."""
        row = self.node_row(src)
        return sorted({int(n) for n in np.unique(row) if n >= 0})

    def cached_node_row(self, src: int) -> np.ndarray:
        """Memoized :meth:`node_row` (used heavily by routers/simulators)."""
        row = self._row_cache.get(src)
        if row is None:
            row = self.node_row(src)
            row.setflags(write=False)
            self._row_cache[src] = row
        return row

    def compiled(self) -> Tuple[np.ndarray, np.ndarray]:
        """The schedule as ``(bank, index)``, built once and memoized.

        ``bank`` is an ``(M, num_nodes)`` int32 array of the period's
        distinct matchings (``-1`` = idle); ``index`` is a
        ``(period, num_planes)`` int32 array of bank rows.  Row
        ``bank[index[t, p]]`` is ``plane_matching(t, p).dst``, so
        ``bank[index]`` is the dense ``(period, planes, N)`` destination
        table, and schedules whose planes are *not* offset copies of the
        base plane (expander rotor staggering, mixed static/rotor/demand
        pools) are represented faithfully.  Both arrays are read-only.
        """
        if self._compiled is None:
            bank, index = self._compile()
            bank.setflags(write=False)
            index.setflags(write=False)
            self._compiled = (bank, index)
        return self._compiled

    def _compile(self) -> Tuple[np.ndarray, np.ndarray]:
        """Build :meth:`compiled`'s ``(bank, index)``.

        The generic build walks one :class:`Matching` per slot (per slot
        and plane when the planes are not offset copies) and keeps each
        distinct row once, in order of first appearance.  Schedules that
        know their matching families override it to build the bank
        directly.
        """
        rows: Dict[bytes, int] = {}
        bank: List[np.ndarray] = []

        def bank_row(matching: Matching) -> int:
            # int32 holds any node id (N < 2**31) at half the bytes.
            row = matching.dst.astype(np.int32)
            key = row.tobytes()
            m = rows.get(key)
            if m is None:
                m = rows[key] = len(bank)
                bank.append(row)
            return m

        if self._planes_are_offset_copies():
            base = np.array(
                [bank_row(self.matching(t)) for t in range(self._period)],
                dtype=np.int32,
            )
            index = self._offset_planes(base)
        else:
            index = np.array(
                [
                    [bank_row(self.plane_matching(t, p)) for p in range(self._num_planes)]
                    for t in range(self._period)
                ],
                dtype=np.int32,
            )
        return np.stack(bank), index

    def _offset_planes(self, base: np.ndarray) -> np.ndarray:
        """The ``(period, num_planes)`` index of offset-copy planes, from
        the base plane's slot -> bank-row column *base*."""
        slots = np.arange(self._period)
        return np.stack(
            [
                base[(slots + self.plane_offset(p)) % self._period]
                for p in range(self._num_planes)
            ],
            axis=1,
        )

    def _planes_are_offset_copies(self) -> bool:
        """Whether every plane is the base matching sequence shifted by
        :meth:`plane_offset` — true for the base class, overridden to
        ``False`` by plane-heterogeneous schedules so :meth:`_compile` and
        :meth:`validate` walk every plane."""
        plane_matching = type(self).plane_matching
        plane_offset = type(self).plane_offset
        return (
            plane_matching is CircuitSchedule.plane_matching
            and plane_offset is CircuitSchedule.plane_offset
        )

    def circuit_up_slots(self, src: int, dst: int) -> np.ndarray:
        """Sorted slot indices (one period) where src -> dst is up on *any*
        plane — the union :meth:`circuit_slots` over planes, read from
        :meth:`compiled` so plane-heterogeneous schedules are exact.
        The returned array is read-only."""
        if not 0 <= src < self._num_nodes:
            raise ScheduleError(f"node {src} out of range [0, {self._num_nodes})")
        bank, index = self.compiled()
        up = np.flatnonzero((bank[:, src] == dst)[index].any(axis=1))
        up.setflags(write=False)
        return up

    def circuit_slots(self, src: int, dst: int) -> np.ndarray:
        """Sorted base-plane slot indices (one period) where src -> dst is up."""
        return np.nonzero(self.cached_node_row(src) == dst)[0]

    def next_slot(self, start_slot: int, src: int, dst: int) -> int:
        """First absolute slot >= *start_slot* with the circuit src -> dst up.

        Raises :class:`ScheduleError` if the circuit never appears.
        """
        slots = self.circuit_slots(src, dst)
        if slots.size == 0:
            raise ScheduleError(f"circuit {src} -> {dst} never appears in the schedule")
        base = start_slot % self._period
        idx = int(np.searchsorted(slots, base))
        if idx < slots.size:
            return start_slot + int(slots[idx]) - base
        return start_slot + self._period - base + int(slots[0])

    def max_wait_slots(self, src: int, dst: int) -> int:
        """Worst-case slots until the circuit src -> dst next opens
        (base plane).  Infinite gaps raise :class:`ScheduleError`.
        """
        slots = self.circuit_slots(src, dst)
        if slots.size == 0:
            raise ScheduleError(f"circuit {src} -> {dst} never appears in the schedule")
        if slots.size == 1:
            return self._period
        gaps = np.diff(slots)
        wrap = self._period - slots[-1] + slots[0]
        return int(max(gaps.max(), wrap))

    def validate(self) -> None:
        """Check every slot on every plane is a valid matching of the
        right size.

        :class:`Matching` construction already enforces per-slot invariants;
        this re-checks sizes and is the hook for subclass invariants.
        Offset-copy planes repeat the base sequence, so only plane 0 is
        walked for them; plane-heterogeneous schedules check every plane.
        """
        planes = 1 if self._planes_are_offset_copies() else self._num_planes
        for plane in range(planes):
            for slot in range(self._period):
                m = self.plane_matching(slot, plane)
                if m.num_nodes != self._num_nodes:
                    raise ScheduleError(
                        f"slot {slot} plane {plane} matching covers "
                        f"{m.num_nodes} nodes, expected {self._num_nodes}"
                    )

    def materialize(self) -> "ExplicitSchedule":
        """Copy into an :class:`ExplicitSchedule` (for mutation/simulation)."""
        return ExplicitSchedule(list(self.matchings()), num_planes=self._num_planes)

    def with_planes(self, num_planes: int) -> "CircuitSchedule":
        """A view of this schedule running on *num_planes* parallel uplinks."""
        clone = self.materialize()
        clone._num_planes = check_positive_int(num_planes, "num_planes")
        return clone

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(num_nodes={self._num_nodes}, "
            f"period={self._period}, num_planes={self._num_planes})"
        )


class ExplicitSchedule(CircuitSchedule):
    """A schedule holding its matchings in memory.

    Suitable for simulation-scale networks (N up to a few thousand) and for
    arbitrary control-plane-synthesized schedules (e.g. BvN output).
    """

    def __init__(self, matchings: Sequence[Matching], num_planes: int = 1):
        matchings = list(matchings)
        if not matchings:
            raise ScheduleError("an explicit schedule needs at least one matching")
        for i, m in enumerate(matchings):
            if not isinstance(m, Matching):
                raise ScheduleError(f"slot {i} is not a Matching")
        n = matchings[0].num_nodes
        for i, m in enumerate(matchings):
            if m.num_nodes != n:
                raise ScheduleError(
                    f"slot {i} covers {m.num_nodes} nodes, expected {n}"
                )
        super().__init__(n, len(matchings), num_planes)
        self._slots: List[Matching] = matchings

    def matching(self, slot: int) -> Matching:
        return self._slots[slot % self._period]

    def rotated(self, offset: int) -> "ExplicitSchedule":
        """The same cyclic schedule starting *offset* slots later."""
        offset %= self._period
        return ExplicitSchedule(
            self._slots[offset:] + self._slots[:offset], num_planes=self._num_planes
        )

    def concatenated(self, other: "ExplicitSchedule") -> "ExplicitSchedule":
        """This period followed by *other*'s (e.g. splicing update epochs)."""
        if other.num_nodes != self.num_nodes:
            raise ScheduleError("cannot concatenate schedules of different sizes")
        return ExplicitSchedule(self._slots + other._slots, num_planes=self._num_planes)
