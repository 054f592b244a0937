"""Failure injection for the slot simulator (section 6 blast radius).

Two failure models of increasing generality:

- :class:`FailedNodeSchedule` masks a *static* set of failed nodes out of
  every slot of a schedule — the whole-run scenario the original blast
  radius experiment used.
- :class:`FailureTimeline` scripts *dynamic* faults: per-node, per-link
  and per-plane failures that start and heal at configurable slots.  Both
  simulator engines (reference and vectorized) apply the same timeline to
  the same slots, so failure runs stay differentially testable.

A failed node stops transmitting and receiving: every circuit touching it
is masked out of the schedule.  Because routing stays oblivious (nodes do
not learn about remote failures at these timescales), traffic whose
sampled path transits the failed node stalls — which is precisely the
*blast radius* the paper argues modular designs shrink.  The paper's
minutes-scale control loop is modeled separately by
:class:`repro.routing.failover.FailureAwareRouter`, which resamples
load-balancing hops away from known-dead nodes.  Run a workload through a
failure and compare completion ratios against the healthy run; flows
whose endpoints failed are expected casualties, everything else stalled
is collateral.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..schedules.matching import Matching
from ..schedules.schedule import CircuitSchedule
from ..traffic.workload import FlowSpec, FlowsLike

__all__ = [
    "FailedNodeSchedule",
    "FailureEvent",
    "FailureTimeline",
    "split_casualties",
]


@dataclasses.dataclass(frozen=True)
class FailureEvent:
    """One scripted fault: what breaks, when, and when (if ever) it heals.

    Attributes
    ----------
    kind:
        ``"node"`` (all circuits touching the node), ``"link"`` (the
        circuits between one unordered node pair — a fiber cut kills both
        directions), or ``"plane"`` (every circuit of one uplink plane).
    start_slot:
        First slot the fault is active.
    heal_slot:
        First slot the fault is repaired (exclusive end); ``None`` means
        it never heals within the run.
    node / link / plane:
        The target, matching *kind*; the other two fields stay ``None``.
    """

    kind: str
    start_slot: int
    heal_slot: Optional[int] = None
    node: Optional[int] = None
    link: Optional[Tuple[int, int]] = None
    plane: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("node", "link", "plane"):
            raise SimulationError(
                f"failure kind must be 'node', 'link' or 'plane', got {self.kind!r}"
            )
        if self.start_slot < 0:
            raise SimulationError("failure start_slot must be non-negative")
        if self.heal_slot is not None and self.heal_slot <= self.start_slot:
            raise SimulationError("failure heal_slot must exceed start_slot")
        targets = {"node": self.node, "link": self.link, "plane": self.plane}
        if targets[self.kind] is None:
            raise SimulationError(f"{self.kind} failure needs a {self.kind} target")
        for kind, value in targets.items():
            if kind != self.kind and value is not None:
                raise SimulationError(
                    f"{self.kind} failure must not set a {kind} target"
                )
        if self.kind == "link":
            u, v = self.link
            if u == v:
                raise SimulationError("link failure endpoints must differ")

    def active_at(self, slot: int) -> bool:
        """Whether this fault is live at absolute slot *slot*."""
        if slot < self.start_slot:
            return False
        return self.heal_slot is None or slot < self.heal_slot

    def spec(self) -> str:
        """This event as a :meth:`FailureTimeline.parse` entry.

        The ``@start[-heal]`` clause is omitted exactly when parse would
        default it (active from slot 0, never heals), so
        ``parse(spec())`` reproduces the event field-for-field.
        """
        if self.kind == "node":
            target = str(self.node)
        elif self.kind == "plane":
            target = str(self.plane)
        else:
            target = f"{self.link[0]}-{self.link[1]}"
        text = f"{self.kind}:{target}"
        if self.start_slot != 0 or self.heal_slot is not None:
            text += f"@{self.start_slot}"
            if self.heal_slot is not None:
                text += f"-{self.heal_slot}"
        return text


class FailureTimeline:
    """A scripted sequence of faults applied to a schedule as it runs.

    The timeline is purely a *mask*: at every slot it removes the circuits
    any active fault touches and leaves everything else untouched, so it
    composes with any :class:`~repro.schedules.schedule.CircuitSchedule`
    without breaking the schedule's periodic caches.  Both simulator
    engines consult it through the same two entry points
    (:meth:`mask_matching` for the reference engine's ``Matching``
    objects, :meth:`mask_dst_row` for the vectorized engine's dense
    destination rows), which are guaranteed to agree.

    Construct directly from :class:`FailureEvent` objects, via the
    convenience constructors (:meth:`node_failure`, :meth:`link_failure`,
    :meth:`plane_failure`), or from a CLI-friendly spec string
    (:meth:`parse`).
    """

    def __init__(self, events: Iterable[FailureEvent] = ()):
        self.events: Tuple[FailureEvent, ...] = tuple(events)
        for event in self.events:
            if not isinstance(event, FailureEvent):
                raise SimulationError(f"not a FailureEvent: {event!r}")
        if self.events:
            self._first_slot = min(e.start_slot for e in self.events)
            heals = [e.heal_slot for e in self.events]
            self._last_slot = None if None in heals else max(heals)
        else:
            self._first_slot = 0
            self._last_slot = 0

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"FailureTimeline({list(self.events)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FailureTimeline):
            return NotImplemented
        return self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def spec(self) -> str:
        """This timeline as a :meth:`parse` spec string (the inverse).

        ``FailureTimeline.parse(t.spec()) == t`` for every timeline with
        non-negative targets — the property that lets a CLI flag, a
        checkpoint, or a journal carry a timeline as plain text.
        """
        return ",".join(event.spec() for event in self.events)

    # -- constructors --------------------------------------------------------

    @classmethod
    def node_failure(
        cls, node: int, start_slot: int = 0, heal_slot: Optional[int] = None
    ) -> "FailureTimeline":
        return cls([FailureEvent("node", start_slot, heal_slot, node=int(node))])

    @classmethod
    def link_failure(
        cls, u: int, v: int, start_slot: int = 0, heal_slot: Optional[int] = None
    ) -> "FailureTimeline":
        return cls(
            [FailureEvent("link", start_slot, heal_slot, link=(int(u), int(v)))]
        )

    @classmethod
    def plane_failure(
        cls, plane: int, start_slot: int = 0, heal_slot: Optional[int] = None
    ) -> "FailureTimeline":
        return cls([FailureEvent("plane", start_slot, heal_slot, plane=int(plane))])

    def merged(self, other: "FailureTimeline") -> "FailureTimeline":
        """Both timelines' events combined."""
        return FailureTimeline(self.events + other.events)

    @classmethod
    def parse(cls, spec: str) -> "FailureTimeline":
        """Parse ``"node:3@100-500,link:2-7@50,plane:1@10-20"``.

        Each comma-separated entry is ``kind:target@start[-heal]``; a
        missing ``@`` clause means the fault is active from slot 0 and
        never heals.  Link targets are ``u-v`` node pairs.  Malformed
        specs raise :class:`~repro.errors.SimulationError` naming the
        offending token and its character position in *spec*.
        """

        def fail(pos: int, entry: str, detail: str) -> None:
            raise SimulationError(
                f"bad failure spec at character {pos}, entry {entry!r}: "
                f"{detail}"
            )

        def parse_int(value: str, pos: int, entry: str, what: str) -> int:
            try:
                return int(value)
            except ValueError:
                fail(pos, entry, f"{what} {value!r} is not an integer")

        events: List[FailureEvent] = []
        cursor = 0
        for raw in spec.split(","):
            entry = raw.strip()
            pos = cursor + len(raw) - len(raw.lstrip())
            cursor += len(raw) + 1
            if not entry:
                continue
            head, _, when = entry.partition("@")
            kind, sep, target = head.partition(":")
            if not sep:
                fail(
                    pos, entry,
                    f"missing ':' between kind and target in {head!r} "
                    f"(expected kind:target[@start[-heal]])",
                )
            if kind not in ("node", "link", "plane"):
                fail(
                    pos, entry,
                    f"unknown failure kind {kind!r} "
                    f"(expected node, link or plane)",
                )
            start, heal = 0, None
            if when:
                start_s, _, heal_s = when.partition("-")
                start = parse_int(start_s, pos, entry, "start slot")
                if heal_s:
                    heal = parse_int(heal_s, pos, entry, "heal slot")
            if kind == "link":
                u_s, sep, v_s = target.partition("-")
                if not sep:
                    fail(
                        pos, entry,
                        f"link target {target!r} must name a node pair "
                        f"'u-v'",
                    )
                u = parse_int(u_s, pos, entry, "link endpoint")
                v = parse_int(v_s, pos, entry, "link endpoint")
                events.append(FailureEvent("link", start, heal, link=(u, v)))
            else:
                ident = parse_int(target, pos, entry, f"{kind} target")
                events.append(
                    FailureEvent(kind, start, heal, **{kind: ident})
                )
        return cls(events)

    # -- validation ----------------------------------------------------------

    def bind(self, schedule: CircuitSchedule) -> None:
        """Validate every event's target against *schedule*'s dimensions."""
        n = schedule.num_nodes
        for event in self.events:
            if event.kind == "node" and not 0 <= event.node < n:
                raise SimulationError(f"failed node {event.node} out of range [0, {n})")
            if event.kind == "link":
                u, v = event.link
                if not (0 <= u < n and 0 <= v < n):
                    raise SimulationError(
                        f"failed link ({u}, {v}) out of range [0, {n})"
                    )
            if event.kind == "plane" and not 0 <= event.plane < schedule.num_planes:
                raise SimulationError(
                    f"failed plane {event.plane} out of range "
                    f"[0, {schedule.num_planes})"
                )

    # -- queries -------------------------------------------------------------

    def affects(self, slot: int) -> bool:
        """Whether any fault is active at *slot* (cheap fast-path probe)."""
        if not self.events or slot < self._first_slot:
            return False
        if self._last_slot is not None and slot >= self._last_slot:
            return False
        return any(e.active_at(slot) for e in self.events)

    def active_events(self, slot: int) -> List[FailureEvent]:
        """All faults live at *slot*."""
        return [e for e in self.events if e.active_at(slot)]

    def failed_nodes_at(self, slot: int) -> FrozenSet[int]:
        """Nodes down at *slot* (node-failure events only)."""
        return frozenset(
            e.node for e in self.events if e.kind == "node" and e.active_at(slot)
        )

    def failed_nodes_ever(self) -> FrozenSet[int]:
        """Every node that fails at any point in the timeline.

        This is the set a minutes-scale control loop would learn and feed
        to :class:`repro.routing.failover.FailureAwareRouter`.
        """
        return frozenset(e.node for e in self.events if e.kind == "node")

    # -- masking -------------------------------------------------------------

    def mask_dst_row(self, row: np.ndarray, slot: int, plane: int) -> np.ndarray:
        """The destination row *row* with all faulted circuits removed.

        *row* is a dense ``dst[src]`` array (``-1`` = idle) for *plane* at
        absolute *slot*.  Returns the input array unchanged (same object)
        when no fault applies, otherwise a masked copy.
        """
        active = self.active_events(slot)
        if not active:
            return row
        masked: Optional[np.ndarray] = None
        for event in active:
            if event.kind == "plane":
                if event.plane == plane:
                    return np.full_like(row, -1)
                continue
            if masked is None:
                masked = row.copy()
            if event.kind == "node":
                v = event.node
                masked[v] = -1
                masked[masked == v] = -1
            else:
                u, v = event.link
                if masked[u] == v:
                    masked[u] = -1
                if masked[v] == u:
                    masked[v] = -1
        return row if masked is None else masked

    def mask_matching(self, matching: Matching, slot: int, plane: int) -> Matching:
        """The :class:`Matching` counterpart of :meth:`mask_dst_row`."""
        masked = self.mask_dst_row(matching.dst, slot, plane)
        if masked is matching.dst:
            return matching
        return Matching(masked)


class FailedNodeSchedule(CircuitSchedule):
    """A schedule with all circuits of some failed nodes masked out.

    The static whole-run special case of :class:`FailureTimeline`; kept as
    a schedule wrapper so analyses that expect a periodic
    :class:`CircuitSchedule` (edge fractions, wait times) work on the
    degraded fabric directly.
    """

    def __init__(self, inner: CircuitSchedule, failed_nodes: Iterable[int]):
        failed = frozenset(int(v) for v in failed_nodes)
        if not failed:
            raise SimulationError("no failed nodes given; use the schedule directly")
        bad = [v for v in failed if not 0 <= v < inner.num_nodes]
        if bad:
            raise SimulationError(f"failed nodes out of range: {bad}")
        if len(failed) >= inner.num_nodes - 1:
            raise SimulationError("cannot fail all but one node")
        super().__init__(inner.num_nodes, inner.period, inner.num_planes)
        self.inner = inner
        self.failed: FrozenSet[int] = failed
        # Frozen boolean lookup built once; the per-slot mask is then two
        # vectorized index operations instead of rebuilding a Python list
        # of failed ids per slot per plane.
        is_failed = np.zeros(inner.num_nodes, dtype=bool)
        is_failed[list(failed)] = True
        is_failed.setflags(write=False)
        self._is_failed = is_failed

    def _mask(self, matching: Matching) -> Matching:
        dst = matching.dst.copy()
        live = dst >= 0
        dead_dst = np.zeros_like(live)
        dead_dst[live] = self._is_failed[dst[live]]
        dst[dead_dst | self._is_failed] = -1
        return Matching(dst)

    def matching(self, slot: int) -> Matching:
        return self._mask(self.inner.matching(slot))

    def plane_matching(self, slot: int, plane: int = 0) -> Matching:
        return self._mask(self.inner.plane_matching(slot, plane))


def split_casualties(
    flows: FlowsLike, failed_nodes: Iterable[int]
) -> List[List[FlowSpec]]:
    """Split flows into [endpoint casualties, bystanders].

    Endpoint casualties have a failed src or dst and cannot possibly
    complete; bystander flows measure collateral damage (blast radius).
    Each flow keeps its id, which indexes the per-flow arrays of a run of
    *flows*; to simulate one part alone, renumber it 0..n-1 first.
    """
    failed = frozenset(int(v) for v in failed_nodes)
    casualties = [f for f in flows if f.src in failed or f.dst in failed]
    bystanders = [f for f in flows if f.src not in failed and f.dst not in failed]
    return [casualties, bystanders]
