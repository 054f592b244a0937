"""Pluggable per-slot telemetry for the slot-simulator engines.

The paper's headline claims are about *where* bandwidth goes (the
q/(q+1) intra / 1/(q+1) inter split), *when* cells move (schedule-phase
and hop structure), and *how long* queues get — none of which the
end-of-run :class:`repro.sim.metrics.SimReport` aggregates can show.
This module adds the engines' one observer seam, fed through the same
narrow events the :class:`repro.sim.invariants.InvariantChecker` uses
(a :class:`repro.sim.tracing.TraceRecorder` is one of its collectors):

- ``record_transmit(slot, plane, src, dst, count)`` — one call per
  circuit that carried a cell this plane activation (``count`` is 1: a
  circuit carries one cell per slot);
- ``record_delivery_hops(slot, injected_slot, hops)`` — one call per
  cell delivered to its destination;
- ``sample(slot, network, delivered_cumulative)`` — once per slot, with
  the engine's fabric-state view (``total_occupancy``, ``backlogs()``,
  ``max_voq_length()`` — the accessor set both
  :class:`repro.sim.network.SimNetwork` and
  :class:`repro.sim.network.LinkedVoqState` provide).

A :class:`TelemetryHub` fans these events out to registered
:class:`TelemetryCollector` instances.  Because both engines emit the
events from the same intra-slot positions with the same integer
arguments (the exactness contract of :mod:`repro.sim.vectorized`),
identical seeded runs under either engine produce **bit-identical**
telemetry: ``hub.snapshot()`` dictionaries compare equal and
``hub.dumps_jsonl()`` strings compare byte-for-byte.  The differential
fuzz harness (``tests/sim/test_differential_fuzz.py``) enforces this.

Telemetry is strictly read-only — collectors receive plain integers and
read-only state views, never the RNG or mutable engine internals — so
enabling it cannot change simulation results.  With no hub configured
(``SimConfig(telemetry=None)``, the default) the engines skip every
hook, and a hub with no collectors is detected as a no-op up front, so
the disabled cost is one attribute check per run, not per slot.

Wall-clock phase profiling (:class:`PhaseProfiler`) rides the same hub
but is *excluded* from the deterministic snapshot/export streams:
timings are real measurements, not reproducible telemetry.
"""

from __future__ import annotations

import csv
import json
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import TelemetryError
from ..topology.cliques import CliqueLayout
from ..util import check_positive_int

__all__ = [
    "TelemetryCollector",
    "TelemetryHub",
    "EpochTransitionCollector",
    "LinkUtilizationCollector",
    "VoqHeatmapCollector",
    "HopCountCollector",
    "PhaseAttributionCollector",
    "PhaseProfiler",
    "SweepCacheCollector",
    "standard_collectors",
    "circuit_class_capacity",
]


class TelemetryCollector:
    """Base class for per-run telemetry collectors.

    Subclasses set ``name`` (unique per hub; used as the export key) and
    ``consumes`` (which event streams to receive: any subset of
    ``{"transmit", "delivery", "sample"}``), override the matching
    ``on_*`` hooks, and implement :meth:`rows`.

    Collectors must be deterministic functions of the event stream:
    anything order- or wall-clock-dependent belongs in
    :class:`PhaseProfiler` instead, which is excluded from the
    deterministic exports.
    """

    #: Export key; must be unique among a hub's collectors.
    name: str = "collector"
    #: Event streams this collector consumes.
    consumes: frozenset = frozenset()

    # -- engine-facing hooks (no-ops by default) -----------------------------

    def on_transmit(self, slot: int, plane: int, src: int, dst: int, count: int) -> None:
        """One circuit moved *count* cells at (*slot*, *plane*)."""

    def on_delivery(self, slot: int, injected_slot: int, hops: int) -> None:
        """One cell injected at *injected_slot* reached its destination."""

    def on_sample(self, slot: int, network, delivered_cumulative: int) -> None:
        """Stride-gated fabric-state sample (see :class:`TelemetryHub`)."""

    def on_epoch(
        self,
        epoch: int,
        slot: int,
        state: str,
        action: str,
        reason: str,
        locality: Optional[float],
        q: Optional[float],
    ) -> None:
        """One control-plane epoch boundary (emitted by the adaptation
        runtime, not by the engines; see :mod:`repro.control.runtime`)."""

    def on_sweep(self, event: str, key: str) -> None:
        """One sweep-cache transaction (emitted by the sweep-execution
        layer, not by the engines; see :mod:`repro.exp.cache`).  *event*
        is one of ``hit`` / ``miss`` / ``store`` / ``invalidate`` and
        *key* is the point's content hash."""

    def finalize(self, horizon_slots: int) -> None:
        """Called once when the run ends (*horizon_slots* includes drain)."""

    # -- durable checkpoints --------------------------------------------------

    def state_dict(self) -> dict:
        """Lossless JSON-safe snapshot of the collector's internal state.

        Together with :meth:`load_state` this is the durability seam of
        :meth:`repro.sim.engine.SimSession.save`: a hub checkpointed
        mid-run and restored into a fresh (or the same) hub must continue
        producing the byte-identical event stream an uninterrupted run
        would.  Collectors that accumulate state must override both; the
        defaults raise so a stateful collector can never silently lose
        its history across a save/resume boundary.
        """
        raise NotImplementedError(
            f"collector {self.name!r} does not implement state_dict(); it "
            f"cannot ride a durable checkpoint"
        )

    def load_state(self, state: dict) -> None:
        """Replace the collector's internal state with *state* (the
        inverse of :meth:`state_dict`; replaces, never appends)."""
        raise NotImplementedError(
            f"collector {self.name!r} does not implement load_state(); it "
            f"cannot ride a durable checkpoint"
        )

    # -- results -------------------------------------------------------------

    def rows(self) -> List[dict]:
        """Deterministically ordered export rows (plain-JSON values)."""
        return []

    def snapshot(self) -> dict:
        """Deterministic summary; default wraps :meth:`rows`."""
        return {"rows": self.rows()}

    def reset(self) -> None:
        """Clear accumulated state so the collector can serve a new run."""
        raise NotImplementedError


_VALID_STREAMS = frozenset({"transmit", "delivery", "sample", "epoch", "sweep"})


class TelemetryHub:
    """Fans engine telemetry events out to registered collectors.

    Parameters
    ----------
    collectors:
        Initial collectors (more can be added with :meth:`register`).
    stride:
        Per-slot samples are forwarded only every *stride* slots
        (``slot % stride == 0``), bounding sampling cost on long runs.
        Transmit/delivery events are always forwarded — the utilization
        and attribution collectors are exact counters, not samplers.

    Pass the hub to the simulator via ``SimConfig(telemetry=hub)``.  A
    hub is meant to observe **one** run; call :meth:`reset` (or build a
    fresh hub) before reusing it, otherwise streams concatenate.
    """

    def __init__(
        self,
        collectors: Iterable[TelemetryCollector] = (),
        stride: int = 1,
    ):
        self.stride = check_positive_int(stride, "stride")
        self._collectors: List[TelemetryCollector] = []
        self._transmit: List[TelemetryCollector] = []
        self._delivery: List[TelemetryCollector] = []
        self._sample: List[TelemetryCollector] = []
        self._epoch: List[TelemetryCollector] = []
        self._sweep: List[TelemetryCollector] = []
        #: The registered :class:`PhaseProfiler`, if any — engines grab
        #: this directly so timer laps skip the dispatch machinery.
        self.profiler: Optional[PhaseProfiler] = None
        self.horizon_slots: Optional[int] = None
        for collector in collectors:
            self.register(collector)

    # -- registration --------------------------------------------------------

    def register(self, collector: TelemetryCollector) -> TelemetryCollector:
        """Add *collector*; returns it for chaining."""
        name = getattr(collector, "name", None)
        if not name or not isinstance(name, str):
            raise TelemetryError("collector must define a non-empty string name")
        if any(c.name == name for c in self._collectors):
            raise TelemetryError(f"duplicate collector name {name!r}")
        streams = frozenset(collector.consumes)
        unknown = streams - _VALID_STREAMS
        if unknown:
            raise TelemetryError(
                f"collector {name!r} consumes unknown streams {sorted(unknown)}"
            )
        self._collectors.append(collector)
        if "transmit" in streams:
            self._transmit.append(collector)
        if "delivery" in streams:
            self._delivery.append(collector)
        if "sample" in streams:
            self._sample.append(collector)
        if "epoch" in streams:
            self._epoch.append(collector)
        if "sweep" in streams:
            self._sweep.append(collector)
        if isinstance(collector, PhaseProfiler):
            self.profiler = collector
        return collector

    @property
    def collectors(self) -> Tuple[TelemetryCollector, ...]:
        return tuple(self._collectors)

    def get(self, name: str) -> TelemetryCollector:
        """The registered collector called *name*."""
        for collector in self._collectors:
            if collector.name == name:
                return collector
        raise TelemetryError(f"no collector named {name!r} registered")

    # -- engine-facing fast-path predicates ----------------------------------

    @property
    def is_noop(self) -> bool:
        """True when no collector consumes anything (engines then skip
        every hook for the whole run).  A hub with only epoch collectors
        is *not* a no-op: the engines still owe it ``finalize``."""
        return not (
            self._transmit
            or self._delivery
            or self._sample
            or self._epoch
            or self._sweep
            or self.profiler
        )

    @property
    def wants_transmits(self) -> bool:
        return bool(self._transmit)

    @property
    def wants_deliveries(self) -> bool:
        return bool(self._delivery)

    @property
    def wants_samples(self) -> bool:
        return bool(self._sample)

    @property
    def wants_epochs(self) -> bool:
        return bool(self._epoch)

    @property
    def wants_sweeps(self) -> bool:
        return bool(self._sweep)

    # -- engine-facing event seam --------------------------------------------

    def record_transmit(self, slot: int, plane: int, src: int, dst: int, count: int) -> None:
        """One circuit moved *count* cells this plane activation."""
        for collector in self._transmit:
            collector.on_transmit(slot, plane, src, dst, count)

    def record_delivery_hops(self, slot: int, injected_slot: int, hops: int) -> None:
        """One cell delivered after *hops* circuit traversals."""
        for collector in self._delivery:
            collector.on_delivery(slot, injected_slot, hops)

    def record_epoch(
        self,
        epoch: int,
        slot: int,
        state: str,
        action: str,
        reason: str,
        locality: Optional[float],
        q: Optional[float],
    ) -> None:
        """One adaptation-runtime epoch boundary (control-plane stream)."""
        for collector in self._epoch:
            collector.on_epoch(epoch, slot, state, action, reason, locality, q)

    def record_sweep(self, event: str, key: str) -> None:
        """One sweep-cache transaction (sweep-layer stream; see
        :mod:`repro.exp.cache`)."""
        for collector in self._sweep:
            collector.on_sweep(event, key)

    def sample(self, slot: int, network, delivered_cumulative: int) -> None:
        """Per-slot fabric-state sample; forwarded on the stride grid."""
        if slot % self.stride != 0:
            return
        for collector in self._sample:
            collector.on_sample(slot, network, delivered_cumulative)

    def finalize(self, horizon_slots: int) -> None:
        """Engine callback at end of run; closes every collector."""
        self.horizon_slots = horizon_slots
        for collector in self._collectors:
            collector.finalize(horizon_slots)

    def reset(self) -> None:
        """Clear all collectors so the hub can observe another run."""
        self.horizon_slots = None
        for collector in self._collectors:
            collector.reset()

    # -- durable checkpoints --------------------------------------------------

    def state_dict(self) -> dict:
        """Lossless JSON-safe snapshot of every deterministic collector.

        The :class:`PhaseProfiler` is excluded, exactly as it is from the
        deterministic exports — wall-clock timings cannot and need not
        survive a process restart.
        """
        return {
            "horizon_slots": self.horizon_slots,
            "collectors": {
                c.name: c.state_dict()
                for c in self._collectors
                if not isinstance(c, PhaseProfiler)
            },
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this hub.

        The hub must carry collectors with exactly the checkpointed
        names; a mismatch raises :class:`~repro.errors.TelemetryError`
        rather than silently dropping part of the stream.
        """
        saved = state.get("collectors", {})
        live = {
            c.name: c
            for c in self._collectors
            if not isinstance(c, PhaseProfiler)
        }
        if set(saved) != set(live):
            raise TelemetryError(
                f"checkpoint carries telemetry for collectors "
                f"{sorted(saved)}, hub has {sorted(live)} — resume with a "
                f"hub configured like the one that saved"
            )
        self.horizon_slots = state.get("horizon_slots")
        for name, collector in live.items():
            collector.load_state(saved[name])

    # -- deterministic export ------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministic nested-dict summary of every collector.

        Identical seeded runs under either engine produce equal
        snapshots; the :class:`PhaseProfiler` is excluded (wall-clock
        timings are not reproducible telemetry).
        """
        return {
            c.name: c.snapshot()
            for c in self._collectors
            if not isinstance(c, PhaseProfiler)
        }

    def rows(self) -> List[dict]:
        """All collectors' rows, each tagged with its collector name."""
        out: List[dict] = []
        for collector in self._collectors:
            if isinstance(collector, PhaseProfiler):
                continue
            for row in collector.rows():
                out.append({"collector": collector.name, **row})
        return out

    def dumps_jsonl(self) -> str:
        """The telemetry stream as JSON Lines (sorted keys, so identical
        runs serialize byte-identically)."""
        return "".join(
            json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
            for row in self.rows()
        )

    def export_jsonl(self, path) -> None:
        """Write :meth:`dumps_jsonl` to *path*."""
        with open(path, "w") as handle:
            handle.write(self.dumps_jsonl())

    def export_csv(self, directory) -> List[str]:
        """Write one ``<name>.csv`` per collector into *directory*.

        Returns the written file paths.  Collectors with no rows are
        skipped (no header can be inferred).
        """
        import os

        written: List[str] = []
        for collector in self._collectors:
            if isinstance(collector, PhaseProfiler):
                continue
            rows = collector.rows()
            if not rows:
                continue
            path = os.path.join(str(directory), f"{collector.name}.csv")
            with open(path, "w", newline="") as handle:
                writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
                writer.writeheader()
                writer.writerows(rows)
            written.append(path)
        return written


# ---------------------------------------------------------------------------
# Shipped collectors
# ---------------------------------------------------------------------------


class LinkUtilizationCollector(TelemetryCollector):
    """Per-virtual-link transmitted-cell counts, split intra/inter-clique.

    Every circuit transmission lands on exactly one (src, dst) virtual
    link; the layout classifies it intra- or inter-clique.  The measured
    traversal split is directly comparable to the schedule's provisioned
    bandwidth split (intra links carry q/(q+1) of node bandwidth, inter
    1/(q+1)) and to the routing scheme's expected hop decomposition —
    see :func:`circuit_class_capacity` and the ``fig-telemetry`` CLI.
    """

    name = "link_utilization"
    consumes = frozenset({"transmit"})

    def __init__(self, layout: CliqueLayout):
        self.layout = layout
        self._assign = layout.assignment()
        self._cells: Dict[Tuple[int, int], int] = {}
        self.intra_cells = 0
        self.inter_cells = 0
        self.horizon_slots = 0

    def on_transmit(self, slot, plane, src, dst, count):
        key = (src, dst)
        self._cells[key] = self._cells.get(key, 0) + count
        if self._assign[src] == self._assign[dst]:
            self.intra_cells += count
        else:
            self.inter_cells += count

    def finalize(self, horizon_slots):
        self.horizon_slots = horizon_slots

    @property
    def total_cells(self) -> int:
        return self.intra_cells + self.inter_cells

    def traversal_split(self) -> Tuple[float, float]:
        """(intra, inter) fractions of all link traversals (0, 0 when
        nothing was transmitted)."""
        total = self.total_cells
        if total == 0:
            return 0.0, 0.0
        return self.intra_cells / total, self.inter_cells / total

    def link_cells(self, src: int, dst: int) -> int:
        """Cells transmitted over the virtual link src -> dst."""
        return self._cells.get((src, dst), 0)

    def rows(self):
        return [
            {
                "src": src,
                "dst": dst,
                "kind": "intra" if self._assign[src] == self._assign[dst] else "inter",
                "cells": cells,
            }
            for (src, dst), cells in sorted(self._cells.items())
        ]

    def snapshot(self):
        return {
            "intra_cells": self.intra_cells,
            "inter_cells": self.inter_cells,
            "links": self.rows(),
        }

    def state_dict(self):
        return {
            "cells": [[src, dst, count] for (src, dst), count in sorted(self._cells.items())],
            "intra_cells": self.intra_cells,
            "inter_cells": self.inter_cells,
            "horizon_slots": self.horizon_slots,
        }

    def load_state(self, state):
        self._cells = {
            (int(src), int(dst)): int(count) for src, dst, count in state["cells"]
        }
        self.intra_cells = int(state["intra_cells"])
        self.inter_cells = int(state["inter_cells"])
        self.horizon_slots = int(state["horizon_slots"])

    def reset(self):
        self._cells.clear()
        self.intra_cells = 0
        self.inter_cells = 0
        self.horizon_slots = 0


class VoqHeatmapCollector(TelemetryCollector):
    """Per-clique queue-backlog heatmap over time.

    Each stride sample aggregates the fabric's per-node backlogs by
    clique, yielding a (samples x cliques) occupancy surface — where in
    the fabric, and when, cells pile up.  SORN's locality-confined
    behavior shows up here directly: overload or faults in one clique
    swell that clique's row while the others stay flat.
    """

    name = "voq_heatmap"
    consumes = frozenset({"sample"})

    def __init__(self, layout: CliqueLayout):
        self.layout = layout
        self._assign = layout.assignment()
        self._slots: List[int] = []
        self._rows: List[Tuple[int, ...]] = []

    def on_sample(self, slot, network, delivered_cumulative):
        backlogs = np.asarray(network.backlogs(), dtype=np.int64)
        per_clique = np.bincount(
            self._assign, weights=backlogs, minlength=self.layout.num_cliques
        )
        self._slots.append(slot)
        self._rows.append(tuple(int(v) for v in per_clique))

    def matrix(self) -> np.ndarray:
        """(num_samples, num_cliques) backlog surface."""
        if not self._rows:
            return np.empty((0, self.layout.num_cliques), dtype=np.int64)
        return np.asarray(self._rows, dtype=np.int64)

    def sample_slots(self) -> List[int]:
        """Slot numbers of the recorded samples, in order."""
        return list(self._slots)

    def rows(self):
        return [
            {"slot": slot, "clique": clique, "backlog": backlog}
            for slot, row in zip(self._slots, self._rows)
            for clique, backlog in enumerate(row)
        ]

    def snapshot(self):
        return {"slots": list(self._slots), "backlogs": [list(r) for r in self._rows]}

    def state_dict(self):
        return {
            "slots": list(self._slots),
            "rows": [list(row) for row in self._rows],
        }

    def load_state(self, state):
        self._slots = [int(s) for s in state["slots"]]
        self._rows = [tuple(int(v) for v in row) for row in state["rows"]]

    def reset(self):
        self._slots.clear()
        self._rows.clear()


class HopCountCollector(TelemetryCollector):
    """Histogram of delivered-cell hop counts over time buckets.

    Buckets deliveries by ``slot // bucket_slots`` and counts cells per
    (bucket, hops).  The marginal over buckets is the measured bandwidth
    tax (mean hops); the time axis shows whether the hop mix drifts,
    e.g. as faults reroute traffic onto longer fallback paths.
    """

    name = "hop_histogram"
    consumes = frozenset({"delivery"})

    def __init__(self, bucket_slots: int = 100):
        self.bucket_slots = check_positive_int(bucket_slots, "bucket_slots")
        self._counts: Dict[Tuple[int, int], int] = {}

    def on_delivery(self, slot, injected_slot, hops):
        key = (slot // self.bucket_slots, hops)
        self._counts[key] = self._counts.get(key, 0) + 1

    def histogram(self) -> Dict[int, int]:
        """Hop-count histogram marginalized over time."""
        out: Dict[int, int] = {}
        for (_, hops), count in self._counts.items():
            out[hops] = out.get(hops, 0) + count
        return dict(sorted(out.items()))

    def mean_hops(self) -> float:
        """Mean hops per delivered cell (0.0 when nothing delivered)."""
        hist = self.histogram()
        total = sum(hist.values())
        if total == 0:
            return 0.0
        return sum(h * c for h, c in hist.items()) / total

    def rows(self):
        return [
            {
                "bucket_start": bucket * self.bucket_slots,
                "hops": hops,
                "cells": count,
            }
            for (bucket, hops), count in sorted(self._counts.items())
        ]

    def snapshot(self):
        return {"bucket_slots": self.bucket_slots, "rows": self.rows()}

    def state_dict(self):
        return {
            "counts": [
                [bucket, hops, count]
                for (bucket, hops), count in sorted(self._counts.items())
            ]
        }

    def load_state(self, state):
        self._counts = {
            (int(bucket), int(hops)): int(count)
            for bucket, hops, count in state["counts"]
        }

    def reset(self):
        self._counts.clear()


class PhaseAttributionCollector(TelemetryCollector):
    """Delivered-cell attribution per schedule phase (slot mod period).

    Shows which part of the periodic circuit schedule does the
    delivering — e.g. SORN's final hops concentrate on intra-clique
    phases, and a plane failure zeroes out the phases it served.
    """

    name = "phase_attribution"
    consumes = frozenset({"delivery"})

    def __init__(self, period: int):
        self.period = check_positive_int(period, "period")
        self._delivered = [0] * self.period

    def on_delivery(self, slot, injected_slot, hops):
        self._delivered[slot % self.period] += 1

    def delivered_by_phase(self) -> List[int]:
        """Delivered-cell count per schedule phase (length = period)."""
        return list(self._delivered)

    def rows(self):
        return [
            {"phase": phase, "delivered": count}
            for phase, count in enumerate(self._delivered)
            if count
        ]

    def snapshot(self):
        return {"period": self.period, "delivered": list(self._delivered)}

    def state_dict(self):
        return {"delivered": list(self._delivered)}

    def load_state(self, state):
        self._delivered = [int(v) for v in state["delivered"]]

    def reset(self):
        self._delivered = [0] * self.period


class EpochTransitionCollector(TelemetryCollector):
    """Event log of the adaptation runtime's epoch transitions.

    One row per control epoch: the controller health state after the
    control step, the action taken (retune, keep, degrade, fallback,
    recovery), the reason, and the measured locality / chosen q.  The
    stream is a deterministic function of the runtime's decisions, so
    identical seeded adaptive runs — under either engine — produce
    bit-identical rows (the chaos harness asserts this).
    """

    name = "epoch_transitions"
    consumes = frozenset({"epoch"})

    def __init__(self):
        self._rows: List[dict] = []

    def on_epoch(self, epoch, slot, state, action, reason, locality, q):
        self._rows.append(
            {
                "epoch": epoch,
                "slot": slot,
                "state": state,
                "action": action,
                "reason": reason,
                "locality": locality,
                "q": q,
            }
        )

    def states(self) -> List[str]:
        """Controller state per epoch, in order."""
        return [row["state"] for row in self._rows]

    def rows(self):
        return [dict(row) for row in self._rows]

    def state_dict(self):
        return {"rows": [dict(row) for row in self._rows]}

    def load_state(self, state):
        self._rows = [dict(row) for row in state["rows"]]

    def reset(self):
        self._rows.clear()


class SweepCacheCollector(TelemetryCollector):
    """Hit/miss/store/invalidate counters for the sweep result cache.

    The sweep-execution layer (:mod:`repro.exp`) emits one ``sweep``
    event per cache transaction; this collector aggregates them into
    per-event counters plus an ordered transaction log, so a sweep's
    telemetry snapshot records exactly which points were recomputed and
    which were served from disk.  Deterministic for a fixed cache state:
    a warm rerun of the same sweep yields all hits, and the differential
    suite asserts the *results* are bit-identical either way.
    """

    name = "sweep_cache"
    consumes = frozenset({"sweep"})

    def __init__(self):
        self._counts: Dict[str, int] = {}
        self._log: List[Tuple[str, str]] = []

    def on_sweep(self, event, key):
        self._counts[event] = self._counts.get(event, 0) + 1
        self._log.append((event, key))

    @property
    def hits(self) -> int:
        """Points served from the cache."""
        return self._counts.get("hit", 0)

    @property
    def misses(self) -> int:
        """Points that had to be computed."""
        return self._counts.get("miss", 0)

    @property
    def stores(self) -> int:
        """Fresh results written to the cache."""
        return self._counts.get("store", 0)

    @property
    def invalidations(self) -> int:
        """Cached entries discarded (corrupt or stale schema)."""
        return self._counts.get("invalidate", 0)

    def rows(self):
        return [
            {"event": event, "key": key} for event, key in self._log
        ]

    def snapshot(self):
        return {
            "counts": {e: self._counts[e] for e in sorted(self._counts)},
            "rows": self.rows(),
        }

    def state_dict(self):
        return {
            "counts": dict(self._counts),
            "log": [[event, key] for event, key in self._log],
        }

    def load_state(self, state):
        self._counts = {str(e): int(c) for e, c in state["counts"].items()}
        self._log = [(str(e), str(k)) for e, k in state["log"]]

    def reset(self):
        self._counts.clear()
        self._log.clear()


class PhaseProfiler(TelemetryCollector):
    """Wall-clock timers around the engines' per-slot phases.

    Engines lap the timer at phase boundaries: ``inject`` (arrival
    injection), ``forward`` (circuit drain — delivery happens inside this
    loop), and ``stats`` (refills, invariant checks, occupancy/trace/
    telemetry bookkeeping).  The vectorized engine further splits the
    drain out of ``forward`` by the path each plane took: ``seq`` (the
    sequential kernel, for a plane at or under the size cutoff),
    ``drain`` (candidate walk + cascade detection, for a larger plane),
    ``commit`` (head/tail/qlen commit plus forwarded-cell appends),
    ``repair`` (the in-place cascade repair) and ``replay`` (the
    sequential replay of a cascade plane the walk abandoned, which
    happens only while event consumers are attached), leaving
    ``forward`` as the residual glue — so the phases still sum to wall
    time and a regression names the guilty kernel.  ``seq`` and
    ``drain`` lap once per plane they drain, so their lap counts are
    the planes on each path.  The vectorized engine laps ``forward``
    once per slot span, so its lap count there is the number of spans.
    Timings answer "where does the wall clock go" for
    engine-optimization work; they are *excluded* from the
    deterministic snapshot/JSONL/CSV streams because they are real
    measurements, not reproducible telemetry.
    """

    name = "phase_profile"
    consumes = frozenset()

    def __init__(self):
        self._seconds: Dict[str, float] = {}
        self._laps: Dict[str, int] = {}

    def add(self, phase: str, seconds: float) -> None:
        """Accumulate *seconds* against *phase*."""
        self._seconds[phase] = self._seconds.get(phase, 0.0) + seconds
        self._laps[phase] = self._laps.get(phase, 0) + 1

    def lap(self, phase: str, started: float) -> float:
        """Close a lap opened at perf-counter time *started*; returns the
        new lap start (current perf-counter time)."""
        import time

        now = time.perf_counter()
        self.add(phase, now - started)
        return now

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-phase ``{"seconds": ..., "laps": ..., "share": ...}``."""
        total = sum(self._seconds.values())
        return {
            phase: {
                "seconds": seconds,
                "laps": self._laps[phase],
                "share": seconds / total if total else 0.0,
            }
            for phase, seconds in sorted(self._seconds.items())
        }

    def finalize(self, horizon_slots):
        pass

    def reset(self):
        self._seconds.clear()
        self._laps.clear()


# ---------------------------------------------------------------------------
# Convenience constructors / analysis helpers
# ---------------------------------------------------------------------------


def standard_collectors(
    schedule,
    layout: Optional[CliqueLayout] = None,
    bucket_slots: int = 100,
    profile: bool = False,
) -> List[TelemetryCollector]:
    """The full shipped collector set for *schedule*.

    *layout* defaults to the schedule's own clique layout when it has one
    (SORN schedules do), else the flat single-clique layout — flat
    fabrics then report every traversal as intra-clique.  ``profile=True``
    appends a :class:`PhaseProfiler`.
    """
    if layout is None:
        layout = getattr(schedule, "layout", None)
    if layout is None:
        layout = CliqueLayout.flat(schedule.num_nodes)
    collectors: List[TelemetryCollector] = [
        LinkUtilizationCollector(layout),
        VoqHeatmapCollector(layout),
        HopCountCollector(bucket_slots=bucket_slots),
        PhaseAttributionCollector(schedule.period),
    ]
    if profile:
        collectors.append(PhaseProfiler())
    return collectors


def circuit_class_capacity(schedule, layout: CliqueLayout) -> Tuple[int, int]:
    """(intra, inter) circuit-slots per schedule period, all planes.

    One circuit-slot carries one cell, so dividing a run's measured
    per-class traversals by ``horizon / period x class_capacity`` yields
    per-class utilization — the measured counterpart of the paper's
    q/(q+1) vs 1/(q+1) provisioning split.
    """
    assign = layout.assignment()
    if assign.size != schedule.num_nodes:
        raise TelemetryError(
            f"layout covers {assign.size} nodes, schedule {schedule.num_nodes}"
        )
    bank, index = schedule.compiled()
    active = bank >= 0
    same = (active & (assign == assign[np.maximum(bank, 0)])).sum(axis=1)
    # Each bank row's circuits count once per (slot, plane) it runs in.
    uses = np.bincount(index.ravel(), minlength=len(bank))
    intra = int(uses @ same)
    return intra, int(uses @ active.sum(axis=1)) - intra
