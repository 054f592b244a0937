"""Vectorized fast path for the slot simulator.

The reference engine (:class:`repro.sim.engine.SlotSimulator`) walks
Python ``Cell`` objects through per-neighbor deques one at a time, which
is exact but makes the Fig 2f configuration (128 nodes, 8 cliques,
real-world traffic) the wall-clock ceiling of the whole benchmark suite.
This module re-implements the identical slot dynamics with the per-cell
object machinery stripped out:

- cell state lives in flat tables whose row is the cell's id (route
  row and its hop ranks, route length, hop cursor, owning flow, queue
  link), sized once for the run's cells, instead of per-cell ``Cell``
  objects, and the per-flow ledgers (injected/delivered/completion) are
  plain arrays finalized through
  :meth:`repro.sim.metrics.SimReport.from_flow_arrays`;
- path sampling is batched through
  :meth:`repro.routing.base.Router.paths_batch`, whose contract guarantees
  the RNG stream is consumed exactly as per-cell ``path()`` calls would.
  Every flow injects whole at its arrival slot, so the run's draw order
  is known before the clock starts, and its paths are presampled in
  arrival order, :data:`PRESAMPLE_CHUNK_CELLS` cells at a time;
- per-slot matchings come from the schedule's compiled bank of
  distinct matchings and its ``(slot, plane)`` index
  (:meth:`repro.schedules.schedule.CircuitSchedule.compiled`); each bank
  row's active circuits are extracted once per session, never rebuilt
  as ``Matching`` objects per slot;
- the VOQ fabric is :class:`repro.sim.network.LinkedVoqState` — one
  VOQ per (node, neighbor rank) as array intrusive linked lists
  (per-lane ``head``/``tail`` arrays plus one shared ``nxt`` chain over
  the cell table) with an ``(N, K)`` ``qlen`` matrix, ``K`` being the
  widest neighbor set.  Each bank row's circuits map to ranks through
  ``kcol`` and each cell's route row carries its hops' ranks, so
  enqueues, the per-plane drain, and the per-slot occupancy statistics
  are kernels (:mod:`repro.sim.kernels`) over flat VOQ keys, the flat
  tables and preallocated scratch, with no per-cell Python objects or
  deques anywhere on the hot path.

Each plane and each enqueue batch takes one of two exact kernels by its
size (:data:`SEQ_CUTOFF`).  Small ones — every plane of a fabric of a
hundred-odd nodes, and the cascade replays below — go through the
sequential kernels (:func:`repro.sim.kernels.drain_plane_seq`,
:func:`repro.sim.kernels.enqueue_seq`), which work on Python ints
through memoryviews of the flat tables: their cost is per cell, where
the array kernels pay dozens of NumPy calls per plane and batch however
little these hold.  Large ones take the array kernels.  A bank row
small enough on its circuit count carries its circuits as a Python list
of ``(src, VOQ key)`` pairs, built once per schedule install, so the
slot loop drains such a plane with one kernel call and no NumPy call;
every drain writes its delivered cell ids into one span delivery
buffer, which the span's ledger fold reads whole.

The delicate part of the array drain: the reference semantics allow a
cell forwarded by one circuit to be drained by a *later* circuit of the
same plane matching (a same-slot multi-hop cascade), so a naive "pop
everything, then forward" batch changes delivery timing.  The array
path drains optimistically (:func:`repro.sim.kernels.walk_candidates`)
and detects, *before committing*, whether any forwarded cell lands on a
circuit drained later in the same plane.  Cascade-free planes — the
overwhelming majority — commit in array code; cascade planes are
repaired in place (a tiny Python pass over exactly the affected
circuits) or, while event consumers are attached, replayed through the
sequential kernel, which forwards in source order and so needs no
cascade detection at all.  A circuit carries one cell per slot, so the
walk pops at most one cell per circuit and the events it re-emits are
one transmit and at most one delivery per popping circuit.  All paths
are bit-exact.

**Exactness contract.**  Given the same (schedule, router, config, rng
seed, workload), the vectorized engine reproduces the reference engine's
:class:`repro.sim.metrics.SimReport` and
:class:`repro.sim.telemetry.TelemetryHub` streams (a hub-registered
:class:`repro.sim.tracing.TraceRecorder` included) *exactly* — same
delivered counts, same FCT multiset, same queue traces, bit-identical
telemetry snapshots — because it preserves (a) the RNG draw order, (b)
per-VOQ FIFO order within each strict-priority lane, and (c) the
intra-slot ordering (arrivals, planes in order, circuits in source order
with immediate forwarding).
``tests/sim/test_vectorized.py`` and the differential fuzz harness
enforce this.

Select it with ``SimConfig(engine="vectorized")``; the object engine
remains the reference implementation and the default.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import CheckpointError
from ..schedules.schedule import CircuitSchedule
from ..traffic.workload import FlowTable
from .engine import SimSession, SlotSimulator
from .kernels import (
    append_cells,
    commit_pops,
    drain_plane_seq,
    enqueue_seq,
    walk_candidates,
)
from .metrics import SimReport
from .network import LinkedVoqState

__all__ = ["VectorizedSession"]

#: Most slots one iteration of the span loop runs (see
#: ``VectorizedSession._advance``).
SPAN_CAP = 64

#: Size cutoff between the scalar and the array kernels.  A plane whose
#: live circuits (nonempty VOQ pairs) plus a quarter of its circuits (the
#: row the scalar kernel scans) come to at most this drains through
#: :func:`repro.sim.kernels.drain_plane_seq` — every slot, without a live
#: count, when its circuits alone pass — and an enqueue batch of at
#: most this many cells goes through :func:`repro.sim.kernels.
#: enqueue_seq`; larger ones take the array walk and
#: :func:`repro.sim.kernels.append_cells`.  Read at run time: when a
#: bank row's circuit record is built (once per row and install), per
#: larger plane and per batch.  Both sides are exact, so the cutoff
#: moves only speed; DESIGN.md records the crossover it comes from.
SEQ_CUTOFF = 192

#: Most cells one presample chunk holds (see
#: ``VectorizedSession._refill_block_chunk``).  Chunks refill strictly in
#: arrival order, so any size gives bit-identical draws and results; this
#: one keeps refill overhead negligible and the chunk scratch small.
PRESAMPLE_CHUNK_CELLS = 1 << 15


def _flat_view(arr: np.ndarray) -> memoryview:
    """A flat memoryview of a C-contiguous array (it pins *arr*)."""
    return memoryview(arr.reshape(-1))


class VectorizedSession(SimSession):
    """The fused-kernel engine's resumable run state.

    Built by :meth:`repro.sim.engine.SlotSimulator.start` for
    ``SimConfig(engine="vectorized")``, from the simulator's schedule,
    router, config, RNG and failure timeline; its results equal the
    reference engine's slot for slot (module docstring).

    All cell state lives in flat tables on the session, one row per
    cell id (route row, hop ranks, route length, hop cursor, owning
    flow, intrusive ``nxt`` link), and all queue state in the array
    linked lists of :class:`repro.sim.network.LinkedVoqState`; the
    per-slot work is the kernel set in :mod:`repro.sim.kernels` plus a
    handful of gathers.  The cell tables and the scratch buffers (the
    walk's index buffer, the span delivery buffer) are allocated once
    here — the delivery buffer grows only on a swap to more planes — so
    the steady-state loop allocates only small result arrays; the
    sequential kernels reach the tables through flat memoryviews
    (:meth:`_bind_views`).  Pausing at a slot boundary is free;
    presampled path blocks stay valid across schedule swaps because the
    *router* — the only RNG consumer — never changes mid-run.

    Drain strategy per plane: each bank row's circuit record
    (:meth:`_plane_circuits`) decides on the row's circuit count.  A
    row whose circuits plus a quarter come to at most
    :data:`SEQ_CUTOFF` drains whole through the sequential kernel
    (:func:`repro.sim.kernels.drain_plane_seq`), called straight from
    the slot loop.  A larger row goes through :meth:`_drain_plane`,
    which selects by its live circuits: the sequential kernel again
    when few are live, else the optimistic candidate walk + commit,
    which handles the common cascade-free case in array code.  When a
    same-slot multi-hop cascade is possible there, the engine repairs
    the walk in place (the cascade set is tiny, so the repair is a
    few-element Python pass over exactly the affected circuits) or,
    while event consumers are attached, replays the whole plane through
    the sequential kernel.  All paths are bit-exact.
    """

    _engine_name = "vectorized"

    def __init__(
        self,
        sim: SlotSimulator,
        flows: FlowTable,
        duration_slots: int,
        measure_from: int,
    ):
        config = sim.config
        timeline = sim.timeline
        self.config = config
        self.router = sim.router
        self.rng = sim.rng
        self.schedule = sim.schedule
        self.duration_slots = duration_slots
        self.measure_from = measure_from
        self.horizon = duration_slots
        self.slot = 0
        self._done = False
        self._report: Optional[SimReport] = None
        self._timeline = timeline
        checker = None
        if config.check_invariants:
            from .invariants import InvariantChecker

            checker = InvariantChecker(self.schedule, timeline)
        self._checker = checker
        hub = config.telemetry
        if hub is not None and hub.is_noop:
            hub = None
        self._hub = hub
        # Telemetry seam, identical to the reference engine's: bound
        # methods resolved once, events emitted from the same intra-slot
        # positions with the same integer arguments — so both engines
        # feed collectors bit-identical streams (module docstring).
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
        # Seconds already attributed to the seq/drain/commit/repair/
        # replay sub-phases this slot; _advance charges the residual
        # (matching application, delivery accounting, the loop itself)
        # to "forward" so the profile still sums to wall time.
        self._prof_attr = 0.0
        num_flows = len(flows)
        num_nodes = self.schedule.num_nodes
        self.num_nodes = num_nodes
        # The table's read-only columns, used in place.
        self._flows = flows
        self._src_arr = flows.src
        self._dst_arr = flows.dst
        sz_np = self._fsizes = flows.size_cells
        arr_np = self._arr_np = flows.arrival_slot

        # Per-flow ledgers (flow-indexed, finalized by the report).
        self._fdcount = np.zeros(num_flows, dtype=np.int64)
        self._fhoptot = np.zeros(num_flows, dtype=np.int64)
        self._fcompletion = np.full(num_flows, -1, dtype=np.int64)

        short_threshold = config.short_flow_threshold_cells
        num_lanes = 2 if short_threshold is None else 4
        self._num_lanes = num_lanes
        if short_threshold is None:
            fresh_lane = np.ones(num_flows, dtype=np.int32)
            fwd_lane = np.zeros(num_flows, dtype=np.int32)
        else:
            short = sz_np <= short_threshold
            fresh_lane = np.where(short, 1, 3).astype(np.int32)
            fwd_lane = np.where(short, 0, 2).astype(np.int32)
        self._fresh_lane = fresh_lane
        self._fwd_lane = fwd_lane

        # Event consumers force the sequential replay of cascade planes
        # (the repair path does not emit) — see _drain_vec.
        self._emit = (
            checker is not None
            or self._rec_tx is not None
            or self._rec_del is not None
        )

        self._occupancy_sum = 0
        self._max_voq = 0
        self._window_delivered = 0
        self._delivered = 0
        self._injected = 0
        # VOQs that received cells this slot, for the max-VOQ statistic:
        # key arrays from the array kernels, int keys from the scalar
        # ones (both u * K + r; re-keyed in place if the rows widen).
        self._slot_pairs: List[np.ndarray] = []
        self._slot_keys: List[int] = []

        # Preallocated kernel scratch: the walk's index buffer, and the
        # span delivery buffer both drains write the span's delivered
        # cell ids into (sized by _install_schedule).
        self._ar = np.arange(num_nodes)
        self._dbuf = np.empty(0, dtype=np.int32)
        self._v_dbuf = memoryview(self._dbuf)
        self._blk_key = None
        self._circuits: List[Optional[tuple]] = []

        # --- Path presampling -------------------------------------------
        # Every in-run flow injects its full size at its arrival slot, and
        # the reference engine touches the RNG only to sample each injected
        # cell's path, so the whole injection stream (cells, routes,
        # first-hop VOQs, lanes) is determined before the clock starts.
        # It is presampled in bounded chunks of at most
        # PRESAMPLE_CHUNK_CELLS cells rather than materialized whole,
        # keeping the transient footprint (path scratch, flow-repeat
        # order, first-hop/lane blocks) flat in run length.  Chunks refill
        # strictly in arrival order, so per-cell path draws hit the RNG in
        # exactly the whole-run order (paths_batch draws are
        # stream-identical however the batch is split).  Global cell k
        # (in arrival order) has id k + 1.  The router is immutable for
        # the whole session, so presampled routes stay valid across
        # mid-run schedule swaps.
        fl = np.flatnonzero(arr_np < duration_slots)
        ordflows = fl[np.argsort(arr_np[fl], kind="stable")]
        counts = np.zeros(duration_slots, dtype=np.int64)
        np.add.at(counts, arr_np[fl], sz_np[fl])
        # Global cell index one past each slot's arrival batch.
        self._slot_end = np.cumsum(counts).tolist()
        self._ordflows = ordflows
        self._ord_cum = np.cumsum(sz_np[ordflows])
        self._blk_total = int(self._ord_cum[-1]) if ordflows.size else 0
        self._blk_base = 0
        self._blk_hi = 0
        self._blk_lane = None
        self._cursor = 0

        # The schedule's neighbors take the first (sorted) VOQ ranks.
        self.network = LinkedVoqState(num_nodes, num_lanes=num_lanes)
        self._install_schedule(sim.schedule)

        # --- Cell tables ------------------------------------------------
        # A cell's 1-based id is its row in every per-cell table; row 0 is
        # never read, so 0 is the empty sentinel of every head/tail/nxt
        # cursor (see repro.sim.kernels).  Sized once for the run's cells,
        # after the install (its rank build is the larger transient), and
        # left unfilled: each presample chunk writes its cells' rows.
        # Route rows are paths_batch's max_hops + 1 wide, and beside them
        # sits each hop's VOQ rank at its node (a rank is below N, so
        # int16 holds it on any fabric under 2**15 nodes).
        rows = self._blk_total + 1
        width = self.router.max_hops + 1
        rank_dtype = np.int16 if num_nodes <= np.iinfo(np.int16).max else np.int32
        self._routes = np.empty((rows, width), dtype=np.int32)
        self._rranks = np.empty((rows, width), dtype=rank_dtype)
        self._rowlen = np.empty(rows, dtype=np.int32)
        self._rhop = np.empty(rows, dtype=np.int32)
        self._rfid = np.empty(rows, dtype=np.int32)
        self._nxt = np.empty(rows, dtype=np.int32)
        # These arrays are never replaced, so their views are bound once.
        self._v_nxt = _flat_view(self._nxt)
        self._v_rhop = _flat_view(self._rhop)
        self._v_rfid = _flat_view(self._rfid)
        self._v_routes = _flat_view(self._routes)
        self._v_rranks = _flat_view(self._rranks)
        self._v_rowlen = _flat_view(self._rowlen)
        self._v_fwd_lane = _flat_view(self._fwd_lane)
        self._bind_views()

    def _bind_views(self) -> None:
        """(Re)bind the flat views of the VOQ arrays and the current
        presample chunk.

        The array kernels take flat NumPy views of the VOQ arrays; the
        scalar ones take memoryviews, which read and write Python ints at
        about half the cost of NumPy scalar indexing.  Either pins the
        array it came from: after a backing array is replaced, a stale
        view silently writes into the dead copy.  So everything that
        replaces one — a new presample chunk, widened VOQ rows, a
        checkpoint restore — calls this.  The cell tables are never
        replaced; their views are bound once, in ``__init__``.
        """
        net = self.network
        self._head = net.head.reshape(-1)
        self._tail = net.tail.reshape(-1)
        self._qlen = net.qlen.reshape(-1)
        self._v_head = memoryview(self._head)
        self._v_tail = memoryview(self._tail)
        self._v_qlen = memoryview(self._qlen)
        if self._blk_key is not None:
            self._v_blk_key = _flat_view(self._blk_key)
            self._v_blk_lane = _flat_view(self._blk_lane)

    def _hop_ranks(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """VOQ rank of every hop ``us -> vs`` (int32, same shape; -1
        where ``vs`` is negative: an idle circuit or a finished route).

        The one place node pairs become ranks.  A pair the network has
        not seen takes a new rank; if that widens the VOQ rows, every
        flat key held outside the network is re-keyed here.
        """
        hop = vs >= 0
        net = self.network
        old = net.ranks_per_node
        if hop.all():
            out = net.ranks(us.ravel(), vs.ravel()).reshape(vs.shape)
        else:
            out = np.full(vs.shape, -1, dtype=np.int32)
            out[hop] = net.ranks(us[hop], vs[hop])
        width = net.ranks_per_node
        if width != old:
            if old:

                def rekey(keys):
                    return keys // old * width + keys % old

                self._slot_keys[:] = [rekey(k) for k in self._slot_keys]
                self._slot_pairs[:] = [rekey(k) for k in self._slot_pairs]
                if self._blk_key is not None:
                    self._blk_key = rekey(self._blk_key)
            # Cached plane keys are stale; cleared in place because the
            # slot loop holds the list.
            self._circuits[:] = [None] * len(self._circuits)
            self._bind_views()
        return out

    def _install_schedule(self, new_schedule: CircuitSchedule) -> None:
        # Everything slot-periodic is derived from the schedule and must
        # be rebuilt on a swap; the VOQ state, cell tables and presampled
        # paths are schedule-independent and survive untouched — ranks
        # only grow, so a swap to new neighbors only adds ranks.
        self.schedule = new_schedule
        bank, index = new_schedule.compiled()
        self._bank = bank
        # The (slot, plane) -> bank row index, read by the slot loop as
        # Python ints (row * planes + plane) through a flat view: no
        # NumPy scalar per plane, and nothing built per install however
        # long the period.
        self._index = memoryview(np.ascontiguousarray(index).reshape(-1))
        # Per bank row: the rank at each source of the node it transmits
        # to (-1 = idle), so a plane's VOQs are u * K + kcol[m, u].
        self._kcol = self._hop_ranks(
            np.broadcast_to(np.arange(self.num_nodes), bank.shape), bank
        )
        # Per bank row, on first use: its circuit record (_plane_circuits).
        self._circuits[:] = [None] * len(bank)
        # A span delivers at most one cell per circuit, plane and slot,
        # and no more than the run's cells; a swap to more planes grows
        # the buffer (spans never cross a swap).
        size = min(SPAN_CAP * new_schedule.num_planes * self.num_nodes, self._blk_total)
        if self._dbuf.shape[0] < size:
            self._dbuf = np.empty(size, dtype=np.int32)
            self._v_dbuf = memoryview(self._dbuf)

    def _session_rng(self):
        return self.rng

    def _state_payload(self) -> dict:
        # Everything deterministic from (flows, config, schedule) is
        # rebuilt by a fresh start(); only the mutable tables travel: the
        # rows of the cells sampled so far (ids 1..blk_hi — linked lists
        # only ever reference those).  Route hop ranks are recomputed on
        # restore.
        from .checkpoint import encode_array

        if self._slot_pairs or self._slot_keys:
            raise CheckpointError(
                "internal error: slot-pair scratch not empty at a segment "
                "boundary"
            )
        live = slice(1, self._blk_hi + 1)
        return {
            "fdcount": encode_array(self._fdcount),
            "fhoptot": encode_array(self._fhoptot),
            "fcompletion": encode_array(self._fcompletion),
            "network": {
                name: encode_array(arr)
                for name, arr in self.network.export_state().items()
            },
            "routes": encode_array(self._routes[live]),
            "rowlen": encode_array(self._rowlen[live]),
            "rhop": encode_array(self._rhop[live]),
            "rfid": encode_array(self._rfid[live]),
            "nxt": encode_array(self._nxt[live]),
            "occupancy": self.network.total_occupancy,
            "cursor": self._cursor,
            "blk_base": self._blk_base,
            "blk_hi": self._blk_hi,
        }

    def _restore_state(self, state: dict) -> None:
        from .checkpoint import decode_array

        try:
            self._fdcount = decode_array(state["fdcount"])
            self._fhoptot = decode_array(state["fhoptot"])
            self._fcompletion = decode_array(state["fcompletion"])
            self.network.load_state(
                {name: decode_array(rec) for name, rec in state["network"].items()},
                int(state["occupancy"]),
            )
            self._cursor = int(state["cursor"])
            self._blk_base = int(state["blk_base"])
            self._blk_hi = int(state["blk_hi"])
            # Written into the fresh session's tables, which keep their
            # size and their views.
            live = slice(1, self._blk_hi + 1)
            for name in ("routes", "rowlen", "rhop", "rfid", "nxt"):
                rows = getattr(self, "_" + name)[live]
                saved = decode_array(state[name])
                if saved.shape != rows.shape:
                    raise ValueError(
                        f"{name} has shape {saved.shape}, expected {rows.shape}"
                    )
                rows[...] = saved
            # The restored rank table replaced the fresh session's, so
            # the schedule's rank rows and the route ranks are re-derived
            # from it (a saved run assigned every rank they use).
            self._install_schedule(self.schedule)
            self._fill_route_ranks(live)
            if self._blk_hi > self._blk_base:
                self._set_block_heads()
            self._bind_views()
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"vectorized-engine checkpoint state is structurally "
                f"invalid: {exc}"
            ) from exc

    def _injected_before(self, slot: int) -> np.ndarray:
        """Cells each flow has injected before *slot*: all of them if it
        arrived earlier and inside the run, none otherwise."""
        bound = min(slot, self.duration_slots)
        return np.where(self._arr_np < bound, self._fsizes, 0)

    def demand_snapshot(self):
        demand = np.zeros((self.num_nodes, self.num_nodes), dtype=np.int64)
        np.add.at(
            demand, (self._src_arr, self._dst_arr), self._injected_before(self.slot)
        )
        return demand

    # -- presample chunks ------------------------------------------------------

    def _fill_route_ranks(self, rows: slice) -> None:
        """Fill the hop ranks of the route *rows*: per entry, the VOQ
        rank of the hop leaving it (-1 past the route's last hop).  One
        hop column at a time, which keeps the lookup's scratch at a
        column's size."""
        paths = self._routes[rows]
        ranks = self._rranks[rows]
        ranks[:, -1] = -1
        for h in range(paths.shape[1] - 1):
            ranks[:, h] = self._hop_ranks(paths[:, h], paths[:, h + 1])

    def _set_block_heads(self) -> None:
        """First-hop VOQ keys and lanes of the current presample chunk."""
        rows = slice(self._blk_base + 1, self._blk_hi + 1)
        self._blk_key = (
            self._routes[rows, 0].astype(np.int64) * self.network.ranks_per_node
            + self._rranks[rows, 0]
        )
        self._blk_lane = self._fresh_lane[self._rfid[rows]]

    def _refill_block_chunk(self) -> None:
        """Presample the next chunk: global cells [lo, hi), ids lo+1..hi.

        Finds the arrival-ordered flows covering the chunk via one
        searchsorted on the cumulative size array, repeats them into the
        per-cell order, trims the partial first/last flows, samples
        exactly those cells' paths and writes the cells' table rows in
        place.  Because refills happen strictly sequentially, the RNG
        consumes draws in the whole-run order.
        """
        lo = self._blk_hi
        hi = min(self._blk_total, lo + PRESAMPLE_CHUNK_CELLS)
        cum = self._ord_cum
        first = int(np.searchsorted(cum, lo, side="right"))
        last = int(np.searchsorted(cum, hi - 1, side="right"))
        flows_slice = self._ordflows[first : last + 1]
        order = np.repeat(flows_slice, self._fsizes[flows_slice])
        start = int(cum[first - 1]) if first > 0 else 0
        order = order[lo - start : hi - start]
        paths, lengths = self.router.paths_batch(
            self._src_arr[order], self._dst_arr[order], self.rng
        )
        rows = slice(lo + 1, hi + 1)
        self._routes[rows] = paths
        self._rowlen[rows] = lengths
        # Drop the router's int64 block before the hop ranks are looked up.
        del paths, lengths
        self._rhop[rows] = 0
        self._rfid[rows] = order
        self._nxt[rows] = 0
        self._fill_route_ranks(rows)
        self._blk_base = lo
        self._blk_hi = hi
        self._set_block_heads()
        self._bind_views()

    # -- per-plane drain ------------------------------------------------------

    def _prof_add(self, phase: str, started: float) -> float:
        """Attribute seconds since *started* to a drain sub-phase;
        returns the new lap start."""
        now = perf_counter()
        dt = now - started
        self._prof.add(phase, dt)
        self._prof_attr += dt
        return now

    def _plane_circuits(self, dst_row: np.ndarray, krow: np.ndarray) -> tuple:
        """A plane's circuit record ``(pairs, dst row, rank row, active
        srcs, their VOQ keys)``.

        The record decides the plane's drain on its circuit count alone:
        a plane whose circuits plus a quarter of them (the share of the
        row the sequential kernel scans) come to at most
        :data:`SEQ_CUTOFF` — read here, when the record is built — can
        never outgrow the sequential kernel, whatever its live count, so
        it carries ``pairs``, its active ``(src, VOQ key)`` pairs in
        source order as a Python list, and the slot loop hands them to
        :func:`repro.sim.kernels.drain_plane_seq` directly.  Larger
        planes carry ``pairs=None`` and go through :meth:`_drain_plane`.
        """
        srcs = np.flatnonzero(krow >= 0)
        keys = srcs * self.network.ranks_per_node + krow[srcs]
        srcs.setflags(write=False)
        keys.setflags(write=False)
        num_circuits = srcs.shape[0]
        pairs = None
        if num_circuits + (num_circuits >> 2) <= SEQ_CUTOFF:
            pairs = list(zip(srcs.tolist(), keys.tolist()))
        return pairs, dst_row, krow, srcs, keys

    def _drain_plane(self, slot: int, plane: int, circ: tuple, dpos: int) -> int:
        """Drain one plane too large to be sequential on its circuit
        count; writes its delivered cell ids, in exact delivery
        (circuit-major pop) order, to the span delivery buffer from
        *dpos* on and returns the position one past the last.

        Selects by the plane's size now: its live circuits (those whose
        VOQ is nonempty) plus a quarter of all its circuits, which the
        sequential kernel scans.  Up to :data:`SEQ_CUTOFF`, the
        sequential kernel over the whole row — its cost is per cell and
        per circuit, where the array walk pays a fixed cost in NumPy
        calls.  Above it, the array walk over only the live circuits —
        a paper-scale plane matches N circuits but usually only part of
        them have queued cells, and every per-circuit gather/scatter in
        the walk and commit scales with the circuit count.  Filtering
        cannot change cascade-free semantics (a circuit with an empty
        VOQ pops nothing and commits nothing); cascade detection still
        checks forwards against the *full* rank row, because a forwarded
        cell may land on, and be drained by, a circuit whose VOQ started
        the slot empty — the repair slots such a circuit into source
        order, and the replay (while event consumers are attached)
        drains the full circuit set through the sequential kernel, here.
        """
        _, dst_row, _, srcs, keys = circ
        num_circuits = srcs.shape[0]
        live = self._qlen[keys] > 0
        nlive = int(np.count_nonzero(live))
        if nlive == 0:
            return dpos
        phase = "seq"
        if nlive + (num_circuits >> 2) > SEQ_CUTOFF:
            if nlive < num_circuits:
                end = self._drain_vec(slot, plane, circ, srcs[live], keys[live], dpos)
            else:
                end = self._drain_vec(slot, plane, circ, srcs, keys, dpos)
            if end is not None:
                return end
            phase = "replay"
        prof = self._prof
        t0 = perf_counter() if prof is not None else 0.0
        events = [] if self._emit else None
        dpos = drain_plane_seq(
            self._v_head,
            self._v_tail,
            self._v_qlen,
            self._v_nxt,
            self._v_rhop,
            self._v_rfid,
            self._v_routes,
            self._v_rranks,
            self._routes.shape[1],
            self._v_rowlen,
            self._v_fwd_lane,
            zip(srcs.tolist(), keys.tolist()),
            self.network.ranks_per_node,
            self._v_dbuf,
            dpos,
            self._slot_keys,
            events,
        )
        if events:
            self._emit_events(slot, plane, dst_row, events)
        if prof is not None:
            self._prof_add(phase, t0)
        return dpos

    def _drain_vec(
        self, slot: int, plane: int, circ: tuple, srcs, keys, dpos: int
    ) -> Optional[int]:
        """Optimistic walk + commit over (a live subset of) one plane.

        ``srcs``/``keys`` are the circuits actually walked; *circ* holds
        the plane's complete matching, which the cascade test checks
        forwards against.  Writes the delivered cell ids to the span
        delivery buffer from *dpos* on and returns the position one past
        the last — or ``None``, having mutated nothing, when event
        consumers need a cascade plane replayed (:meth:`_drain_plane`
        does that): the walk itself never mutates, so abandoning it is
        safe.
        """
        prof = self._prof
        t = perf_counter() if prof is not None else 0.0
        head = self._head
        tail = self._tail
        qlen = self._qlen
        nxt = self._nxt
        routes = self._routes
        rranks = self._rranks
        rowlen = self._rowlen
        rhop = self._rhop
        width = self.network.ranks_per_node
        num_lanes = self._num_lanes
        _, dst_row, krow, full_srcs, _ = circ
        # One candidate per walked circuit, in source order: the plane's
        # pop order.
        cand, cur, slots = walk_candidates(head, nxt, keys, num_lanes, self._ar)
        valid = cand > 0
        popped = cand[valid]
        if popped.size == 0:
            if prof is not None:
                self._prof_add("drain", t)
            return dpos
        hops = rhop[popped]
        delm = hops == rowlen[popped] - 2
        fwm = ~delm
        fw = popped[fwm]
        extra = None
        if fw.size:
            fh = hops[fwm] + 1
            fu = routes[fw, fh]
            fr = rranks[fw, fh]
            hit = krow[fu] == fr
            if np.any(hit):
                # A forwarded cell lands in a VOQ this same plane still
                # (or already) drains: possible same-slot cascade.
                # The repair does not emit events, so event consumers
                # send the plane through the sequential replay.
                if self._emit:
                    if prof is not None:
                        self._prof_add("drain", t)
                    return None
                # Pop positions are circuit indices, so position
                # comparisons are source-id comparisons and work
                # identically on a filtered subset: a target circuit
                # whose VOQ started the slot empty (so the live filter
                # left it out of the walk) gets a half-offset key that
                # slots it into source order between its walked
                # neighbors.
                fpos = np.flatnonzero(valid)[fwm]
                tpos = np.searchsorted(srcs, fu)
                tkey = tpos.astype(np.float64)
                if srcs is not full_srcs:
                    nsrc = srcs.shape[0]
                    bounded = tpos < nsrc
                    inset = np.zeros(fu.shape[0], dtype=bool)
                    inset[bounded] = srcs[tpos[bounded]] == fu[bounded]
                    tkey[~inset] -= 0.5
                real = hit & (tkey > fpos)
                if np.any(real):
                    if prof is not None:
                        t = self._prof_add("drain", t)
                    extra = self._repair_cascades(
                        srcs, krow, cand, cur, fw, fu, fr, fpos, tkey, real
                    )
                    valid = cand > 0
                    popped = cand[valid]
                    hops = rhop[popped]
                    delm = hops == rowlen[popped] - 2
                    fwm = ~delm
                    fw = popped[fwm]
                    fh = hops[fwm] + 1
                    fu = routes[fw, fh]
                    fr = rranks[fw, fh]
                    if prof is not None:
                        t = self._prof_add("repair", t)
        if prof is not None and extra is None:
            t = self._prof_add("drain", t)
        commit_pops(head, tail, qlen, keys, slots, cur, valid)
        if fw.size:
            rhop[fw] = fh
        if extra is None:
            if self._emit:
                self._emit_events(
                    slot,
                    plane,
                    dst_row,
                    zip(srcs[valid].tolist(), popped.tolist(), delm.tolist()),
                )
            if fw.size:
                self._slot_pairs.append(
                    append_cells(
                        head,
                        tail,
                        nxt,
                        qlen,
                        fw,
                        fu.astype(np.int64) * width + fr,
                        self._fwd_lane[self._rfid[fw]],
                        num_lanes,
                    )
                )
            deliv = popped[delm]
            end = dpos + deliv.shape[0]
            self._dbuf[dpos:end] = deliv
            if prof is not None:
                self._prof_add("commit", t)
            return end
        # Merge the repair results: passthrough cells skip the append
        # (they were popped again by their target circuit), their extra
        # hop advances apply on top, and extra appends/deliveries splice
        # into the plane's circuit-major order at their positions.
        passthrough = extra["passthrough"]
        for cid, bumps in extra["advances"].items():
            rhop[cid] += bumps
        fpos = np.flatnonzero(valid)[fwm]
        app_keys = fu.astype(np.int64) * width + fr
        if passthrough:
            pt = np.fromiter(passthrough, dtype=np.int32, count=len(passthrough))
            keep = ~np.isin(fw, pt)
            app_cids, app_keys, app_pos = fw[keep], app_keys[keep], fpos[keep]
        else:
            app_cids, app_pos = fw, fpos
        if extra["appends"]:
            # Positions are circuit-order keys: ints for walked
            # circuits, half-offset floats for cascade targets the
            # live filter left out of the walk.
            e_pos = np.asarray([e[0] for e in extra["appends"]], dtype=np.float64)
            e_cid = np.asarray([e[1] for e in extra["appends"]], dtype=np.int32)
            e_key = np.asarray([e[2] for e in extra["appends"]], dtype=np.int64)
            order = np.argsort(
                np.concatenate([app_pos, e_pos]), kind="stable"
            )
            app_cids = np.concatenate([app_cids, e_cid])[order]
            app_keys = np.concatenate([app_keys, e_key])[order]
        if app_cids.size:
            self._slot_pairs.append(
                append_cells(
                    head,
                    tail,
                    nxt,
                    qlen,
                    app_cids,
                    app_keys,
                    self._fwd_lane[self._rfid[app_cids]],
                    num_lanes,
                )
            )
        deliv_cids = popped[delm]
        if extra["deliveries"]:
            d_pos = np.asarray([e[0] for e in extra["deliveries"]], dtype=np.float64)
            d_cid = np.asarray([e[1] for e in extra["deliveries"]], dtype=np.int32)
            order = np.argsort(
                np.concatenate([np.flatnonzero(valid)[delm], d_pos]),
                kind="stable",
            )
            deliv_cids = np.concatenate([deliv_cids, d_cid])[order]
        end = dpos + deliv_cids.shape[0]
        self._dbuf[dpos:end] = deliv_cids
        if prof is not None:
            self._prof_add("commit", t)
        return end

    def _repair_cascades(
        self, srcs, krow, cand, cur, fw, fu, fr, fpos, tkey, real
    ) -> dict:
        """Exactly replay the cascade set of one plane.

        The optimistic walk is wrong only at circuits that *receive* a
        same-plane forward from an earlier circuit: the arriving cell can
        preempt (strictly by lane priority, or by landing in an empty
        queue) what the snapshot walk popped there.  This pass processes
        exactly those target circuits in source order against the
        untouched snapshot state, cancelling preempted snapshot pops,
        marking pass-through cells (popped again by their target, so
        never appended), recording their extra hop advances and any
        chained deliveries/appends.  Everything outside the cascade set
        keeps its walk result — the vectorized commit stays valid.

        Targets are keyed ``(position, source)``: the circuit index in
        the walked set when the target was walked, or the half-offset
        insertion index from ``tkey`` when its VOQ started the slot
        empty and the live filter left it out — in which case there
        is no snapshot pop to cancel and the winning arrival is simply
        popped straight through.  Both keyings order identically to full
        source order, so recorded positions splice into the plane's
        circuit-major order exactly as the unfiltered walk would have
        placed them.
        """
        head = self._head
        width = self.network.ranks_per_node
        lane_stride = head.shape[0] // self._num_lanes
        rhop = self._rhop
        rfid = self._rfid
        routes = self._routes
        rranks = self._rranks
        rowlen = self._rowlen
        fwd_lane = self._fwd_lane
        num_lanes = self._num_lanes
        lanes = np.arange(num_lanes, dtype=np.int64) * lane_stride
        nsrc = srcs.shape[0]
        # target (position, source) -> [(fwd position, cid, VOQ key, chained)]
        arrivals: Dict[Tuple[float, int], List] = {}
        for k in np.flatnonzero(real):
            key = (float(tkey[k]), int(fu[k]))
            arrivals.setdefault(key, []).append(
                (int(fpos[k]), int(fw[k]), int(fu[k]) * width + int(fr[k]), False)
            )
        passthrough: set = set()
        cancelled: set = set()
        advances: Dict[int, int] = {}
        extra_del: List = []
        extra_app: List = []
        done: set = set()
        while True:
            todo = [t for t in arrivals if t not in done]
            if not todo:
                break
            key = min(todo)
            done.add(key)
            entries = sorted(
                entry for entry in arrivals[key] if entry[1] not in cancelled
            )
            if not entries:
                continue
            pos = key[0]
            q = entries[0][2]
            walked = pos.is_integer()
            j = int(pos) if walked else -1
            snap_cid = int(cand[j]) if walked else 0
            if snap_cid > 0:
                snap_lane = 0
                for lane in range(num_lanes):
                    if int(head[lane * lane_stride + q]) == snap_cid:
                        snap_lane = lane
                        break
            else:
                snap_lane = num_lanes
            best = None  # (lane, forwarder position, cid)
            for entry in entries:
                lane = int(fwd_lane[rfid[entry[1]]])
                if lane >= snap_lane:
                    continue  # cannot beat the snapshot pop
                if int(head[lane * lane_stride + q]) > 0:
                    continue  # lane nonempty: the arrival tails, head wins
                if best is None or lane < best[0]:
                    best = (lane, entry[0], entry[1])
            # Chained arrivals that do not win still need their append
            # recorded (vector-walk arrivals are already in the forward
            # set; chained ones exist only in this pass).
            winner = best[2] if best is not None else 0
            for entry in entries:
                if entry[3] and entry[1] != winner:
                    extra_app.append((entry[0], entry[1], entry[2]))
            if best is None:
                continue
            cell = best[2]
            if snap_cid > 0:
                cancelled.add(snap_cid)
                cur[:, j] = head[lanes + q]
            if walked:
                cand[j] = 0
            passthrough.add(cell)
            # Position after the committed first advance plus any chained
            # advances already recorded this pass — a cell can win several
            # cascade hops in one slot, and rhop itself is only updated
            # after this pass returns.
            h1 = int(rhop[cell]) + 1 + advances.get(cell, 0)
            if h1 == int(rowlen[cell]) - 2:
                extra_del.append((pos, cell))
                continue
            advances[cell] = advances.get(cell, 0) + 1
            h2 = h1 + 1
            u2 = int(routes[cell, h2])
            r2 = int(rranks[cell, h2])
            if int(krow[u2]) == r2:
                k2 = int(np.searchsorted(srcs, u2))
                if k2 < nsrc and int(srcs[k2]) == u2:
                    key2 = (float(k2), u2)
                else:
                    key2 = (k2 - 0.5, u2)
                if key2 > key:
                    arrivals.setdefault(key2, []).append(
                        (pos, cell, u2 * width + r2, True)
                    )
                    continue
            extra_app.append((pos, cell, u2 * width + r2))
        return {
            "passthrough": passthrough,
            "advances": advances,
            "deliveries": extra_del,
            "appends": extra_app,
        }

    # -- event emission and flow accounting -----------------------------------

    def _emit_events(self, slot, plane, dst_row, pops) -> None:
        """Re-emit the reference engine's per-circuit event stream from
        the drain results.  *pops* yields one ``(src, cell id,
        delivered)`` record per pop, in pop order: circuit ``src ->
        dst_row[src]`` carried the cell, which delivered where
        ``delivered``.  Each pop emits its circuit's transmit, then the
        cell's delivery — the exact interleave the object loop hands the
        invariant checker and the telemetry hub."""
        checker = self._checker
        rec_tx = self._rec_tx
        rec_del = self._rec_del
        routes = self._routes
        rowlen = self._rowlen
        rfid = self._rfid
        arrival = self._arr_np
        dsts = dst_row.tolist()
        for src, cid, delivered in pops:
            dst = dsts[src]
            if checker is not None:
                checker.record_transmit(slot, plane, src, dst, 1)
            if rec_tx is not None:
                rec_tx(slot, plane, src, dst, 1)
            if delivered:
                length = int(rowlen[cid])
                injected = int(arrival[rfid[cid]])
                if checker is not None:
                    checker.record_delivery(slot, injected, routes[cid, :length])
                if rec_del is not None:
                    rec_del(slot, injected, length - 1)

    def _account_deliveries_batch(
        self, cids: np.ndarray, first_slot: int, slot_ends: List[int]
    ) -> None:
        """Fold a span's deliveries into the per-flow ledgers.

        *cids* are the span's delivered cell ids in delivery order, and
        ``slot_ends[i]`` is how many of them slot ``first_slot + i`` and
        the slots before it delivered.  Counts and hop totals are
        additive, and a flow's completion slot is the slot of the
        delivery that made its count reach its size — located here as
        the k-th of the flow's in-span deliveries (the stable sort by
        flow preserves delivery order), whose position in *cids* falls
        in one slot's share.
        """
        fids = self._rfid[cids]
        hops = self._rowlen[cids].astype(np.int64) - 1
        uniq, inverse = np.unique(fids, return_inverse=True)
        counts = np.bincount(inverse)
        old = self._fdcount[uniq]
        new = old + counts
        self._fdcount[uniq] = new
        self._fhoptot[uniq] += np.bincount(inverse, weights=hops).astype(np.int64)
        compm = new == self._fsizes[uniq]
        if np.any(compm):
            order = np.argsort(fids, kind="stable")
            starts = np.searchsorted(fids[order], uniq[compm])
            kth = self._fsizes[uniq[compm]] - old[compm] - 1
            pos = order[starts + kth]
            self._fcompletion[uniq[compm]] = first_slot + np.searchsorted(
                slot_ends, pos, side="right"
            )

    # -- the slot loop ---------------------------------------------------------

    def _advance(self, stop: Optional[int]) -> None:
        """Run until slot *stop* (``None``: the end of the run).

        One loop over spans.  A span before the arrival horizon runs to
        the nearest of ``slot + SPAN_CAP``, the horizon and *stop*; a
        span past the horizon (the drain phase) is one slot, because
        the drain decision is made per slot.  Each iteration runs the
        one slot body over the span — injection, fault-masked or
        periodic circuits per plane, the per-slot observer hooks — then
        folds the span's deliveries into the flow ledgers and makes the
        horizon/drain decision once.  Nothing else ends a span: the body
        masks faults and refills presample chunks per slot, and every
        observer reads per-slot state only.

        Every drain writes its delivered cell ids to one span delivery
        buffer, so the span's deliveries are a prefix of it, in delivery
        order.  A plane whose circuit record carries ``pairs`` (see
        :meth:`_plane_circuits`) costs one kernel call and no NumPy
        call; every other plane goes through :meth:`_drain_plane`.
        """
        if self._done:
            return
        config = self.config
        timeline = self._timeline
        checker = self._checker
        rec_sample = self._rec_sample
        prof = self._prof
        emit = self._emit
        duration_slots = self.duration_slots
        measure_from = self.measure_from
        network = self.network
        num_lanes = self._num_lanes
        schedule = self.schedule
        num_planes = schedule.num_planes
        period = schedule.period
        bank = self._bank
        kcol = self._kcol
        index = self._index
        circuits = self._circuits
        slot_end = self._slot_end
        slot_pairs = self._slot_pairs
        slot_keys = self._slot_keys
        occupancy_sum = self._occupancy_sum
        max_voq = self._max_voq
        window_delivered = self._window_delivered
        delivered_running = self._delivered
        injected_running = self._injected
        cursor = self._cursor
        slot = self.slot
        # The sequential kernels' arguments.  The VOQ views and the rank
        # width change only when a presample refill widens the VOQ rows,
        # so they are re-read after each refill; the rest never change.
        v_head, v_tail, v_qlen = self._v_head, self._v_tail, self._v_qlen
        ranks_per_node = network.ranks_per_node
        v_nxt = self._v_nxt
        v_rhop = self._v_rhop
        v_rfid = self._v_rfid
        v_routes = self._v_routes
        v_rranks = self._v_rranks
        route_width = self._routes.shape[1]
        v_rowlen = self._v_rowlen
        v_fwd_lane = self._v_fwd_lane
        v_dbuf = self._v_dbuf

        while stop is None or slot < stop:
            if slot < duration_slots:
                span_end = min(slot + SPAN_CAP, duration_slots)
                if stop is not None and stop < span_end:
                    span_end = stop
            else:
                span_end = slot + 1
            # The span's deliveries fill the delivery buffer up to dpos;
            # slot_ends[i] is dpos at the end of the span's i-th slot.
            dpos = 0
            slot_ends: List[int] = []
            forward_s = 0.0
            for s in range(slot, span_end):
                if prof is not None:
                    lap = perf_counter()
                if s < duration_slots:
                    # The slot's arrival batch is the next slice of the
                    # presampled stream.  A batch that crosses a chunk
                    # boundary appends in pieces — FIFO order, credits
                    # and touched VOQs are unaffected by the split.
                    end = slot_end[s]
                    while end > cursor:
                        if cursor >= self._blk_hi:
                            self._refill_block_chunk()
                            v_head, v_tail = self._v_head, self._v_tail
                            v_qlen = self._v_qlen
                            ranks_per_node = network.ranks_per_node
                        stop_at = min(end, self._blk_hi)
                        b = cursor - self._blk_base
                        e = stop_at - self._blk_base
                        if e - b <= SEQ_CUTOFF:
                            enqueue_seq(
                                v_head,
                                v_tail,
                                v_qlen,
                                v_nxt,
                                self._blk_base + 1,
                                self._v_blk_key,
                                self._v_blk_lane,
                                b,
                                e,
                                slot_keys,
                            )
                        else:
                            slot_pairs.append(
                                append_cells(
                                    self._head,
                                    self._tail,
                                    self._nxt,
                                    self._qlen,
                                    np.arange(
                                        cursor + 1, stop_at + 1, dtype=np.int32
                                    ),
                                    self._blk_key[b:e],
                                    self._blk_lane[b:e],
                                    num_lanes,
                                )
                            )
                        network.credit(stop_at - cursor)
                        injected_running += stop_at - cursor
                        cursor = stop_at
                if prof is not None:
                    lap = prof.lap("inject", lap)

                # One matching per plane; the kernels preserve
                # source-order drain with immediate forwarding (module
                # docstring), so same-plane cascades behave exactly as
                # in the reference engine.
                slot_start = dpos
                row = (s % period) * num_planes
                faulted = timeline is not None and timeline.affects(s)
                for plane in range(num_planes):
                    m = index[row + plane]
                    if faulted:
                        # Masked slots bypass the bank-row memo: mask the
                        # bank row for this absolute slot exactly as the
                        # reference engine masks its Matching.
                        dst_row = timeline.mask_dst_row(bank[m], s, plane)
                        circ = self._plane_circuits(
                            dst_row, np.where(dst_row >= 0, kcol[m], -1)
                        )
                    else:
                        circ = circuits[m]
                        if circ is None:
                            circ = circuits[m] = self._plane_circuits(
                                bank[m], kcol[m]
                            )
                    pairs = circ[0]
                    if pairs is None:
                        dpos = self._drain_plane(s, plane, circ, dpos)
                        continue
                    if not pairs:
                        continue
                    if prof is not None:
                        t0 = perf_counter()
                    events = [] if emit else None
                    dpos = drain_plane_seq(
                        v_head,
                        v_tail,
                        v_qlen,
                        v_nxt,
                        v_rhop,
                        v_rfid,
                        v_routes,
                        v_rranks,
                        route_width,
                        v_rowlen,
                        v_fwd_lane,
                        pairs,
                        ranks_per_node,
                        v_dbuf,
                        dpos,
                        slot_keys,
                        events,
                    )
                    if events:
                        self._emit_events(s, plane, circ[1], events)
                    if prof is not None:
                        self._prof_add("seq", t0)
                got = dpos - slot_start
                if got:
                    network.debit(got)
                    delivered_running += got
                    if s >= measure_from:
                        window_delivered += got
                slot_ends.append(dpos)
                if prof is not None:
                    now = perf_counter()
                    forward_s += (now - lap) - self._prof_attr
                    self._prof_attr = 0.0
                    lap = now

                if checker is not None:
                    checker.end_slot(s, network, injected_running, delivered_running)
                occupancy_sum += network.total_occupancy
                if slot_pairs:
                    # Only VOQs that received cells this slot can set a
                    # new max; gather those instead of scanning them all.
                    touched = (
                        slot_pairs[0]
                        if len(slot_pairs) == 1
                        else np.concatenate(slot_pairs)
                    )
                    if touched.size:
                        voq_now = int(self._qlen[touched].max())
                        if voq_now > max_voq:
                            max_voq = voq_now
                    slot_pairs.clear()
                if slot_keys:
                    voq_now = max(map(v_qlen.__getitem__, slot_keys))
                    if voq_now > max_voq:
                        max_voq = voq_now
                    slot_keys.clear()
                if rec_sample is not None:
                    rec_sample(s, network, delivered_running)
                if prof is not None:
                    prof.lap("stats", lap)

            if prof is not None:
                lap = perf_counter()
            if dpos:
                self._account_deliveries_batch(self._dbuf[:dpos], slot, slot_ends)
            if prof is not None:
                # The drain paths bill themselves to the seq/drain/
                # commit/repair/replay sub-phases; "forward" keeps the
                # residual (matching lookup, delivery accounting, loop
                # glue) so the summary still covers the whole span.
                prof.add("forward", forward_s + (perf_counter() - lap))

            slot = span_end
            if slot >= duration_slots:
                if (
                    not (config.drain and network.total_occupancy > 0)
                    or slot >= duration_slots + config.max_drain_slots
                ):
                    self.horizon = slot
                    self._done = True
                    break

        self._occupancy_sum = occupancy_sum
        self._max_voq = max_voq
        self._window_delivered = window_delivered
        self._delivered = delivered_running
        self._injected = injected_running
        self._cursor = cursor
        self.slot = slot

    def _build_report(self) -> SimReport:
        horizon = self.horizon
        return SimReport.from_flow_arrays(
            self._fsizes,
            self._arr_np,
            self._injected_before(horizon),
            self._fdcount,
            self._fcompletion,
            self._fhoptot,
            num_nodes=self.num_nodes,
            duration_slots=horizon,
            max_voq=self._max_voq,
            mean_occupancy=self._occupancy_sum / horizon if horizon else 0.0,
            window_start=self.measure_from,
            window_delivered=self._window_delivered,
            short_threshold_cells=self.config.report_threshold_cells,
        )

