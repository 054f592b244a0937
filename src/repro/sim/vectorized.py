"""Vectorized fast path for the slot simulator.

The reference engine (:class:`repro.sim.engine.SlotSimulator`) walks
Python ``Cell`` objects through per-neighbor deques one at a time, which
is exact but makes the Fig 2f configuration (128 nodes, 8 cliques,
real-world traffic) the wall-clock ceiling of the whole benchmark suite.
This module re-implements the identical slot dynamics with the per-cell
object machinery stripped out:

- cell state lives in flat id-indexed tables (source-route list, hop
  cursor, owning flow) instead of per-cell ``Cell`` objects, and the
  per-flow ledgers (injected/delivered/completion) are plain arrays
  finalized through :meth:`repro.sim.metrics.SimReport.from_flow_arrays`;
- path sampling is batched through
  :meth:`repro.routing.base.Router.paths_batch`, whose contract guarantees
  the RNG stream is consumed exactly as per-cell ``path()`` calls would.
  When the full draw order is known up front (per-flow mode, or per-cell
  mode without an injection window) the *entire run* is sampled in one
  call before the clock starts; only per-cell windowed runs — whose
  refill draws depend on delivery timing — sample per slot;
- per-slot matchings come from the schedule's precomputed dense
  destination table (:meth:`repro.schedules.schedule.CircuitSchedule.
  dest_table`) and are cached as circuit pair lists per
  (slot-in-period, plane) rather than rebuilt as ``Matching`` objects
  every slot;
- the VOQ fabric is :class:`repro.sim.network.LinkedVoqState` — array
  intrusive linked lists (per-lane ``head``/``tail`` cubes plus one
  shared ``nxt`` chain over the cell table) with a dense ``(N, N)``
  ``qlen`` matrix — so batch enqueues, the per-plane drain, and the
  per-slot occupancy statistics are all array kernels
  (:mod:`repro.sim.kernels`) over preallocated scratch, with no per-cell
  Python objects or deques anywhere on the hot path.

The delicate part is the per-plane drain: the reference semantics allow
a cell forwarded by one circuit to be drained by a *later* circuit of
the same plane matching (a same-slot multi-hop cascade), so a naive
"pop everything, then forward" batch changes delivery timing.  The fused
engine drains optimistically (:func:`repro.sim.kernels.walk_candidates`)
and detects, *before committing*, whether any forwarded cell lands on a
circuit drained later in the same plane.  Cascade-free planes — the
overwhelming majority — commit entirely in array code; cascade planes
are either repaired in place (single-cell circuits with no event
consumers: a tiny Python pass over exactly the affected circuits) or
replayed through the exact sequential kernel
(:func:`repro.sim.kernels.drain_plane_seq`).  All paths are bit-exact.

**Exactness contract.**  Given the same (schedule, router, config, rng
seed, workload), the vectorized engine reproduces the reference engine's
:class:`repro.sim.metrics.SimReport` and
:class:`repro.sim.telemetry.TelemetryHub` streams (a hub-registered
:class:`repro.sim.tracing.TraceRecorder` included) *exactly* — same
delivered counts, same FCT multiset, same queue traces, bit-identical
telemetry snapshots — because it preserves (a) the RNG draw order, (b)
per-VOQ FIFO order within each strict-priority lane, and (c) the
intra-slot ordering (arrivals, planes in order, circuits in source order
with immediate forwarding, windowed refills in delivery order).
``tests/sim/test_vectorized.py`` and the differential fuzz harness
enforce this.

Select it with ``SimConfig(engine="vectorized")``; the object engine
remains the reference implementation and the default.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CheckpointError
from ..routing.base import Router
from ..schedules.schedule import CircuitSchedule
from ..traffic.workload import FlowSpec
from .engine import SimSession
from .kernels import (
    _EMPTY32,
    append_cells,
    commit_pops,
    drain_plane_seq,
    walk_candidates,
)
from .metrics import SimReport
from .network import LinkedVoqState

__all__ = ["VectorizedEngine"]

#: Most slots one iteration of the span loop runs (see
#: ``VectorizedSession._advance``).
SPAN_CAP = 64


class VectorizedEngine:
    """Array-based engine behind ``SimConfig(engine="vectorized")``.

    Construct with the same (schedule, router, config, rng) quadruple as
    :class:`repro.sim.engine.SlotSimulator`; :meth:`run` mirrors the
    reference engine's semantics exactly (see the module docstring for
    the equivalence argument).  Not instantiated directly in normal use —
    ``SlotSimulator.run`` dispatches here based on the config.
    """

    def __init__(
        self,
        schedule: CircuitSchedule,
        router: Router,
        config,
        rng: np.random.Generator,
        timeline=None,
    ):
        self.schedule = schedule
        self.router = router
        self.config = config
        self.rng = rng
        #: Optional :class:`repro.sim.failures.FailureTimeline`.  Slots a
        #: fault touches bypass the periodic active-circuit cache and are
        #: masked per absolute slot, identically to the reference engine.
        self.timeline = timeline

    def start(
        self,
        flows: Sequence[FlowSpec],
        duration_slots: int,
        measure_from: int = 0,
    ) -> "VectorizedSession":
        """Begin a resumable run (see :meth:`repro.sim.engine.
        SlotSimulator.start`); the session's segmentation is exactly
        equivalent to one monolithic :meth:`run`."""
        return VectorizedSession(self, flows, duration_slots, measure_from)

    def run(
        self,
        flows: Sequence[FlowSpec],
        duration_slots: int,
        measure_from: int = 0,
    ) -> SimReport:
        """Run the workload; argument semantics match the reference
        :meth:`repro.sim.engine.SlotSimulator.run` exactly."""
        return self.start(flows, duration_slots, measure_from).finish()


class VectorizedSession(SimSession):
    """The fused-kernel engine's resumable run state.

    All cell state lives in flat int32 tables on the session (shared
    route rows + per-cell route index, hop cursor, owning flow, intrusive
    ``nxt`` link) and all queue state in the array linked lists of
    :class:`repro.sim.network.LinkedVoqState`; the per-slot work is the
    kernel set in :mod:`repro.sim.kernels` plus a handful of gathers.
    Scratch buffers (candidate matrix, sequential-drain staging) are
    allocated once here and reused every slot, so the steady-state loop
    allocates only small result arrays.  Pausing at a slot boundary is
    free; presampled path blocks stay valid across schedule swaps because
    the *router* — the only RNG consumer — never changes mid-run.

    Drain strategy per plane: the optimistic candidate walk + commit
    handles the common cascade-free case entirely in array code.  When a
    same-slot multi-hop cascade is possible, the engine either repairs
    the walk in place (``cells_per_circuit == 1`` with no event
    consumers attached — the cascade set is tiny, so the repair is a
    few-element Python pass over exactly the affected circuits) or
    replays the whole plane through the exact sequential kernel
    (:func:`repro.sim.kernels.drain_plane_seq`).  All three paths are
    bit-exact.
    """

    _engine_name = "vectorized"

    def __init__(
        self,
        engine: VectorizedEngine,
        flows: Sequence[FlowSpec],
        duration_slots: int,
        measure_from: int,
    ):
        config = engine.config
        router = engine.router
        rng = engine.rng
        timeline = engine.timeline
        self.config = config
        self.router = router
        self.rng = rng
        self.schedule = engine.schedule
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

            checker = InvariantChecker(self.schedule, config, timeline)
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
        # Seconds already attributed to the drain/commit/repair
        # sub-phases this slot; _advance charges the residual (matching
        # application, delivery accounting, the loop itself) to
        # "forward" so the profile still sums to wall time.
        self._prof_attr = 0.0
        num_flows = len(flows)
        num_nodes = self.schedule.num_nodes
        self.num_nodes = num_nodes
        self._flows = tuple(flows)

        src_arr = np.fromiter((f.src for f in flows), dtype=np.int64, count=num_flows)
        dst_arr = np.fromiter((f.dst for f in flows), dtype=np.int64, count=num_flows)
        sizes_l: List[int] = [f.size_cells for f in flows]
        arrival_l: List[int] = [f.arrival_slot for f in flows]
        self._src_arr = src_arr
        self._dst_arr = dst_arr
        self._sizes_l = sizes_l
        self._arrival_l = arrival_l
        sz_np = np.asarray(sizes_l, dtype=np.int64)
        arr_np = np.asarray(arrival_l, dtype=np.int64)
        self._fsizes = sz_np

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

        per_flow = config.per_flow_paths
        self._per_flow = per_flow
        window = config.injection_window
        self._window = window
        self._budget = config.cells_per_circuit
        self._track_inj = checker is not None or self._rec_del is not None
        # Event consumers force the exact sequential kernel on cascade
        # slots (the repair path does not emit) — see _drain_plane.
        self._emit = (
            checker is not None
            or self._rec_tx is not None
            or self._rec_del is not None
        )

        self.network = LinkedVoqState(num_nodes, num_lanes=num_lanes)
        self._install_schedule(engine.schedule)

        self._occupancy_sum = 0
        self._max_voq = 0
        self._window_delivered = 0
        self._delivered = 0
        self._injected = 0
        self._partial_flows = 0  # flows mid-injection (windowed drain criterion)
        self._slot_pairs: List = []  # (u, v) arrays appended this slot

        # --- Path presampling -------------------------------------------
        # The reference engine touches the RNG only when sampling paths:
        # in per-flow mode at each flow's first injection (arrival order),
        # and in per-cell mode at every injection.  Without an injection
        # window there are no refills, so the full draw sequence is known
        # before the clock starts and one paths_batch call replaces
        # hundreds of per-slot calls; the injection schedule itself then
        # collapses to consuming precomputed block slices.  Only per-cell
        # *windowed* runs interleave refill draws with arrivals and must
        # sample per slot.  Presampling consumes the RNG *before* slot 0
        # and the router is immutable for the whole session, so the
        # presampled blocks stay valid across mid-run schedule swaps.
        fl = np.flatnonzero(arr_np < duration_slots)
        ordflows = fl[np.argsort(arr_np[fl], kind="stable")]
        self._fprow = None
        if per_flow:
            if ordflows.size:
                paths, lengths = router.paths_batch(
                    src_arr[ordflows], dst_arr[ordflows], rng
                )
                self._routes = np.ascontiguousarray(paths, dtype=np.int32)
                self._rowlen = lengths.astype(np.int32)
            else:
                self._routes = np.full((0, 2), -1, dtype=np.int32)
                self._rowlen = np.empty(0, dtype=np.int32)
            self._nroutes = self._rowlen.shape[0]
            fprow = np.full(num_flows, -1, dtype=np.int32)
            fprow[ordflows] = np.arange(ordflows.size, dtype=np.int32)
            self._fprow = fprow

        inj = None
        self._slot_end = None
        arrivals: Dict[int, List[int]] = {}
        if window is None:
            # Block mode: every in-run flow injects its full size at its
            # arrival slot, so the whole injection stream (cells, routes,
            # first-hop VOQs, lanes) is determined before the clock
            # starts — but it is *presampled in bounded chunks* of at
            # most ``config.presample_chunk_cells`` cells rather than
            # materialized whole, keeping the transient footprint (path
            # scratch, flow-repeat order, first-hop/lane blocks) flat in
            # run length.  Chunks refill strictly in arrival order, so
            # per-cell path draws hit the RNG in exactly the whole-run
            # order (paths_batch draws are stream-identical however the
            # batch is split) and results are bit-identical for any
            # chunk size.  Cell ids are allocated in order too, so a
            # chunk's ids are the global cell indices [lo, hi).
            counts = np.zeros(duration_slots, dtype=np.int64)
            np.add.at(counts, arr_np[fl], sz_np[fl])
            self._slot_end = np.cumsum(counts).tolist()
            self._ordflows = ordflows
            self._ord_cum = np.cumsum(sz_np[ordflows])
            self._blk_total = int(self._ord_cum[-1]) if ordflows.size else 0
            self._blk_base = 0
            self._blk_hi = 0
            self._blk_cid = self._blk_u = self._blk_v = self._blk_lane = None
            self._arr_np = arr_np
            if not per_flow:
                self._routes = np.full((0, 0), -1, dtype=np.int32)
                self._rowlen = np.empty(0, dtype=np.int32)
                self._nroutes = 0
            self._init_cell_tables()
            inj = np.where(arr_np < duration_slots, sz_np, 0)
        else:
            # Windowed: per-slot arrival/refill batches; cell tables grow
            # on demand (amortized doubling).
            if not per_flow:
                self._routes = np.full((0, 0), -1, dtype=np.int32)
                self._rowlen = np.empty(0, dtype=np.int32)
                self._nroutes = 0
            self._init_cell_tables()
            inj = [0] * num_flows
            for i, spec in enumerate(flows):
                arrivals.setdefault(spec.arrival_slot, []).append(i)
        self._inj = inj
        self._arrivals = arrivals
        self._cursor = 0

        # Preallocated kernel scratch: candidate matrix, walk index
        # buffer, sequential-drain staging (cell ids, delivery flags,
        # per-circuit counts).
        budget = self._budget
        self._cand = np.empty((budget, num_nodes), dtype=np.int32)
        self._ar = np.arange(num_nodes)
        self._out_cids = np.empty(num_nodes * budget, dtype=np.int32)
        self._out_del = np.empty(num_nodes * budget, dtype=np.uint8)
        self._out_got = np.zeros(num_nodes, dtype=np.int64)

    def _install_schedule(self, new_schedule: CircuitSchedule) -> None:
        # Everything slot-periodic is derived from the schedule and must
        # be rebuilt on a swap; the VOQ state, cell tables and presampled
        # paths are schedule-independent and survive untouched.
        self.schedule = new_schedule
        self._dest_table = new_schedule.dest_table()

    def _session_rng(self):
        return self.rng

    def _state_payload(self) -> dict:
        # Everything deterministic from (flows, config, schedule) is
        # rebuilt by a fresh start(); only the mutable tables travel.
        # Cell/route tables are trimmed to their live prefix — linked
        # lists only ever reference allocated ids, and capacity regrows
        # on demand after restore.  Routes are saved even in per-flow
        # mode (where a same-seed start() would regenerate them) so
        # resume does not depend on the construction-time seed.
        from .checkpoint import encode_array

        if self._slot_pairs:
            raise CheckpointError(
                "internal error: slot-pair scratch not empty at a segment "
                "boundary"
            )
        head, tail, qlen, occupancy = self.network.export_state()
        ncells = self._ncells
        live = slice(1, ncells + 1)
        # The checkpoint byte format predates the 1-based in-memory cell
        # ids (0-empty sentinel, dummy table row 0): saved cursors/links
        # stay 0-based with -1 = empty, so existing checkpoints remain
        # valid and both engines' payloads stay directly comparable.
        state = {
            "fdcount": encode_array(self._fdcount),
            "fhoptot": encode_array(self._fhoptot),
            "fcompletion": encode_array(self._fcompletion),
            "network": {
                "head": encode_array(head - 1),
                "tail": encode_array(tail - 1),
                "qlen": encode_array(qlen),
                "occupancy": occupancy,
            },
            "routes": encode_array(self._routes[: self._nroutes]),
            "rowlen": encode_array(self._rowlen[: self._nroutes]),
            "nroutes": self._nroutes,
            "ridx": encode_array(self._ridx[live]),
            "rhop": encode_array(self._rhop[live]),
            "rfid": encode_array(self._rfid[live]),
            "nxt": encode_array(self._nxt[live] - 1),
            "cinj": (
                encode_array(self._cinj[live])
                if self._cinj is not None
                else None
            ),
            "ncells": ncells,
            "cursor": self._cursor,
            "partial_flows": self._partial_flows,
        }
        if self._window is None:
            state["blk_base"] = self._blk_base
            state["blk_hi"] = self._blk_hi
        else:
            state["inj"] = list(self._inj)
        return state

    def _restore_state(self, state: dict) -> None:
        from .checkpoint import decode_array

        try:
            self._fdcount = decode_array(state["fdcount"])
            self._fhoptot = decode_array(state["fhoptot"])
            self._fcompletion = decode_array(state["fcompletion"])
            net = state["network"]
            # Saved cursors/links are 0-based with -1 = empty (see
            # _state_payload); the live tables are 1-based with a dummy
            # row 0, so shift on the way in and re-prefix the dummy row.
            self.network.load_state(
                decode_array(net["head"]).astype(np.int32) + 1,
                decode_array(net["tail"]).astype(np.int32) + 1,
                decode_array(net["qlen"]),
                int(net["occupancy"]),
            )
            self._routes = np.ascontiguousarray(
                decode_array(state["routes"]), dtype=np.int32
            )
            self._rowlen = decode_array(state["rowlen"]).astype(
                np.int32, copy=False
            )
            self._nroutes = int(state["nroutes"])

            def dummy_prefixed(arr: np.ndarray, shift: int = 0) -> np.ndarray:
                out = np.empty(arr.shape[0] + 1, dtype=np.int32)
                out[0] = 0
                out[1:] = arr
                if shift:
                    out[1:] += shift
                return out

            self._ridx = dummy_prefixed(decode_array(state["ridx"]))
            self._rhop = dummy_prefixed(decode_array(state["rhop"]))
            self._rfid = dummy_prefixed(decode_array(state["rfid"]))
            self._nxt = dummy_prefixed(decode_array(state["nxt"]), shift=1)
            saved_cinj = state["cinj"]
            if self._track_inj:
                if saved_cinj is None:
                    raise CheckpointError(
                        "the resuming session tracks per-cell injection "
                        "slots (invariants or delivery telemetry) but the "
                        "checkpoint carries none — resume with the saving "
                        "run's configuration"
                    )
                self._cinj = dummy_prefixed(decode_array(saved_cinj))
            self._ncells = int(state["ncells"])
            self._cursor = int(state["cursor"])
            self._partial_flows = int(state["partial_flows"])
            if self._window is None:
                self._blk_base = int(state["blk_base"])
                self._blk_hi = int(state["blk_hi"])
                if self._blk_hi > self._blk_base:
                    # The current presample chunk's scratch is a pure
                    # function of the restored cell tables (global cell
                    # [lo, hi) has the 1-based id lo+1..hi).
                    span = slice(self._blk_base + 1, self._blk_hi + 1)
                    rows = self._ridx[span]
                    self._blk_cid = np.arange(
                        self._blk_base + 1, self._blk_hi + 1, dtype=np.int32
                    )
                    self._blk_u = self._routes[rows, 0]
                    self._blk_v = self._routes[rows, 1]
                    self._blk_lane = self._fresh_lane[self._rfid[span]]
            else:
                self._inj = [int(v) for v in state["inj"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"vectorized-engine checkpoint state is structurally "
                f"invalid: {exc}"
            ) from exc

    def demand_snapshot(self):
        injected: np.ndarray
        if self._window is None:
            # Block mode presets the inj ledger, so reconstruct
            # injected-so-far from arrival slots instead (every cell of a
            # flow injects at its arrival slot here).
            arr = np.asarray(self._arrival_l, dtype=np.int64)
            sizes = np.asarray(self._sizes_l, dtype=np.int64)
            bound = min(self.slot, self.duration_slots)
            injected = np.where(arr < bound, sizes, 0)
        else:
            injected = np.asarray(self._inj, dtype=np.int64)
        demand = np.zeros((self.num_nodes, self.num_nodes), dtype=np.int64)
        np.add.at(demand, (self._src_arr, self._dst_arr), injected)
        return demand

    # -- cell table management ------------------------------------------------

    def _init_cell_tables(self) -> None:
        """Fresh cell tables with the dummy row 0 cell ids leave free.

        Cell ids are 1-based (see :mod:`repro.sim.kernels`): id ``k``
        lives at table index ``k`` and index 0 is never a real cell, so
        ``0`` is the empty sentinel in every ``head``/``tail``/``nxt``
        cursor and the cursor cubes can stay untouched zero pages.
        """
        self._ridx = np.zeros(1, dtype=np.int32)
        self._rhop = np.zeros(1, dtype=np.int32)
        self._rfid = np.zeros(1, dtype=np.int32)
        self._nxt = np.zeros(1, dtype=np.int32)
        self._cinj = np.zeros(1, dtype=np.int32) if self._track_inj else None
        self._ncells = 0

    @staticmethod
    def _grown(arr: np.ndarray, newcap: int) -> np.ndarray:
        out = np.empty(newcap, dtype=arr.dtype)
        out[: arr.shape[0]] = arr
        return out

    def _alloc_cells(self, count: int) -> int:
        """Reserve *count* fresh cell ids; returns the base id.

        Ids are 1-based: the first allocation returns 1 and table index
        0 stays the dummy row shared by every sentinel.
        """
        base = self._ncells + 1
        need = base + count
        cap = self._ridx.shape[0]
        if need > cap:
            newcap = max(need, cap * 2, 1024)
            self._ridx = self._grown(self._ridx, newcap)
            self._rhop = self._grown(self._rhop, newcap)
            self._rfid = self._grown(self._rfid, newcap)
            self._nxt = self._grown(self._nxt, newcap)
            if self._cinj is not None:
                self._cinj = self._grown(self._cinj, newcap)
        self._ncells += count
        return base

    def _append_routes(self, paths: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Store freshly sampled route rows; returns their row indices."""
        count, width = paths.shape
        base = self._nroutes
        cap, cur_width = self._routes.shape
        if width > cur_width or base + count > cap:
            newcap = max(base + count, cap * 2, 256)
            new_width = max(width, cur_width)
            grown = np.full((newcap, new_width), -1, dtype=np.int32)
            grown[:base, :cur_width] = self._routes[:base]
            self._routes = grown
            self._rowlen = self._grown(self._rowlen, newcap)
        self._routes[base : base + count, :width] = paths
        self._rowlen[base : base + count] = lengths
        self._nroutes = base + count
        return np.arange(base, base + count, dtype=np.int32)

    def _refill_block_chunk(self) -> None:
        """Presample the next block chunk (global cells [lo, hi)).

        Finds the arrival-ordered flows covering the chunk via one
        searchsorted on the cumulative size array, repeats them into the
        per-cell order, trims the partial first/last flows, and samples
        exactly those cells' paths.  Because refills happen strictly
        sequentially, the RNG consumes draws in the whole-run order and
        ``_alloc_cells`` hands back exactly the (1-based) ids of global
        cells [lo, hi).
        """
        lo = self._blk_hi
        hi = min(self._blk_total, lo + self.config.presample_chunk_cells)
        cum = self._ord_cum
        first = int(np.searchsorted(cum, lo, side="right"))
        last = int(np.searchsorted(cum, hi - 1, side="right"))
        flows_slice = self._ordflows[first : last + 1]
        order = np.repeat(flows_slice, self._fsizes[flows_slice])
        start = int(cum[first - 1]) if first > 0 else 0
        order = order[lo - start : hi - start]
        count = hi - lo
        if self._per_flow:
            rows = self._fprow[order]
        else:
            paths, lengths = self.router.paths_batch(
                self._src_arr[order], self._dst_arr[order], self.rng
            )
            rows = self._append_routes(
                np.ascontiguousarray(paths, dtype=np.int32),
                lengths.astype(np.int32),
            )
        base = self._alloc_cells(count)
        span = slice(base, base + count)
        self._ridx[span] = rows
        self._rhop[span] = 0
        self._rfid[span] = order
        self._nxt[span] = 0
        if self._cinj is not None:
            self._cinj[span] = self._arr_np[order]
        self._blk_cid = np.arange(base, base + count, dtype=np.int32)
        self._blk_u = self._routes[rows, 0]
        self._blk_v = self._routes[rows, 1]
        self._blk_lane = self._fresh_lane[order]
        self._blk_base = lo
        self._blk_hi = hi

    # -- injection ------------------------------------------------------------

    def _inject_batch(self, fids: List[int], slot: int) -> int:
        """Inject one cell per entry of *fids* (windowed arrivals and
        refills).  RNG order matches sequential path() calls per the
        paths_batch contract."""
        fa = np.asarray(fids, dtype=np.int64)
        count = fa.size
        if self._per_flow:
            rows_new = self._fprow[fa]
        else:
            paths, lengths = self.router.paths_batch(
                self._src_arr[fa], self._dst_arr[fa], self.rng
            )
            rows_new = self._append_routes(
                paths.astype(np.int32, copy=False), lengths
            )
        base = self._alloc_cells(count)
        span = slice(base, base + count)
        self._ridx[span] = rows_new
        self._rfid[span] = fa
        self._rhop[span] = 0
        if self._cinj is not None:
            self._cinj[span] = slot
        cids = np.arange(base, base + count, dtype=np.int32)
        state = self.network
        pu, pv = append_cells(
            state.head,
            state.tail,
            self._nxt,
            state.qlen,
            cids,
            self._routes[rows_new, 0],
            self._routes[rows_new, 1],
            self._fresh_lane[fa],
            state.num_lanes,
            self.num_nodes,
        )
        self._slot_pairs.append((pu, pv))
        state.credit(count)
        return count

    # -- per-plane drain ------------------------------------------------------

    def _prof_add(self, phase: str, started: float) -> float:
        """Attribute seconds since *started* to a drain sub-phase;
        returns the new lap start."""
        now = perf_counter()
        dt = now - started
        self._prof.add(phase, dt)
        self._prof_attr += dt
        return now

    def _drain_seq(self, slot: int, plane: int, srcs, dsts) -> np.ndarray:
        """Exact sequential replay of one plane: the cascade slots the
        vectorized walk had to abandon.  Billed to the profiler's
        ``"repair"`` sub-phase."""
        prof = self._prof
        t0 = perf_counter() if prof is not None else 0.0
        state = self.network
        npop = drain_plane_seq(
            state.head,
            state.tail,
            self._nxt,
            state.qlen,
            self._routes,
            self._rowlen,
            self._ridx,
            self._rhop,
            self._rfid,
            self._fwd_lane,
            srcs,
            dsts,
            self._budget,
            self._out_cids,
            self._out_del,
            self._out_got,
        )
        if npop == 0:
            if prof is not None:
                self._prof_add("repair", t0)
            return _EMPTY32
        popped = self._out_cids[:npop]
        delm = self._out_del[:npop].astype(bool)
        if self._emit:
            self._emit_events(
                slot, plane, srcs, dsts, popped, delm, self._out_got[: srcs.shape[0]]
            )
        forwarded = popped[~delm]
        if forwarded.size:
            rows = self._ridx[forwarded]
            hops = self._rhop[forwarded]  # already advanced by the kernel
            self._slot_pairs.append(
                (self._routes[rows, hops], self._routes[rows, hops + 1])
            )
        if prof is not None:
            self._prof_add("repair", t0)
        return popped[delm]

    def _drain_plane(self, slot: int, plane: int, srcs, dsts, dst_row) -> np.ndarray:
        """Drain one plane's active circuits; returns the delivered cell
        ids in exact delivery (circuit-major pop) order.

        Dispatch layer: the vectorized walk over only the circuits whose
        VOQ pair is nonempty — a paper-scale plane matches N circuits
        but usually only a few dozen have queued cells, and every
        per-circuit gather/scatter in the walk and commit scales with
        the circuit count.  Filtering cannot change cascade-free
        semantics (a circuit with an empty pair pops nothing and commits
        nothing); cascade detection still checks forwards against the
        *full* matching row, and any hit re-runs the full circuit set —
        a forwarded cell may land on, and be drained by, a circuit whose
        pair started the slot empty.
        """
        if srcs.shape[0] == 0:
            return _EMPTY32
        live = self.network.qlen[srcs, dsts] > 0
        if live.all():
            return self._drain_vec(slot, plane, srcs, dsts, dst_row, srcs, dsts)
        lsrcs = srcs[live]
        if lsrcs.shape[0] == 0:
            return _EMPTY32
        return self._drain_vec(
            slot, plane, lsrcs, dsts[live], dst_row, srcs, dsts
        )

    def _drain_vec(
        self, slot: int, plane: int, srcs, dsts, dst_row, full_srcs, full_dsts
    ) -> np.ndarray:
        """Optimistic walk + commit over (a live subset of) one plane.

        ``srcs``/``dsts`` are the circuits actually walked;
        ``full_srcs``/``full_dsts`` are the plane's complete matching,
        needed whenever a cascade hit forces a replay (sequential
        fallback or an unfiltered re-walk).  The walk itself never
        mutates, so re-running it with the full set is safe.
        """
        prof = self._prof
        t = perf_counter() if prof is not None else 0.0
        state = self.network
        head = state.head
        nxt = self._nxt
        routes = self._routes
        rowlen = self._rowlen
        ridx = self._ridx
        rhop = self._rhop
        budget = self._budget
        num_circuits = srcs.shape[0]
        cur = walk_candidates(head, nxt, srcs, dsts, budget, self._cand, self._ar)
        sub = self._cand[:budget, :num_circuits]
        flat = sub.T.ravel()  # circuit-major: pop order of the plane
        valid = flat > 0
        popped = flat[valid]
        if popped.size == 0:
            if prof is not None:
                self._prof_add("drain", t)
            return _EMPTY32
        rows = ridx[popped]
        hops = rhop[popped]
        delm = hops == rowlen[rows] - 2
        fwm = ~delm
        fw = popped[fwm]
        extra = None
        if fw.size:
            fh = hops[fwm] + 1
            frow = rows[fwm]
            fu = routes[frow, fh]
            fv = routes[frow, fh + 1]
            hit = dst_row[fu] == fv
            if np.any(hit):
                # A forwarded cell lands in a VOQ this same plane still
                # (or already) drains: possible same-slot cascade.
                if budget != 1 or self._emit:
                    if prof is not None:
                        self._prof_add("drain", t)
                    return self._drain_seq(slot, plane, full_srcs, full_dsts)
                # With budget == 1 the flat pop positions are circuit
                # indices, so position comparisons are source-id
                # comparisons and work identically on a filtered subset:
                # a target circuit whose pair started the slot empty (so
                # the live-pair filter left it out of the walk) gets a
                # half-offset key that slots it into source order
                # between its walked neighbors.
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
                        srcs, dst_row, sub, cur, fw, fu, fv, fpos, tkey, real
                    )
                    flat = sub.T.ravel()
                    valid = flat > 0
                    popped = flat[valid]
                    rows = ridx[popped]
                    hops = rhop[popped]
                    delm = hops == rowlen[rows] - 2
                    fwm = ~delm
                    fw = popped[fwm]
                    fh = hops[fwm] + 1
                    frow = rows[fwm]
                    fu = routes[frow, fh]
                    fv = routes[frow, fh + 1]
                    if prof is not None:
                        t = self._prof_add("repair", t)
        got = (sub > 0).sum(axis=0)
        if prof is not None and extra is None:
            t = self._prof_add("drain", t)
        commit_pops(head, state.tail, state.qlen, srcs, dsts, cur, got)
        if fw.size:
            rhop[fw] = fh
        if extra is None:
            if self._emit and popped.size:
                self._emit_events(slot, plane, srcs, dsts, popped, delm, got)
            if fw.size:
                pu, pv = append_cells(
                    head,
                    state.tail,
                    nxt,
                    state.qlen,
                    fw,
                    fu,
                    fv,
                    self._fwd_lane[self._rfid[fw]],
                    state.num_lanes,
                    self.num_nodes,
                )
                self._slot_pairs.append((pu, pv))
            if prof is not None:
                self._prof_add("commit", t)
            return popped[delm]
        # Merge the repair results: passthrough cells skip the append
        # (they were popped again by their target circuit), their extra
        # hop advances apply on top, and extra appends/deliveries splice
        # into the plane's circuit-major order at their positions.
        passthrough = extra["passthrough"]
        for cid, bumps in extra["advances"].items():
            rhop[cid] += bumps
        fpos = np.flatnonzero(valid)[fwm]
        if passthrough:
            pt = np.fromiter(passthrough, dtype=np.int32, count=len(passthrough))
            keep = ~np.isin(fw, pt)
            app_cids, app_u, app_v, app_pos = fw[keep], fu[keep], fv[keep], fpos[keep]
        else:
            app_cids, app_u, app_v, app_pos = fw, fu, fv, fpos
        if extra["appends"]:
            # Positions are circuit-order keys: ints for walked
            # circuits, half-offset floats for cascade targets the
            # live-pair filter left out of the walk.
            e_pos = np.asarray([e[0] for e in extra["appends"]], dtype=np.float64)
            e_cid = np.asarray([e[1] for e in extra["appends"]], dtype=np.int32)
            e_u = np.asarray([e[2] for e in extra["appends"]], dtype=np.int32)
            e_v = np.asarray([e[3] for e in extra["appends"]], dtype=np.int32)
            order = np.argsort(
                np.concatenate([app_pos, e_pos]), kind="stable"
            )
            app_cids = np.concatenate([app_cids, e_cid])[order]
            app_u = np.concatenate([app_u, e_u])[order]
            app_v = np.concatenate([app_v, e_v])[order]
        if app_cids.size:
            pu, pv = append_cells(
                head,
                state.tail,
                nxt,
                state.qlen,
                app_cids,
                app_u,
                app_v,
                self._fwd_lane[self._rfid[app_cids]],
                state.num_lanes,
                self.num_nodes,
            )
            self._slot_pairs.append((pu, pv))
        deliv_cids = popped[delm]
        if extra["deliveries"]:
            d_pos = np.asarray([e[0] for e in extra["deliveries"]], dtype=np.float64)
            d_cid = np.asarray([e[1] for e in extra["deliveries"]], dtype=np.int32)
            order = np.argsort(
                np.concatenate([np.flatnonzero(valid)[delm], d_pos]),
                kind="stable",
            )
            deliv_cids = np.concatenate([deliv_cids, d_cid])[order]
        if prof is not None:
            self._prof_add("commit", t)
        return deliv_cids

    def _repair_cascades(
        self, srcs, dst_row, sub, cur, fw, fu, fv, fpos, tkey, real
    ) -> dict:
        """Exactly replay the cascade set of one plane (budget == 1).

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
        insertion index from ``tkey`` when its pair started the slot
        empty and the live-pair filter left it out — in which case there
        is no snapshot pop to cancel and the winning arrival is simply
        popped straight through.  Both keyings order identically to full
        source order, so recorded positions splice into the plane's
        circuit-major order exactly as the unfiltered walk would have
        placed them.
        """
        head = self.network.head
        ridx = self._ridx
        rhop = self._rhop
        rfid = self._rfid
        routes = self._routes
        rowlen = self._rowlen
        fwd_lane = self._fwd_lane
        num_lanes = self.network.num_lanes
        nsrc = srcs.shape[0]
        # target (position, source) -> [(fwd position, cid, u, v, chained)]
        arrivals: Dict[Tuple[float, int], List] = {}
        for k in np.flatnonzero(real):
            key = (float(tkey[k]), int(fu[k]))
            arrivals.setdefault(key, []).append(
                (int(fpos[k]), int(fw[k]), int(fu[k]), int(fv[k]), False)
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
            s = entries[0][2]
            d = entries[0][3]
            walked = pos.is_integer()
            j = int(pos) if walked else -1
            snap_cid = int(sub[0, j]) if walked else 0
            if snap_cid > 0:
                snap_lane = 0
                for lane in range(num_lanes):
                    if int(head[lane, s, d]) == snap_cid:
                        snap_lane = lane
                        break
            else:
                snap_lane = num_lanes
            best = None  # (lane, forwarder position, cid)
            for entry in entries:
                lane = int(fwd_lane[rfid[entry[1]]])
                if lane >= snap_lane:
                    continue  # cannot beat the snapshot pop
                if int(head[lane, s, d]) > 0:
                    continue  # lane nonempty: the arrival tails, head wins
                if best is None or lane < best[0]:
                    best = (lane, entry[0], entry[1])
            # Chained arrivals that do not win still need their append
            # recorded (vector-walk arrivals are already in the forward
            # set; chained ones exist only in this pass).
            winner = best[2] if best is not None else 0
            for entry in entries:
                if entry[4] and entry[1] != winner:
                    extra_app.append((entry[0], entry[1], entry[2], entry[3]))
            if best is None:
                continue
            cell = best[2]
            if snap_cid > 0:
                cancelled.add(snap_cid)
                cur[:, j] = head[:, s, d]
            if walked:
                sub[0, j] = 0
            passthrough.add(cell)
            row = int(ridx[cell])
            # Position after the committed first advance plus any chained
            # advances already recorded this pass — a cell can win several
            # cascade hops in one slot, and rhop itself is only updated
            # after this pass returns.
            h1 = int(rhop[cell]) + 1 + advances.get(cell, 0)
            if h1 == int(rowlen[row]) - 2:
                extra_del.append((pos, cell))
                continue
            advances[cell] = advances.get(cell, 0) + 1
            h2 = h1 + 1
            u2 = int(routes[row, h2])
            v2 = int(routes[row, h2 + 1])
            if int(dst_row[u2]) == v2:
                k2 = int(np.searchsorted(srcs, u2))
                if k2 < nsrc and int(srcs[k2]) == u2:
                    key2 = (float(k2), u2)
                else:
                    key2 = (k2 - 0.5, u2)
                if key2 > key:
                    arrivals.setdefault(key2, []).append(
                        (pos, cell, u2, v2, True)
                    )
                    continue
            extra_app.append((pos, cell, u2, v2))
        return {
            "passthrough": passthrough,
            "advances": advances,
            "deliveries": extra_del,
            "appends": extra_app,
        }

    # -- event emission and flow accounting -----------------------------------

    def _emit_events(self, slot, plane, srcs, dsts, popped, delm, got) -> None:
        """Re-emit the reference engine's per-circuit event stream from
        the drain results: each circuit's deliveries in pop order, then
        its transmit — the exact interleave collectors see from the
        object loop."""
        checker = self._checker
        rec_tx = self._rec_tx
        rec_del = self._rec_del
        routes = self._routes
        rowlen = self._rowlen
        ridx = self._ridx
        cinj = self._cinj
        src_l = srcs.tolist()
        dst_l = dsts.tolist()
        pop_l = popped.tolist()
        del_l = delm.tolist()
        offset = 0
        for i, count in enumerate(got.tolist()):
            if not count:
                continue
            for p in range(offset, offset + count):
                if del_l[p]:
                    cid = pop_l[p]
                    row = int(ridx[cid])
                    length = int(rowlen[row])
                    if checker is not None:
                        checker.record_delivery(
                            slot, int(cinj[cid]), routes[row, :length]
                        )
                    if rec_del is not None:
                        rec_del(slot, int(cinj[cid]), length - 1)
            offset += count
            if checker is not None:
                checker.record_transmit(slot, plane, src_l[i], dst_l[i], count)
            if rec_tx is not None:
                rec_tx(slot, plane, src_l[i], dst_l[i], count)

    def _account_deliveries_batch(self, cids: np.ndarray, slots: np.ndarray) -> None:
        """Fold a span's deliveries into the per-flow ledgers.

        *cids* are the span's delivered cell ids in delivery order and
        *slots* the slot of each delivery.  Counts and hop totals are
        additive, and a flow's completion slot is the slot of the
        delivery that made its count reach its size — located here as
        the k-th of the flow's in-span deliveries (the stable sort by
        flow preserves delivery order, which is slot-ascending).
        """
        fids = self._rfid[cids]
        hops = self._rowlen[self._ridx[cids]].astype(np.int64) - 1
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
            self._fcompletion[uniq[compm]] = slots[order][starts + kth]

    # -- the slot loop ---------------------------------------------------------

    def _advance(self, stop: Optional[int]) -> None:
        """Run until slot *stop* (``None``: the end of the run).

        One loop over spans.  A span before the arrival horizon runs to
        the nearest of ``slot + SPAN_CAP``, the horizon and *stop*; a
        span past the horizon (the drain phase) is one slot, because
        the drain decision is made per slot.  Each iteration runs the
        one slot body over the span — injection, fault-masked or
        periodic circuits per plane, windowed refills, the per-slot
        observer hooks — then folds the span's deliveries into the flow
        ledgers and makes the horizon/drain decision once.  Nothing
        else ends a span: the body masks faults and refills presample
        chunks per slot, and every observer reads per-slot state only.
        """
        if self._done:
            return
        config = self.config
        timeline = self._timeline
        checker = self._checker
        rec_sample = self._rec_sample
        prof = self._prof
        duration_slots = self.duration_slots
        measure_from = self.measure_from
        sizes_l = self._sizes_l
        inj = self._inj
        network = self.network
        qlen = network.qlen
        num_nodes = self.num_nodes
        window = self._window
        schedule = self.schedule
        num_planes = schedule.num_planes
        period = schedule.period
        dest_table = self._dest_table
        slot_end = self._slot_end
        arrivals = self._arrivals
        slot_pairs = self._slot_pairs
        occupancy_sum = self._occupancy_sum
        max_voq = self._max_voq
        window_delivered = self._window_delivered
        delivered_running = self._delivered
        injected_running = self._injected
        partial_flows = self._partial_flows
        cursor = self._cursor
        slot = self.slot

        while stop is None or slot < stop:
            if slot < duration_slots:
                span_end = min(slot + SPAN_CAP, duration_slots)
                if stop is not None and stop < span_end:
                    span_end = stop
            else:
                span_end = slot + 1
            # Each delivering drain's slot and cell ids, in delivery order.
            dslots: List[int] = []
            dcids: List[np.ndarray] = []
            forward_s = 0.0
            for s in range(slot, span_end):
                if prof is not None:
                    lap = perf_counter()
                if s < duration_slots:
                    if slot_end is not None:
                        # Block mode: the arrival batch IS the next
                        # block slice (ledger preset during
                        # presampling).  A slot whose batch crosses a
                        # chunk boundary appends in pieces — FIFO
                        # order, credits and scatter pairs are
                        # unaffected by the split.
                        end = slot_end[s]
                        while end > cursor:
                            if cursor >= self._blk_hi:
                                self._refill_block_chunk()
                            stop_at = min(end, self._blk_hi)
                            b = cursor - self._blk_base
                            e = stop_at - self._blk_base
                            pu, pv = append_cells(
                                network.head,
                                network.tail,
                                self._nxt,
                                qlen,
                                self._blk_cid[b:e],
                                self._blk_u[b:e],
                                self._blk_v[b:e],
                                self._blk_lane[b:e],
                                network.num_lanes,
                                num_nodes,
                            )
                            slot_pairs.append((pu, pv))
                            network.credit(stop_at - cursor)
                            injected_running += stop_at - cursor
                            cursor = stop_at
                    else:
                        batch: List[int] = []
                        for f in arrivals.get(s, ()):  # new arrivals
                            sz = sizes_l[f]
                            quota = min(window, sz)
                            inj[f] = quota
                            if quota < sz:
                                partial_flows += 1
                            batch.extend([f] * quota)
                        if batch:
                            injected_running += self._inject_batch(batch, s)
                if prof is not None:
                    lap = prof.lap("inject", lap)

                # One matching per plane; the kernels preserve
                # source-order drain with immediate forwarding (module
                # docstring), so same-plane cascades behave exactly as
                # in the reference engine.
                row = s % period
                faulted = timeline is not None and timeline.affects(s)
                deliv_fids: List[np.ndarray] = []  # windowed refill input
                for plane in range(num_planes):
                    if faulted:
                        # Masked slots bypass the periodic table row:
                        # mask the dense destination row for this
                        # absolute slot exactly as the reference engine
                        # masks its Matching.
                        dst_row = timeline.mask_dst_row(
                            dest_table[row, plane], s, plane
                        )
                        srcs = np.flatnonzero(dst_row >= 0)
                        dsts = dst_row[srcs]
                    else:
                        srcs, dsts = schedule.active_circuits(row, plane)
                        dst_row = dest_table[row, plane]
                    deliv = self._drain_plane(s, plane, srcs, dsts, dst_row)
                    if deliv.size:
                        network.debit(deliv.size)
                        delivered_running += deliv.size
                        if s >= measure_from:
                            window_delivered += deliv.size
                        dslots.append(s)
                        dcids.append(deliv)
                        if window is not None:
                            deliv_fids.append(self._rfid[deliv])
                if prof is not None:
                    now = perf_counter()
                    forward_s += (now - lap) - self._prof_attr
                    self._prof_attr = 0.0
                    lap = now

                # Windowed flows refill as their cells deliver.
                if deliv_fids:
                    delivered_fids = (
                        deliv_fids[0]
                        if len(deliv_fids) == 1
                        else np.concatenate(deliv_fids)
                    )
                    refill: List[int] = []
                    for f in delivered_fids.tolist():
                        x = inj[f]
                        if x < sizes_l[f]:
                            x += 1
                            inj[f] = x
                            if x == sizes_l[f]:
                                partial_flows -= 1
                            refill.append(f)
                    if refill:
                        injected_running += self._inject_batch(refill, s)

                if checker is not None:
                    checker.end_slot(s, network, injected_running, delivered_running)
                occupancy_sum += network.total_occupancy
                if slot_pairs:
                    # Only VOQs that received cells this slot can set a
                    # new max; gather those instead of scanning the
                    # (N, N) grid.
                    if len(slot_pairs) == 1:
                        gu, gv = slot_pairs[0]
                    else:
                        gu = np.concatenate([p[0] for p in slot_pairs])
                        gv = np.concatenate([p[1] for p in slot_pairs])
                    if gu.size:
                        voq_now = int(qlen[gu, gv].max())
                        if voq_now > max_voq:
                            max_voq = voq_now
                    slot_pairs.clear()
                if rec_sample is not None:
                    rec_sample(s, network, delivered_running)
                if prof is not None:
                    prof.lap("stats", lap)

            if prof is not None:
                lap = perf_counter()
            if dcids:
                if len(dcids) == 1:
                    cids = dcids[0]
                    slots_arr = np.full(cids.size, dslots[0], dtype=np.int64)
                else:
                    cids = np.concatenate(dcids)
                    slots_arr = np.repeat(
                        np.asarray(dslots, dtype=np.int64),
                        [c.size for c in dcids],
                    )
                self._account_deliveries_batch(cids, slots_arr)
            if prof is not None:
                # The drain paths bill themselves to the drain/commit/
                # repair sub-phases; "forward" keeps the residual
                # (matching lookup, delivery accounting, loop glue) so
                # the summary still covers the whole span.
                prof.add("forward", forward_s + (perf_counter() - lap))

            slot = span_end
            if slot >= duration_slots:
                pending = network.total_occupancy > 0 or partial_flows > 0
                if (
                    not (config.drain and pending)
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
        self._partial_flows = partial_flows
        self._cursor = cursor
        self.slot = slot

    def _build_report(self) -> SimReport:
        horizon = self.horizon
        return SimReport.from_flow_arrays(
            np.asarray(self._sizes_l, dtype=np.int64),
            np.asarray(self._arrival_l, dtype=np.int64),
            np.asarray(self._inj, dtype=np.int64),
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

