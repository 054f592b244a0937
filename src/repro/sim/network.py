"""Simulated network state: per-node, per-neighbor virtual output queues.

This is the simulator-facing counterpart of the hardware model in
:mod:`repro.hardware.node`: every node keeps one queue per next-hop
neighbor (VOQ), a circuit pops one cell from the matching VOQ when its
slot comes up, and forwarded cells are re-enqueued at the downstream node.

Each VOQ consists of strict-priority *lanes*.  The default two-lane
policy serves transit cells (hop >= 1) before freshly injected cells, as
rotor-based designs do (RotorNet/Opera forward indirect traffic ahead of
new injections) — without this, an overloaded source starves its own
second hops and measured saturation throughput collapses below the
fabric's capacity.  A custom ``lane_of`` classifier adds further classes,
e.g. short-flow priority (see
:attr:`repro.sim.engine.SimConfig.short_flow_threshold_cells`).

:class:`SimNetwork` (the reference engine's) is kept deliberately
lightweight — plain dicts and deques — because it sits in the
simulator's inner loop.  :class:`LinkedVoqState` holds the same queues
as arrays for the vectorized engine, one VOQ per (node, neighbor rank).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from .flows import Cell

__all__ = [
    "SimNetwork",
    "LinkedVoqState",
    "transit_priority_lane",
    "short_flow_priority_lane",
]


def transit_priority_lane(cell: Cell) -> int:
    """Default 2-lane policy: transit (0) ahead of fresh injections (1)."""
    return 0 if cell.hop > 0 else 1


def short_flow_priority_lane(threshold_cells: int) -> Callable[[Cell], int]:
    """4-lane policy: the short class strictly preempts the bulk class;
    transit precedes fresh within each class.

    Lane order: short transit, short fresh, bulk transit, bulk fresh.
    "Short" means the owning flow's size is at or below the threshold —
    the classification Opera applies to pick its routing class.  Strict
    class preemption mirrors Opera's full separation of latency-sensitive
    traffic; bulk can only starve while shorts alone saturate a circuit.
    """
    if threshold_cells < 1:
        raise SimulationError("threshold_cells must be >= 1")

    def lane(cell: Cell) -> int:
        short = cell.flow.spec.size_cells <= threshold_cells
        transit = cell.hop > 0
        return (0 if short else 2) + (0 if transit else 1)

    return lane


class SimNetwork:
    """VOQ state for all nodes of a simulated fabric.

    Parameters
    ----------
    num_nodes:
        Fabric size.
    num_lanes:
        Strict-priority lanes per VOQ (lane 0 served first).
    lane_of:
        Classifier mapping a cell to its lane; defaults to the two-lane
        transit-priority policy.
    """

    def __init__(
        self,
        num_nodes: int,
        num_lanes: int = 2,
        lane_of: Optional[Callable[[Cell], int]] = None,
    ):
        if num_nodes < 2:
            raise SimulationError("need at least 2 nodes")
        if num_lanes < 1:
            raise SimulationError("need at least one lane")
        self.num_nodes = int(num_nodes)
        self.num_lanes = int(num_lanes)
        self._lane_of = lane_of or transit_priority_lane
        self._voqs: List[Dict[int, Tuple[Deque[Cell], ...]]] = [
            {} for _ in range(self.num_nodes)
        ]
        self._occupancy = 0

    def enqueue(self, cell: Cell) -> None:
        """Queue *cell* at its current node toward its next hop."""
        node = cell.current_node
        neighbor = cell.next_node
        if not 0 <= node < self.num_nodes or not 0 <= neighbor < self.num_nodes:
            raise SimulationError(
                f"cell path references nodes outside [0, {self.num_nodes})"
            )
        voq = self._voqs[node].get(neighbor)
        if voq is None:
            voq = tuple(deque() for _ in range(self.num_lanes))
            self._voqs[node][neighbor] = voq
        lane = self._lane_of(cell)
        if not 0 <= lane < self.num_lanes:
            raise SimulationError(
                f"lane classifier returned {lane}, outside [0, {self.num_lanes})"
            )
        voq[lane].append(cell)
        self._occupancy += 1

    def pop(self, src: int, dst: int) -> Optional[Cell]:
        """Pop the cell the circuit src -> dst carries this slot: the head
        of src's VOQ toward dst, lane 0 first (cursor not yet advanced).
        ``None`` when the VOQ is empty."""
        voq = self._voqs[src].get(dst)
        if voq is not None:
            for queue in voq:
                if queue:
                    self._occupancy -= 1
                    return queue.popleft()
        return None

    def queue_length(self, node: int, neighbor: int) -> int:
        """Cells queued at *node* toward *neighbor* (all lanes)."""
        voq = self._voqs[node].get(neighbor)
        return sum(len(lane) for lane in voq) if voq else 0

    def node_backlog(self, node: int) -> int:
        """Total cells queued at *node* across all VOQs."""
        return sum(
            len(lane) for voq in self._voqs[node].values() for lane in voq
        )

    @property
    def total_occupancy(self) -> int:
        """Cells in flight anywhere in the fabric."""
        return self._occupancy

    def min_voq_length(self) -> int:
        """Shortest VOQ in the fabric (0 when none exists; the
        counterpart of :meth:`LinkedVoqState.min_voq_length`)."""
        return min(
            (sum(len(lane) for lane in voq) for voqs in self._voqs for voq in voqs.values()),
            default=0,
        )

    def max_voq_length(self) -> int:
        """Longest single VOQ in the fabric (burst/buffering metric)."""
        longest = 0
        for voqs in self._voqs:
            for voq in voqs.values():
                length = sum(len(lane) for lane in voq)
                if length > longest:
                    longest = length
        return longest

    def backlogs(self) -> List[int]:
        """Per-node total backlogs."""
        return [self.node_backlog(v) for v in range(self.num_nodes)]

    def iter_cells(self) -> Iterator[Cell]:
        """All queued cells (diagnostics only)."""
        for voqs in self._voqs:
            for voq in voqs.values():
                for lane in voq:
                    yield from lane

    # -- durable checkpoints ---------------------------------------------------

    def iter_voq_cells(self) -> Iterator[Tuple[int, int, int, Cell]]:
        """Every queued cell as (node, neighbor, lane, cell) in a
        deterministic order (nodes ascending, neighbors sorted, lanes in
        priority order, FIFO within a lane) — the serialization seam of
        durable checkpoints."""
        for node, voqs in enumerate(self._voqs):
            for neighbor in sorted(voqs):
                for lane, queue in enumerate(voqs[neighbor]):
                    for cell in queue:
                        yield node, neighbor, lane, cell

    def restore_cell(self, node: int, neighbor: int, lane: int, cell: Cell) -> None:
        """Re-enqueue a checkpointed cell into an explicit lane.

        Bypasses the lane classifier — the lane a cell sat in was
        already decided before the checkpoint — but preserves FIFO order
        as long as cells are restored in :meth:`iter_voq_cells` order.
        """
        if not 0 <= lane < self.num_lanes:
            raise SimulationError(
                f"restored cell names lane {lane}, outside [0, {self.num_lanes})"
            )
        voq = self._voqs[node].get(neighbor)
        if voq is None:
            voq = tuple(deque() for _ in range(self.num_lanes))
            self._voqs[node][neighbor] = voq
        voq[lane].append(cell)
        self._occupancy += 1


# SWAR popcount constants: exact on any numpy version, no per-bit loop.
_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)
_ONE = np.uint64(1)
_TWO = np.uint64(2)
_FOUR = np.uint64(4)
_TOP_BYTE = np.uint64(56)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Set bits per uint64 word, as int32.  Overwrites *x* (callers pass
    a scratch array), so the count needs one temporary."""
    t = x >> _ONE
    t &= _M1
    x -= t
    np.right_shift(x, _TWO, out=t)
    t &= _M2
    x &= _M2
    x += t
    np.right_shift(x, _FOUR, out=t)
    x += t
    x &= _M4
    x *= _H01
    x >>= _TOP_BYTE
    return x.astype(np.int32)


class LinkedVoqState:
    """Per-neighbor array-linked-list VOQ state for the fused-kernel engine.

    A node only ever queues toward a neighbor it has a circuit to, so
    VOQs are addressed by (lane, node, neighbor *rank*): ``nbr[u, r]``
    is the neighbor node of rank ``r`` at node ``u`` (``-1`` past
    ``deg[u]``), and the queue arrays are ``(L, N, K)`` ``head``/``tail``
    plus an ``(N, K)`` ``qlen``, with ``K`` (:attr:`ranks_per_node`) the
    widest neighbor row rather than ``N``.  The engine builds the table
    from its schedule's compiled bank, in which a node's neighbors are
    the distinct entries of its bank column, so every kernel indexes one
    flat key ``lane * N * K + u * K + r`` (``u * K + r`` into ``qlen``).

    Ranks only grow.  :meth:`ranks` gives a pair not seen before the
    next free rank of its node — a hop the schedule never provides (it
    queues and never drains, as in :class:`SimNetwork`) or a neighbor a
    swapped-in schedule adds — and widens the arrays when a row is full;
    an assigned rank never moves, so ranks stored beside route rows stay
    valid.  Initial ranks follow sorted neighbor order; lookups find the
    sorted position with a per-node neighbor bitmap (``_bits``, one bit
    per node pair) and a per-word prefix count (``_below``), and map it
    to a rank through ``_perm`` once growth has broken the sorted order.

    Queue contents are intrusive singly-linked lists over the engine's
    flat cell tables: ``head``/``tail`` give, per VOQ lane, the first and
    last queued cell id (``0`` = empty; cell ids are 1-based, with table
    row 0 reserved as a dummy), and the engine's shared ``nxt`` array
    chains cell to cell.  ``head → nxt → ... → tail`` *is* the per-lane
    deque order :class:`SimNetwork` keeps, so FIFO-per-lane and strict
    lane priority carry over unchanged (see :mod:`repro.sim.kernels`
    for the kernels that operate on this state).

    Exposes the same statistics accessors as :class:`SimNetwork`
    (``total_occupancy``, ``max_voq_length``, ``min_voq_length``,
    ``queue_length``, ``node_backlog``, ``backlogs``), keyed by node
    pairs, so tracers, telemetry collectors and the invariant checker
    observe it unchanged.
    """

    def __init__(self, num_nodes: int, num_lanes: int = 2):
        if num_nodes < 2:
            raise SimulationError("need at least 2 nodes")
        if num_lanes < 1:
            raise SimulationError("need at least one lane")
        self.num_nodes = n = int(num_nodes)
        self.num_lanes = int(num_lanes)
        #: Rank capacity of every node row (K); grows, never shrinks.
        self.ranks_per_node = 0
        #: Neighbor node per (node, rank); -1 past the node's degree.
        self.nbr = np.full((n, 0), -1, dtype=np.int32)
        #: Assigned ranks per node.
        self.deg = np.zeros(n, dtype=np.int32)
        self._words = (n + 63) // 64
        self._bits = np.zeros((n, self._words), dtype=np.uint64)
        self._below = np.zeros((n, self._words), dtype=np.int32)
        self._perm: Optional[np.ndarray] = None  # None: ranks are sorted
        #: First queued cell id per (lane, node, rank); 0 = empty.
        self.head = np.zeros((self.num_lanes, n, 0), dtype=np.int32)
        #: Last queued cell id per (lane, node, rank); 0 = empty.
        self.tail = np.zeros_like(self.head)
        #: Cells queued per (node, rank), all lanes summed.  int32: one
        #: VOQ holding 2**31 cells would exhaust the cell tables first.
        self.qlen = np.zeros((n, 0), dtype=np.int32)
        self._occupancy = 0

    # -- rank table ------------------------------------------------------------

    def _positions(self, us: np.ndarray, vs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per pair, how many of node ``us[i]``'s neighbors lie below
        ``vs[i]``, and whether ``vs[i]`` is one of them."""
        idx = us * self._words
        idx += vs >> 6
        words = self._bits.reshape(-1)[idx]
        bit = (vs & 63).astype(np.uint64)
        found = ((words >> bit) & _ONE).astype(bool)
        below_bit = _ONE << bit
        below_bit -= _ONE
        below_bit &= words
        pos = self._below.reshape(-1)[idx]
        pos += _popcount64(below_bit)
        return pos, found

    def _lookup(self, us: np.ndarray, vs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(rank, found) per pair; rank is -1 where not found."""
        pos, found = self._positions(us, vs)
        if self._perm is not None:
            pos = self._perm.reshape(-1)[us * self.ranks_per_node + np.where(found, pos, 0)]
        return np.where(found, pos, -1).astype(np.int32), found

    def ranks(self, us, vs) -> np.ndarray:
        """Rank of neighbor ``vs[i]`` at node ``us[i]`` (int32), assigning
        the next free rank to every pair not seen before."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.size == 0:
            return np.empty(us.shape, dtype=np.int32)
        n = self.num_nodes
        if min(us.min(), vs.min()) < 0 or max(us.max(), vs.max()) >= n:
            raise SimulationError(f"cell path references nodes outside [0, {n})")
        if self.ranks_per_node == 0:  # nothing assigned yet
            return self._grow(us, vs)
        rank, found = self._lookup(us, vs)
        if not found.all():
            miss = ~found
            rank[miss] = self._grow(us[miss], vs[miss])
        return rank

    def rank(self, node: int, neighbor: int) -> int:
        """Rank of *neighbor* at *node*, assigned if new (see :meth:`ranks`)."""
        return int(self.ranks([node], [neighbor])[0])

    def _grow(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Assign ranks to the new pairs ``(us[i], vs[i])`` (repeats
        allowed) and return them: a node's new neighbors take its next
        ranks in ascending order.  Widens the rows when a node runs out
        of ranks."""
        if self.ranks_per_node:
            old_pos, _ = self._positions(us, vs)
            old_deg = self.deg[us]
        else:  # nothing assigned yet: no old neighbor anywhere
            old_pos = old_deg = 0
        np.bitwise_or.at(
            self._bits.reshape(-1),
            us * self._words + (vs >> 6),
            _ONE << (vs & 63).astype(np.uint64),
        )
        touched = np.zeros(self.num_nodes, dtype=bool)
        touched[us] = True
        rows = np.flatnonzero(touched)
        self._recount(rows)
        need = int(self.deg[rows].max())
        if need > self.ranks_per_node:
            self._widen(min(self.num_nodes, max(need, 2 * self.ranks_per_node)))
        # All neighbors below v minus the old ones below v: the new ones
        # below v, so new neighbors rank in ascending order after the old.
        new_pos, _ = self._positions(us, vs)
        rank = (old_deg + new_pos - old_pos).astype(np.int32)
        self.nbr[us, rank] = vs
        # Rows stay sorted (no permutation needed) while every new
        # neighbor lies above all of its node's old ones.
        if self._perm is None and not np.all(old_pos == old_deg):
            self._perm = np.tile(
                np.arange(self.ranks_per_node, dtype=np.int32), (self.num_nodes, 1)
            )
        if self._perm is not None:
            self._perm[rows] = self._sorted_order(self.nbr[rows])
        return rank

    def _recount(self, rows: np.ndarray) -> None:
        """Refresh the prefix counts and degrees of *rows* from the bitmap."""
        counts = _popcount64(self._bits[rows])
        self._below[rows] = np.cumsum(counts, axis=1) - counts
        self.deg[rows] = counts.sum(axis=1)

    def _sorted_order(self, nbr: np.ndarray) -> np.ndarray:
        """Per row, the ranks in ascending neighbor order (padding last)."""
        return np.argsort(
            np.where(nbr >= 0, nbr, self.num_nodes), axis=1, kind="stable"
        )

    def _widen(self, width: int) -> None:
        """Re-lay every per-rank array out at *width* ranks per node."""
        old = self.ranks_per_node

        def widened(arr: np.ndarray, fill: int) -> np.ndarray:
            out = np.full(arr.shape[:-1] + (width,), fill, dtype=arr.dtype)
            out[..., :old] = arr
            return out

        self.nbr = widened(self.nbr, -1)
        self.head = widened(self.head, 0)
        self.tail = widened(self.tail, 0)
        self.qlen = widened(self.qlen, 0)
        if self._perm is not None:
            self._perm = widened(self._perm, 0)
        self.ranks_per_node = width

    # -- durable checkpoints ---------------------------------------------------

    def export_state(self) -> Dict[str, np.ndarray]:
        """The queue state as compact arrays, for durable checkpoints: the
        rank table, every nonempty lane's flat index with its head and
        tail cell ids, and every nonempty VOQ's key with its length.
        Arrays are fresh; empty queues cost nothing.  With
        :attr:`total_occupancy` this is the complete state."""
        head = self.head.reshape(-1)
        qlen = self.qlen.reshape(-1)
        lanes = np.flatnonzero(head)
        voqs = np.flatnonzero(qlen)
        return {
            "nbr": self.nbr.copy(),
            "lanes": lanes,
            "head": head[lanes],
            "tail": self.tail.reshape(-1)[lanes],
            "voqs": voqs,
            "qlen": qlen[voqs],
        }

    def load_state(self, state: Dict[str, np.ndarray], occupancy: int) -> None:
        """Replace the complete queue state (inverse of :meth:`export_state`)."""
        n = self.num_nodes
        nbr = np.asarray(state["nbr"], dtype=np.int32)
        fits = nbr.ndim == 2 and nbr.shape[0] == n
        if not fits or (nbr.size and not -1 <= nbr.min() <= nbr.max() < n):
            raise SimulationError(
                f"restored rank table (shape {nbr.shape}) does not fit a "
                f"{n}-node fabric"
            )
        width = nbr.shape[1]
        lanes = np.asarray(state["lanes"], dtype=np.int64)
        voqs = np.asarray(state["voqs"], dtype=np.int64)
        size = self.num_lanes * n * width
        if (lanes.size and (lanes.min() < 0 or lanes.max() >= size)) or (
            voqs.size and (voqs.min() < 0 or voqs.max() >= n * width)
        ):
            raise SimulationError(
                f"restored VOQ state addresses queues outside {self.num_lanes} "
                f"lanes x {n} nodes x {width} ranks"
            )
        self.nbr = nbr
        self.ranks_per_node = width
        self.head = np.zeros((self.num_lanes, n, width), dtype=np.int32)
        self.tail = np.zeros_like(self.head)
        self.qlen = np.zeros((n, width), dtype=np.int32)
        self.head.reshape(-1)[lanes] = state["head"]
        self.tail.reshape(-1)[lanes] = state["tail"]
        self.qlen.reshape(-1)[voqs] = state["qlen"]
        self._occupancy = int(occupancy)
        u, r = np.nonzero(nbr >= 0)
        v = nbr[u, r].astype(np.int64)
        self._bits[:] = 0
        np.bitwise_or.at(self._bits, (u, v >> 6), _ONE << (v & 63).astype(np.uint64))
        self._recount(np.arange(n))
        order = self._sorted_order(nbr)
        self._perm = None if (order == np.arange(width)).all() else order.astype(np.int32)

    # -- statistics ------------------------------------------------------------

    def credit(self, count: int) -> None:
        """Account *count* cells entering the fabric (injection batch)."""
        self._occupancy += count

    def debit(self, count: int) -> None:
        """Account *count* cells leaving the fabric (deliveries)."""
        self._occupancy -= count

    def queue_length(self, node: int, neighbor: int) -> int:
        """Cells queued at *node* toward *neighbor* (all lanes)."""
        rank, found = self._lookup(
            np.array([node], dtype=np.int64), np.array([neighbor], dtype=np.int64)
        )
        return int(self.qlen[node, rank[0]]) if found[0] else 0

    def node_backlog(self, node: int) -> int:
        """Total cells queued at *node* across all VOQs."""
        return int(self.qlen[node].sum())

    @property
    def total_occupancy(self) -> int:
        """Cells in flight anywhere in the fabric."""
        return self._occupancy

    def max_voq_length(self) -> int:
        """Longest single VOQ in the fabric (burst/buffering metric)."""
        return int(self.qlen.max()) if self.qlen.size else 0

    def min_voq_length(self) -> int:
        """Smallest VOQ counter (negative only if the accounting broke)."""
        return int(self.qlen.min()) if self.qlen.size else 0

    def backlogs(self) -> List[int]:
        """Per-node total backlogs."""
        return [int(v) for v in self.qlen.sum(axis=1)]
