"""Simulated network state: per-node, per-neighbor virtual output queues.

This is the simulator-facing counterpart of the hardware model in
:mod:`repro.hardware.node`: every node keeps one queue per next-hop
neighbor (VOQ), circuits drain the matching VOQ when their slot comes up,
and forwarded cells are re-enqueued at the downstream node.

Each VOQ consists of strict-priority *lanes*.  The default two-lane
policy serves transit cells (hop >= 1) before freshly injected cells, as
rotor-based designs do (RotorNet/Opera forward indirect traffic ahead of
new injections) — without this, an overloaded source starves its own
second hops and measured saturation throughput collapses below the
fabric's capacity.  A custom ``lane_of`` classifier adds further classes,
e.g. short-flow priority (see
:attr:`repro.sim.engine.SimConfig.short_flow_threshold_cells`).

Kept deliberately lightweight (plain dicts and deques) because it sits in
the simulator's inner loop.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from .flows import Cell

__all__ = [
    "SimNetwork",
    "LinkedVoqState",
    "clear_cube_pool",
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

    def transmit(self, src: int, dst: int, budget: int) -> List[Cell]:
        """Drain up to *budget* cells from src's VOQ toward dst, lane 0
        first.  Returns the transmitted cells (cursor not yet advanced)."""
        voq = self._voqs[src].get(dst)
        if voq is None:
            return []
        out: List[Cell] = []
        for queue in voq:
            while budget > len(out) and queue:
                out.append(queue.popleft())
        self._occupancy -= len(out)
        return out

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


# Recycled (head, tail, qlen) cube triples, keyed by (num_lanes,
# num_nodes), at most one triple per key.  At N=4096 the two (L, N, N)
# cursor cubes span ~268 MiB each; allocating them fresh per session
# means every run re-pays scattered first-touch page faults in the hot
# kernels (~0.2-0.9 s, the dominant per-run cost once the kernels
# themselves are fast).  Reusing the cubes keeps the pages resident:
# back-to-back N=4096 runs go from ~210 to ~550 slots/s on the bench
# host.  Zeroing on recycle touches only the dirty (u, v) pairs — the
# engine invariant that a drained-empty VOQ lane always resets its
# head/tail cursors to 0 means ``qlen[u, v] == 0`` implies the pair's
# cursors are already clean in every lane, so ``qlen > 0`` locates all
# dirt (and the differential fuzz harness, which runs hundreds of
# sessions through one process-wide pool, would surface any violation
# as a bit-exactness failure).
_CUBE_POOL: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _recycle_cubes(
    key: Tuple[int, int],
    head: np.ndarray,
    tail: np.ndarray,
    qlen: np.ndarray,
) -> None:
    """Finalizer: sanitize a dead session's cubes and pool them."""
    u, v = qlen.nonzero()  # qlen is nonnegative: nonzero == dirty
    if u.shape[0]:
        head[:, u, v] = 0
        tail[:, u, v] = 0
        qlen[u, v] = 0
    _CUBE_POOL[key] = (head, tail, qlen)


def clear_cube_pool() -> None:
    """Drop all pooled VOQ cubes (releases ~600 MiB after paper-scale
    runs; memory-measuring tests call this for a clean baseline)."""
    _CUBE_POOL.clear()


class LinkedVoqState:
    """Array-linked-list VOQ state for the fused-kernel engine.

    Queue contents are intrusive singly-linked lists over the engine's
    flat cell tables: ``head``/``tail`` give, per (lane, node, neighbor),
    the first and last queued cell id (``0`` = empty; cell ids are
    1-based, with table row 0 reserved as a dummy), and the engine's
    shared ``nxt`` array chains cell to cell.  Everything — enqueues,
    drains, statistics — is array arithmetic; no deque, dict, or per-cell
    Python object appears anywhere on the hot path (see
    :mod:`repro.sim.kernels` for the kernels that operate on this state).

    FIFO-per-lane and strict lane priority are preserved exactly:
    ``head → nxt → ... → tail`` *is* the per-lane deque order
    :class:`SimNetwork` keeps, so the fused engine inherits the
    reference engine's service discipline unchanged.

    Exposes the same statistics accessors as :class:`SimNetwork`
    (``total_occupancy``, ``max_voq_length``, ``queue_length``,
    ``node_backlog``, ``backlogs``) so tracers, telemetry collectors and
    the invariant checker observe it unchanged.
    """

    def __init__(self, num_nodes: int, num_lanes: int = 2):
        if num_nodes < 2:
            raise SimulationError("need at least 2 nodes")
        if num_lanes < 1:
            raise SimulationError("need at least one lane")
        self.num_nodes = int(num_nodes)
        self.num_lanes = int(num_lanes)
        shape = (self.num_lanes, self.num_nodes, self.num_nodes)
        # Cell ids in these cubes are 1-based (the engine reserves table
        # row 0 as a dummy), so 0 doubles as the empty sentinel and the
        # cubes come from calloc (np.zeros) instead of an eagerly filled
        # np.full — at N=4096 the two (L, N, N) cubes are ~268 MiB and
        # the untouched zero pages cut cold-start session construction
        # from over a second to effectively nothing.  A same-shape triple
        # from a finished session is reused when available (see
        # ``_CUBE_POOL``): the recycled cubes are already zeroed and,
        # crucially, already paged in.
        key = (self.num_lanes, self.num_nodes)
        pooled = _CUBE_POOL.pop(key, None)
        if pooled is not None:
            self.head, self.tail, self.qlen = pooled
        else:
            #: First queued cell id per (lane, node, neighbor); 0 = empty.
            self.head = np.zeros(shape, dtype=np.int32)
            #: Last queued cell id per (lane, node, neighbor); 0 = empty.
            self.tail = np.zeros(shape, dtype=np.int32)
            #: Dense per-(node, neighbor) queue lengths, all lanes summed.
            #: int32: a single VOQ holding 2**31 cells is unreachable
            #: (the cell tables would exhaust memory long before), and
            #: the narrower dtype halves the dominant N x N counter at
            #: paper scale (64 MiB saved at N=4096).
            self.qlen = np.zeros(
                (self.num_nodes, self.num_nodes), dtype=np.int32
            )
        self._occupancy = 0
        self._finalizer = weakref.finalize(
            self, _recycle_cubes, key, self.head, self.tail, self.qlen
        )
        # Never run during interpreter shutdown — numpy may already be
        # torn down, and there is no process left to reuse the cubes.
        self._finalizer.atexit = False

    def export_state(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """(head, tail, qlen, occupancy) — the complete queue state, for
        durable checkpoints.  Arrays are the live ones; callers copy."""
        return self.head, self.tail, self.qlen, self._occupancy

    def load_state(
        self,
        head: np.ndarray,
        tail: np.ndarray,
        qlen: np.ndarray,
        occupancy: int,
    ) -> None:
        """Replace the complete queue state (inverse of
        :meth:`export_state`); shapes must match this fabric's."""
        expected = self.head.shape
        if head.shape != expected or tail.shape != expected:
            raise SimulationError(
                f"restored VOQ state has shape {head.shape}, fabric "
                f"expects {expected}"
            )
        displaced = head is not self.head
        if displaced:
            # Sanitize and pool the replaced cubes right now (the
            # finalizer is re-bound to the restored arrays below, so the
            # old triple would otherwise never be recycled).
            self._finalizer()
        self.head = head.astype(np.int32, copy=False)
        self.tail = tail.astype(np.int32, copy=False)
        self.qlen = qlen.astype(np.int32, copy=False)
        self._occupancy = int(occupancy)
        if displaced:
            self._finalizer = weakref.finalize(
                self,
                _recycle_cubes,
                (self.num_lanes, self.num_nodes),
                self.head,
                self.tail,
                self.qlen,
            )
            self._finalizer.atexit = False

    def credit(self, count: int) -> None:
        """Account *count* cells entering the fabric (injection batch)."""
        self._occupancy += count

    def debit(self, count: int) -> None:
        """Account *count* cells leaving the fabric (deliveries)."""
        self._occupancy -= count

    def queue_length(self, node: int, neighbor: int) -> int:
        """Cells queued at *node* toward *neighbor* (all lanes)."""
        return int(self.qlen[node, neighbor])

    def node_backlog(self, node: int) -> int:
        """Total cells queued at *node* across all VOQs."""
        return int(self.qlen[node].sum())

    @property
    def total_occupancy(self) -> int:
        """Cells in flight anywhere in the fabric."""
        return self._occupancy

    def max_voq_length(self) -> int:
        """Longest single VOQ in the fabric (burst/buffering metric)."""
        return int(self.qlen.max())

    def backlogs(self) -> List[int]:
        """Per-node total backlogs."""
        return [int(v) for v in self.qlen.sum(axis=1)]
