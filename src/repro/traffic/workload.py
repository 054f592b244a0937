"""Open-loop flow workloads for the slot-level simulator.

A :class:`Workload` turns (traffic matrix, flow-size distribution, load
factor) into a concrete :class:`FlowTable` of arrivals: Poisson in time,
pair-sampled from the matrix, sized by the distribution.  Sizes are
expressed in *cells* — the unit one circuit slot transmits — so the
simulator stays unit-free; :attr:`cell_bytes` records the conversion.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Sequence, Union

import numpy as np

from ..errors import TrafficError
from ..util import check_positive_int, ensure_rng, RngLike
from .flowsize import FlowSizeDistribution
from .matrix import TrafficMatrix

__all__ = ["FlowSpec", "FlowTable", "Workload"]

#: Pair-CDF elements built at a time.  ``Workload`` keeps one float per
#: block, and each pass over the CDF reuses one block-sized buffer, so
#: no N x N array exists beside the demand matrix.
_CDF_BLOCK = 1 << 16


@dataclasses.dataclass(frozen=True)
class FlowSpec:
    """One flow arrival: who, when, and how much.

    Attributes
    ----------
    flow_id:
        The flow's row in its :class:`FlowTable`: ids count 0, 1, 2, ...
        in arrival order.
    src, dst:
        Endpoints (distinct).
    size_cells:
        Flow size in cells (>= 1).
    arrival_slot:
        Slot index at which the flow becomes available to inject.
    """

    flow_id: int
    src: int
    dst: int
    size_cells: int
    arrival_slot: int

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise TrafficError("flow endpoints must differ")
        if self.size_cells < 1:
            raise TrafficError("flow size must be at least one cell")
        if self.arrival_slot < 0:
            raise TrafficError("arrival slot must be non-negative")


def _column(values, name: str, copy: bool) -> np.ndarray:
    """One flow column as a read-only C-contiguous int64 array: a fresh
    copy, or with ``copy=False`` *values* itself when it already is one."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise TrafficError(f"flow column {name!r} must be one-dimensional")
    if arr.size and arr.dtype.kind not in "iu":
        raise TrafficError(f"flow column {name!r} must hold integers, got {arr.dtype}")
    if copy:
        out = np.array(arr, dtype=np.int64, order="C")
    else:
        out = np.ascontiguousarray(arr, dtype=np.int64)
    out.setflags(write=False)
    return out


class FlowTable:
    """A flow population as four read-only int64 columns.

    Row *i* is the flow with id *i*: ``src[i]`` sends ``size_cells[i]``
    cells to ``dst[i]``, available from slot ``arrival_slot[i]``.  The
    constructor copies and validates the columns (the checks
    :class:`FlowSpec` runs per flow, as array checks) and freezes them,
    so one table can be shared by any number of runs.  Iterating yields
    one :class:`FlowSpec` per row, for code that works flow by flow.
    """

    __slots__ = ("src", "dst", "size_cells", "arrival_slot")

    def __init__(self, src, dst, size_cells, arrival_slot):
        self._set_columns(src, dst, size_cells, arrival_slot, copy=True)

    @classmethod
    def _adopt(cls, src, dst, size_cells, arrival_slot) -> "FlowTable":
        """Wrap int64 columns the package just built, without copying.

        For the package's own samplers only: the table runs the
        constructor's checks, takes ownership of the arrays and makes
        them read-only, so the caller must hold no other reference it
        still writes through.
        """
        table = cls.__new__(cls)
        table._set_columns(src, dst, size_cells, arrival_slot, copy=False)
        return table

    def _set_columns(self, src, dst, size_cells, arrival_slot, copy: bool) -> None:
        self.src = _column(src, "src", copy)
        self.dst = _column(dst, "dst", copy)
        self.size_cells = _column(size_cells, "size_cells", copy)
        self.arrival_slot = _column(arrival_slot, "arrival_slot", copy)
        if not (
            self.src.size == self.dst.size == self.size_cells.size
            == self.arrival_slot.size
        ):
            raise TrafficError("flow columns must have equal lengths")
        if np.any(self.src == self.dst):
            raise TrafficError("flow endpoints must differ")
        if np.any(self.size_cells < 1):
            raise TrafficError("flow size must be at least one cell")
        if np.any(self.arrival_slot < 0):
            raise TrafficError("arrival slot must be non-negative")

    @classmethod
    def of(cls, flows: "FlowsLike") -> "FlowTable":
        """*flows* as a table: a table unchanged, a ``FlowSpec``
        sequence converted.  Flow ids must be the row indices."""
        if isinstance(flows, FlowTable):
            return flows
        specs = list(flows)
        for row, spec in enumerate(specs):
            if spec.flow_id != row:
                raise TrafficError(
                    f"flow ids must be the row indices 0..{len(specs) - 1} in "
                    f"order; row {row} has id {spec.flow_id}"
                )
        return cls(
            [f.src for f in specs],
            [f.dst for f in specs],
            [f.size_cells for f in specs],
            [f.arrival_slot for f in specs],
        )

    def __len__(self) -> int:
        return int(self.src.size)

    def __iter__(self) -> Iterator[FlowSpec]:
        columns = zip(
            self.src.tolist(),
            self.dst.tolist(),
            self.size_cells.tolist(),
            self.arrival_slot.tolist(),
        )
        for row, (src, dst, size, arrival) in enumerate(columns):
            yield FlowSpec(row, src, dst, size, arrival)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlowTable):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.__slots__
        )

    def __reduce__(self):
        # Rebuilt through the constructor, so a copy is frozen again.
        return FlowTable, (self.src, self.dst, self.size_cells, self.arrival_slot)

    def __repr__(self) -> str:
        return f"FlowTable(flows={len(self)})"


#: What the engines and the flow model accept: a table, or a ``FlowSpec``
#: sequence whose ids are its row indices.
FlowsLike = Union[FlowTable, Sequence[FlowSpec]]


class Workload:
    """Poisson open-loop flow generator.

    Parameters
    ----------
    matrix:
        Demand matrix used as the (src, dst) sampling distribution.
    flow_sizes:
        Flow-size distribution in bytes.
    load:
        Offered load as a fraction of aggregate network injection
        bandwidth (1.0 = every node's egress saturated on average).
    cell_bytes:
        Bytes one slot-circuit carries; converts sampled sizes to cells.
    """

    def __init__(
        self,
        matrix: TrafficMatrix,
        flow_sizes: FlowSizeDistribution,
        load: float = 0.5,
        cell_bytes: float = 1500.0,
    ):
        if load <= 0:
            raise TrafficError("load must be positive")
        if cell_bytes <= 0:
            raise TrafficError("cell_bytes must be positive")
        self.matrix = matrix
        self.flow_sizes = flow_sizes
        self.load = float(load)
        self.cell_bytes = float(cell_bytes)
        total = matrix.total
        if total == 0:
            raise TrafficError("cannot sample from an all-zero matrix")
        self._rates = matrix.rates.reshape(-1)  # a view: rates are C-ordered
        self._total = total
        self._block = _CDF_BLOCK
        # The pair CDF is never held whole: one pass keeps only each
        # block's last cumulative sum, which carries into the next block
        # here and in every ``generate``.
        ends = np.empty(-(-self._rates.size // self._block))
        self._block_ends = ends
        buf = np.empty(min(self._block, self._rates.size))
        for block in range(ends.size):
            ends[block] = self._block_cumsum(block, buf)[-1]
        if abs(ends[-1] - 1.0) > np.sqrt(np.finfo(np.float64).eps):
            raise TrafficError("pair probabilities do not sum to 1")
        self._mean_cells = max(1.0, flow_sizes.mean_size() / cell_bytes)

    def _block_cumsum(self, block: int, buf: np.ndarray) -> np.ndarray:
        """Block *block* of ``np.cumsum(rates / total)``, written into
        *buf*: the same divisions and the same additions in the same
        order, because the block's first element absorbs the previous
        block's last sum before the block's own cumulative sum runs.
        Needs ``_block_ends`` filled up to the previous block."""
        start = block * self._block
        rates = self._rates[start:start + self._block]
        cdf = np.divide(rates, self._total, out=buf[: rates.size])
        if block:
            cdf[0] += self._block_ends[block - 1]
        return np.cumsum(cdf, out=cdf)

    def _search_pairs(self, uniforms: np.ndarray) -> np.ndarray:
        """``cdf.searchsorted(uniforms, side="right")`` on the normalized
        pair CDF (``cdf /= cdf[-1]``), for *uniforms* sorted ascending.

        A uniform's answer lies in the first block whose normalized end
        exceeds it: every earlier element is at most that block's
        predecessor's end, every later one at least its own end.  Only
        those blocks are rebuilt and searched; uniforms past the last
        end get ``n * n``, as the whole-array search gives them.
        """
        last = self._block_ends[-1]
        cuts = uniforms.searchsorted(self._block_ends / last, side="left")
        out = np.full(uniforms.size, self._rates.size, dtype=np.int64)
        buf = np.empty(min(self._block, self._rates.size))
        lo = 0
        for block, hi in enumerate(cuts.tolist()):
            if hi > lo:
                cdf = self._block_cumsum(block, buf)
                cdf /= last
                np.add(
                    cdf.searchsorted(uniforms[lo:hi], side="right"),
                    block * self._block,
                    out=out[lo:hi],
                )
            lo = hi
        return out

    @property
    def num_nodes(self) -> int:
        return self.matrix.num_nodes

    @property
    def arrivals_per_slot(self) -> float:
        """Mean flow arrivals per slot for the configured load.

        Aggregate injection capacity is one cell per node per slot, so the
        arrival rate is ``load * N / mean_flow_cells``.
        """
        return self.load * self.num_nodes / self._mean_cells

    def generate(self, duration_slots: int, rng: RngLike = None) -> FlowTable:
        """Materialize all arrivals in ``[0, duration_slots)``.

        Draws, in order: one Poisson count per slot, one pair uniform per
        flow, one size uniform per flow (nothing after the counts when
        there is no flow).  The pairs are ``Generator.choice(n * n,
        p=...)``'s draws exactly — the same uniforms searched in the same
        CDF — only searched in sorted order, block by block, which gives
        the same indices without building the whole CDF.  Each temporary
        is dropped before the next large allocation, and the table adopts
        the columns built here instead of copying them.
        """
        duration_slots = check_positive_int(duration_slots, "duration_slots")
        gen = ensure_rng(rng)
        n = self.num_nodes
        counts = gen.poisson(self.arrivals_per_slot, size=duration_slots)
        total = int(counts.sum())
        if total == 0:
            empty = np.zeros(0, dtype=np.int64)
            return FlowTable(empty, empty, empty, empty)
        uniforms = gen.random(total)
        order = np.argsort(uniforms)
        uniforms = uniforms[order]
        found = self._search_pairs(uniforms)
        del uniforms
        pair_indices = np.empty(total, dtype=np.int64)
        pair_indices[order] = found
        del order, found
        sizes = self.flow_sizes.sample(gen, count=total)
        size_cells = np.maximum(1, np.round(sizes / self.cell_bytes)).astype(np.int64)
        del sizes
        src, dst = np.divmod(pair_indices, n)
        del pair_indices
        arrival = np.repeat(np.arange(duration_slots, dtype=np.int64), counts)
        return FlowTable._adopt(src, dst, size_cells, arrival)

    def offered_cells(self, flows: FlowsLike) -> int:
        """Total cells offered by a generated arrival table."""
        return int(FlowTable.of(flows).size_cells.sum())

    def __repr__(self) -> str:
        return (
            f"Workload(num_nodes={self.num_nodes}, load={self.load}, "
            f"sizes={self.flow_sizes.name!r})"
        )
