"""Runtime flow and cell state for the slot simulator."""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from ..errors import SimulationError
from ..traffic.workload import FlowSpec

__all__ = ["Cell", "FlowState"]


@dataclasses.dataclass
class Cell:
    """One slot-sized unit of a flow in flight.

    A cell carries its full source route (per-cell VLB) and a cursor into
    it; a cell sitting in node ``path[hop]``'s VOQ is waiting for the
    circuit to ``path[hop + 1]``.
    """

    __slots__ = ("flow", "path", "hop", "injected_slot")

    flow: "FlowState"
    path: Tuple[int, ...]
    hop: int
    injected_slot: int

    @property
    def current_node(self) -> int:
        return self.path[self.hop]

    @property
    def next_node(self) -> int:
        return self.path[self.hop + 1]

    @property
    def at_last_hop(self) -> bool:
        return self.hop == len(self.path) - 2

    def advance(self) -> None:
        """Move the cursor forward one hop after a transmission."""
        if self.hop >= len(self.path) - 1:
            raise SimulationError("cell advanced past its destination")
        self.hop += 1


@dataclasses.dataclass
class FlowState:
    """Book-keeping for one flow across the simulation."""

    spec: FlowSpec
    injected_cells: int = 0
    delivered_cells: int = 0
    first_delivery_slot: Optional[int] = None
    completion_slot: Optional[int] = None
    total_hop_count: int = 0

    @property
    def is_complete(self) -> bool:
        return self.delivered_cells >= self.spec.size_cells

    def record_delivery(self, slot: int, hops: int) -> None:
        """Account one delivered cell; close the flow when all arrive."""
        if self.is_complete:
            raise SimulationError(
                f"flow {self.spec.flow_id} over-delivered beyond "
                f"{self.spec.size_cells} cells"
            )
        self.delivered_cells += 1
        self.total_hop_count += hops
        if self.first_delivery_slot is None:
            self.first_delivery_slot = slot
        if self.is_complete:
            self.completion_slot = slot

    @property
    def fct_slots(self) -> Optional[int]:
        """Flow completion time in slots (None while incomplete)."""
        if self.completion_slot is None:
            return None
        return self.completion_slot - self.spec.arrival_slot + 1

    @property
    def mean_hops(self) -> float:
        """Mean per-cell hop count among delivered cells."""
        if self.delivered_cells == 0:
            return 0.0
        return self.total_hop_count / self.delivered_cells
