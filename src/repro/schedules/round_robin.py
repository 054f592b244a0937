"""Flat round-robin schedule: the 1D optimal ORN (paper Figure 1).

Every node cycles through all other nodes with one slot each, so the period
is ``N - 1`` and the emulated logical topology is a uniform clique with each
virtual edge carrying ``1/(N-1)`` of node bandwidth.  This is the schedule
family of Sirius, RotorNet, and Shoal; with 2-hop VLB routing it achieves
50 % worst-case throughput at Theta(N) intrinsic latency.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..util import check_positive_int
from .matching import Matching
from .schedule import CircuitSchedule

__all__ = ["RoundRobinSchedule"]


class RoundRobinSchedule(CircuitSchedule):
    """The rotation schedule ``slot t: src -> (src + t + 1) mod N``.

    Matches the paper's Figure 1: for N=5, node A faces B, C, D, E across
    slots 1..4.  Matchings are generated lazily, so instances scale to the
    paper's 4096-rack analyses without materializing N matchings of size N.
    """

    def __init__(self, num_nodes: int, num_planes: int = 1):
        num_nodes = check_positive_int(num_nodes, "num_nodes", minimum=2)
        super().__init__(num_nodes, period=num_nodes - 1, num_planes=num_planes)

    def matching(self, slot: int) -> Matching:
        return Matching.rotation(self._num_nodes, (slot % self._period) + 1)

    def max_wait_slots(self, src: int, dst: int) -> int:
        """Closed form: every circuit appears exactly once per period."""
        if src == dst:
            raise ValueError("src and dst must differ")
        return self._period

    def edge_fractions(self) -> Dict[Tuple[int, int], float]:
        """Closed form: the uniform clique at 1/(N-1) per ordered pair."""
        frac = 1.0 / self._period
        n = self._num_nodes
        return {(u, v): frac for u in range(n) for v in range(n) if u != v}

    @property
    def intrinsic_latency_slots(self) -> int:
        """delta_m for 2-hop VLB on this schedule: the LB hop is free and
        the direct hop waits at most one full period (N - 1 slots)."""
        return self._period
