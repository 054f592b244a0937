"""Two-hop Valiant load balancing over a uniformly connected schedule.

The classic ORN routing scheme (Valiant & Brebner 1981; used by Sirius,
RotorNet, Shoal): every packet takes one load-balancing hop to a uniformly
random intermediate node, then a direct hop to its destination.  Spreading
over intermediates makes *any* admissible traffic matrix look uniform, at
the cost of doubling traffic volume — hence the 50 % worst-case throughput
the paper cites.

The intermediate is drawn uniformly from all nodes except the source; when
it coincides with the destination the packet takes the direct single hop.
"""

from __future__ import annotations

import numpy as np

from ..util import check_positive_int, ensure_rng
from .base import DrawRouter, Path

__all__ = ["VlbRouter"]


class VlbRouter(DrawRouter):
    """Uniform 2-hop VLB over ``num_nodes`` fully connected virtual nodes."""

    def __init__(self, num_nodes: int):
        self._num_nodes = check_positive_int(num_nodes, "num_nodes", minimum=2)

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def max_hops(self) -> int:
        return 2

    def draw_bounds(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """One draw over the ``N - 1`` nodes other than src."""
        return np.full((srcs.size, 1), self._num_nodes - 1, dtype=np.int64)

    def walks(self, srcs: np.ndarray, dsts: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """``[src, mid, dst]``; a draw of dst is the direct path."""
        mid = draws[:, 0] + (draws[:, 0] >= srcs)
        return np.stack([srcs, mid, dsts], axis=1)

    def path(self, src: int, dst: int, rng=None) -> Path:
        """Sample directly (no enumeration): draw the intermediate."""
        self._check_pair(src, dst)
        gen = ensure_rng(rng)
        mid = int(gen.integers(self._num_nodes - 1))
        if mid >= src:
            mid += 1  # uniform over nodes != src
        if mid == dst:
            return Path((src, dst))
        return Path((src, mid, dst))
