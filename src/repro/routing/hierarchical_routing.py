"""Routing for the hierarchical (h-dim intra) SORN family.

- Intra-clique pairs use 2h-hop VLB on the clique's h-dimensional
  schedule: per dimension, one load-balancing digit hop then one direct
  digit hop (degenerate non-moves skipped).
- Inter-clique pairs: an h-hop load-balancing *digit walk* to a uniformly
  random position (arbitrary clique mates are not single circuits here),
  the position-aligned inter-clique circuit, then h digit-fixing hops to
  the destination inside its clique.

Worst case: ``2h`` hops intra, ``2h + 1`` hops inter.  At h = 1 this is
exactly the paper's SORN routing (1 LB + 1 inter + 1 final).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..errors import RoutingError
from ..schedules.hierarchical import HierarchicalSornSchedule
from ..util import ensure_rng
from .base import DrawRouter, Path, pad_walks

__all__ = ["HierarchicalSornRouter"]


class HierarchicalSornRouter(DrawRouter):
    """2h/(2+h)-hop oblivious routing over a hierarchical SORN schedule."""

    def __init__(self, schedule: HierarchicalSornSchedule):
        self.schedule = schedule
        self.layout = schedule.layout
        self._clique_arr = self.layout.assignment()

    @property
    def num_nodes(self) -> int:
        return self.layout.num_nodes

    @property
    def max_hops(self) -> int:
        if self.layout.num_cliques == 1:
            return 2 * self.schedule.h
        return 2 * self.schedule.h + 1

    # -- path construction -------------------------------------------------------

    def _digit_walk(
        self, clique: int, start_pos: int, dst_pos: int, lb_digits=None
    ) -> List[int]:
        """Nodes visited fixing digits from start to dst within a clique.

        With *lb_digits* (one per dimension) a VLB digit hop precedes each
        direct hop; without, the walk is direct digit fixing only.
        """
        sched = self.schedule
        nodes: List[int] = []
        pos = start_pos
        for dim in range(sched.h):
            if lb_digits is not None:
                target = lb_digits[dim]
                current = sched.position_digit(pos, dim)
                if target != current:
                    pos = sched.advance_position(
                        pos, dim, (target - current) % sched.radix
                    )
                    nodes.append(self.layout.node_at(clique, pos))
            current = sched.position_digit(pos, dim)
            want = sched.position_digit(dst_pos, dim)
            if want != current:
                pos = sched.advance_position(pos, dim, (want - current) % sched.radix)
                nodes.append(self.layout.node_at(clique, pos))
        if pos != dst_pos:
            raise RoutingError("digit walk failed to reach destination position")
        return nodes

    def _intra_path(self, src: int, dst: int, lb_digits: Sequence[int]) -> Tuple[int, ...]:
        clique = self.layout.clique_of(src)
        nodes = [src] + self._digit_walk(
            clique,
            self.layout.position_of(src),
            self.layout.position_of(dst),
            lb_digits,
        )
        return tuple(nodes)

    def _inter_path(self, src: int, dst: int, lb_position: int) -> Tuple[int, ...]:
        src_clique = self.layout.clique_of(src)
        dst_clique = self.layout.clique_of(dst)
        # LB digit walk inside the source clique to the random position.
        nodes = [src] + self._digit_walk(
            src_clique, self.layout.position_of(src), lb_position
        )
        entry = self.layout.node_at(dst_clique, lb_position)
        nodes.append(entry)
        nodes.extend(
            self._digit_walk(dst_clique, lb_position, self.layout.position_of(dst))
        )
        return tuple(nodes)

    # -- Router interface -----------------------------------------------------------

    def draw_bounds(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """Intra pairs draw one LB digit per dimension; inter pairs draw
        one LB position in the source clique."""
        sched = self.schedule
        inter = self._clique_arr[srcs] != self._clique_arr[dsts]
        bounds = np.full((srcs.size, sched.h), sched.radix, dtype=np.int64)
        bounds[inter, 0] = self.layout.clique_size
        bounds[inter, 1:] = 1
        return bounds

    def walks(self, srcs: np.ndarray, dsts: np.ndarray, draws: np.ndarray) -> np.ndarray:
        rows = []
        for src, dst, lb in zip(srcs.tolist(), dsts.tolist(), draws.tolist()):
            if self.layout.same_clique(src, dst):
                rows.append(self._intra_path(src, dst, lb))
            else:
                rows.append(self._inter_path(src, dst, lb[0]))
        return pad_walks(rows, self.max_hops + 1)

    def path(self, src: int, dst: int, rng=None) -> Path:
        """Direct sampling without enumeration."""
        self._check_pair(src, dst)
        gen = ensure_rng(rng)
        sched = self.schedule
        if self.layout.same_clique(src, dst):
            lb = [int(gen.integers(sched.radix)) for _ in range(sched.h)]
            return Path(self._intra_path(src, dst, lb))
        lb_position = int(gen.integers(self.layout.clique_size))
        return Path(self._inter_path(src, dst, lb_position))
