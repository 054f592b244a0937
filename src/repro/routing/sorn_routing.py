"""The paper's SORN routing scheme (section 4, "Routing").

Oblivious routing is used as a building block *within* the semi-oblivious
structure:

- **Intra-clique** traffic treats its clique as a standalone ORN and uses
  2-hop VLB: a load-balancing hop to a uniformly random clique-mate, then
  the direct intra-clique circuit to the destination.
- **Inter-clique** traffic uses at most 3 hops: a load-balancing hop to a
  random clique-mate ``w``, the position-aligned inter-clique circuit from
  ``w`` to the destination clique, and the final intra-clique circuit to
  the destination.  The LB hop absorbs uneven distribution of inter-clique
  demand across individual source-destination pairs.

In Figure 2(d)'s topology A, a flow 0 -> 6 may route 0->3->7->6 (w = 3,
whose aligned peer in the destination clique is 7) or 0->1->4->6 — exactly
the paths this router enumerates.
"""

from __future__ import annotations

import numpy as np

from ..errors import RoutingError
from ..topology.cliques import CliqueLayout
from ..util import ensure_rng
from .base import DrawRouter, Path

__all__ = ["SornRouter"]


class SornRouter(DrawRouter):
    """Hierarchical 2/3-hop oblivious routing over a SORN clique layout.

    Parameters
    ----------
    layout:
        The clique layout; must be equal-sized so position-aligned
        inter-clique circuits exist for every (node, clique) pair.
    """

    def __init__(self, layout: CliqueLayout):
        if not layout.is_equal_sized:
            raise RoutingError("SornRouter requires equal-sized cliques")
        self.layout = layout
        # Array mirrors of the layout for the kernel.
        self._clique_arr = layout.assignment()
        self._pos_arr = layout.positions()
        self._member_mat = layout.member_matrix()

    @property
    def num_nodes(self) -> int:
        return self.layout.num_nodes

    @property
    def max_hops(self) -> int:
        """2 intra-clique, 3 inter-clique; 3 overall unless single-clique."""
        return 2 if self.layout.num_cliques == 1 else 3

    def aligned_peer(self, node: int, clique: int) -> int:
        """The node at *node*'s position within *clique* (its inter-circuit
        endpoint toward that clique)."""
        return self.layout.node_at(clique, self.layout.position_of(node))

    def draw_bounds(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """One draw: ``S - 1`` clique-mates other than src for intra
        pairs, any of the ``S`` clique members for inter pairs."""
        size = self.layout.clique_size
        intra = self._clique_arr[srcs] == self._clique_arr[dsts]
        return np.where(intra, size - 1, size)[:, None]

    def walks(self, srcs: np.ndarray, dsts: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """``[src, mid, entry, dst]``.  Intra pairs enter at dst, so a
        draw of dst is the direct path; inter pairs skip the LB hop when
        the draw is src and the final hop when the entry is dst."""
        members = self._member_mat
        c_src = self._clique_arr[srcs]
        c_dst = self._clique_arr[dsts]
        intra = c_src == c_dst
        draw = draws[:, 0]
        # Intra draws index the clique-mates other than src, in member order.
        mid = members[c_src, draw + (intra & (draw >= self._pos_arr[srcs]))]
        entry = np.where(intra, dsts, members[c_dst, self._pos_arr[mid]])
        return np.stack([srcs, mid, entry, dsts], axis=1)

    def path(self, src: int, dst: int, rng=None) -> Path:
        """Sample directly (no enumeration): draw the load-balancing
        clique-mate, then follow the scheme deterministically."""
        self._check_pair(src, dst)
        gen = ensure_rng(rng)
        members = self.layout.members(self.layout.clique_of(src))
        size = len(members)
        if self.layout.same_clique(src, dst):
            if size < 2:
                raise RoutingError("intra-clique pair in a singleton clique")
            # Uniform over clique members excluding src and dst; remaining
            # mass (the dst draw) becomes the direct path — matching the
            # enumerated distribution 1/(S-1) each.
            idx = int(gen.integers(size - 1))
            candidates = [m for m in members if m != src]
            mid = candidates[idx]
            if mid == dst:
                return Path((src, dst))
            return Path((src, mid, dst))
        mid = members[int(gen.integers(size))]
        entry = self.aligned_peer(mid, self.layout.clique_of(dst))
        nodes = [src]
        if mid != src:
            nodes.append(mid)
        nodes.append(entry)
        if entry != dst:
            nodes.append(dst)
        return Path(tuple(nodes))
