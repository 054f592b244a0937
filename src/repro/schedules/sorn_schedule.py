"""The semi-oblivious (SORN) circuit schedule (paper section 4, Fig 2d-e).

Nodes are grouped into ``Nc`` equal cliques of size ``S = N / Nc``.  The
schedule interleaves two matching families:

- *intra-clique* matchings: simultaneous rotations within every clique
  (shift j links position i to position ``(i + j) mod S`` of the same
  clique), giving each node ``S - 1`` intra neighbors;
- *inter-clique* matchings: position-aligned clique rotations (shift g
  links position i of clique c to position i of clique ``(c + g) mod Nc``),
  giving each node ``Nc - 1`` inter neighbors.

Intra slots outnumber inter slots by the *oversubscription ratio* ``q``:
intra links carry ``q/(q+1)`` of node bandwidth and inter links ``1/(q+1)``.
Setting ``q = 2/(1-x)`` for intra-clique demand fraction ``x`` balances both
link classes and yields worst-case throughput ``1/(3-x)``.

The construction keeps a *fixed neighbor superset* per node
(``S - 1 + Nc - 1`` neighbors) across any choice of q, which is what lets a
control plane rebalance bandwidth without allocating new NIC queue state
(paper section 5).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..topology.cliques import CliqueLayout
from ..util import check_positive_int, spread_evenly
from .matching import Matching
from .schedule import CircuitSchedule

__all__ = ["SornSchedule", "build_sorn_schedule"]

INTRA, INTER = 0, 1


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


def _interleave(period: int, inter_slots: int) -> Tuple[np.ndarray, np.ndarray]:
    """Slot kinds and each slot's 0-based index within its own family.

    Inter slots are spread evenly through the period so the worst-case
    gaps match the analytical q+1 spacing.
    """
    kind = np.full(period, INTRA, dtype=np.int8)
    if inter_slots:
        kind[spread_evenly(inter_slots, period)] = INTER
    inter = kind == INTER
    family_index = np.where(inter, np.cumsum(inter), np.cumsum(~inter)) - 1
    return kind, family_index


def _clique_bank(
    order: np.ndarray, intra_cols: np.ndarray, kind: np.ndarray, family_index: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Bank rows and base-plane index of a clique schedule.

    *order* is the ``(Nc, S)`` node ordering (``order[c, i]`` = node at
    position i of clique c).  Intra row r links position i of every clique
    to position ``intra_cols[r, i]`` of the same clique; inter row g - 1
    links position i of clique c to position i of clique ``(c + g) mod
    Nc``.  Slot t runs intra row ``family_index[t] mod R`` or inter row
    ``family_index[t] mod (Nc - 1)``, each family cycling in order.
    """
    nc, size = order.shape
    intra = order[:, intra_cols].transpose(1, 0, 2).reshape(-1, nc * size)
    inter = order[(np.arange(nc) + np.arange(1, nc)[:, None]) % nc].reshape(-1, nc * size)
    bank = np.empty((len(intra) + len(inter), nc * size), dtype=np.int32)
    bank[:, order.ravel()] = np.concatenate([intra, inter])
    base = np.empty(kind.size, dtype=np.int32)
    is_intra = kind == INTRA
    if len(intra):
        base[is_intra] = family_index[is_intra] % len(intra)
    if len(inter):
        base[~is_intra] = len(intra) + family_index[~is_intra] % len(inter)
    return bank, base


class SornSchedule(CircuitSchedule):
    """Interleaved intra/inter clique schedule with oversubscription ``q``.

    Parameters
    ----------
    layout:
        An equal-sized :class:`CliqueLayout` over the node set.
    q:
        Oversubscription ratio (intra : inter bandwidth), ``q >= 1`` as in
        the paper.  Approximated by a rational with denominator at most
        ``max_denominator`` so the schedule has an integral period.
    num_planes:
        Parallel uplink planes (rotated schedule copies).
    max_denominator:
        Cap on the rational approximation of ``q``.
    """

    def __init__(
        self,
        layout: CliqueLayout,
        q: float = 1.0,
        num_planes: int = 1,
        max_denominator: int = 64,
    ):
        if not layout.is_equal_sized:
            raise ConfigurationError(
                "SornSchedule requires equal-sized cliques (the paper's "
                "analysis assumption); use control-plane synthesis for "
                "unequal layouts"
            )
        self.layout = layout
        n = layout.num_nodes
        nc = layout.num_cliques
        size = layout.clique_size
        if n < 2:
            raise ConfigurationError("need at least 2 nodes")

        self.q_exact = Fraction(q).limit_denominator(
            check_positive_int(max_denominator, "max_denominator")
        )
        if self.q_exact < 1:
            raise ConfigurationError(f"oversubscription q must be >= 1, got {q}")

        num_intra_matchings = size - 1
        num_inter_matchings = nc - 1
        if num_intra_matchings == 0 and num_inter_matchings == 0:
            raise ConfigurationError("layout induces no circuits at all")

        if num_intra_matchings == 0:
            # Cliques of one node: pure inter round robin.
            intra_slots, inter_slots = 0, num_inter_matchings
        elif num_inter_matchings == 0:
            # Single clique: pure intra round robin (a flat 1D ORN).
            intra_slots, inter_slots = num_intra_matchings, 0
        else:
            a, b = self.q_exact.numerator, self.q_exact.denominator
            m = _lcm(
                num_intra_matchings // math.gcd(a, num_intra_matchings),
                num_inter_matchings // math.gcd(b, num_inter_matchings),
            )
            intra_slots, inter_slots = a * m, b * m

        period = intra_slots + inter_slots
        super().__init__(n, period, num_planes)
        self.num_intra_slots = intra_slots
        self.num_inter_slots = inter_slots

        self._kind, self._family_index = _interleave(period, inter_slots)
        # Node ordering matrix: order[c, i] = node at position i of clique c.
        self._order = np.array(layout.groups(), dtype=np.int64)
        self.compiled()  # eager: milliseconds, and matching() reads it

    # -- construction helpers ---------------------------------------------------

    def _compile(self) -> Tuple[np.ndarray, np.ndarray]:
        """The S-1 intra rotations (shift j), then the Nc-1 clique
        rotations (shift g), indexed straight from the slot families."""
        size = self.clique_size
        shifts = np.arange(1, size)[:, None]
        intra_cols = (np.arange(size) + shifts) % size
        bank, base = _clique_bank(self._order, intra_cols, self._kind, self._family_index)
        return bank, self._offset_planes(base)

    @property
    def num_cliques(self) -> int:
        return self.layout.num_cliques

    @property
    def clique_size(self) -> int:
        return self.layout.clique_size

    @property
    def q(self) -> float:
        """The realized oversubscription ratio (rational approximation)."""
        if self.num_inter_slots == 0 or self.num_intra_slots == 0:
            return float(self.q_exact)
        return self.num_intra_slots / self.num_inter_slots

    @property
    def intra_bandwidth_fraction(self) -> float:
        """Fraction of node bandwidth on intra-clique links: q/(q+1)."""
        return self.num_intra_slots / self.period

    @property
    def inter_bandwidth_fraction(self) -> float:
        """Fraction of node bandwidth on inter-clique links: 1/(q+1)."""
        return self.num_inter_slots / self.period

    def is_intra_slot(self, slot: int) -> bool:
        """Whether (cyclic) slot *slot* carries intra-clique matchings."""
        return self._kind[slot % self._period] == INTRA

    def matching(self, slot: int) -> Matching:
        bank, index = self.compiled()
        return Matching(bank[index[slot % self._period, 0]])

    # -- analytical properties ----------------------------------------------------

    def delta_m_intra(self) -> int:
        """Intrinsic latency (slots) for intra-clique traffic on this
        realized schedule: worst wait for a specific intra circuit.

        Analytically ``(q+1)/q * (S-1)``; the realized value can differ by
        a slot or two from rounding in the interleave.
        """
        if self.clique_size == 1:
            return 0
        u = self._order[0][0]
        v = self._order[0][1 % self.clique_size]
        return self.max_wait_slots(u, v)

    def delta_m_inter_hop(self) -> int:
        """Worst wait (slots) for one specific inter-clique circuit.

        Analytically ``(q+1)(Nc-1)``.
        """
        if self.num_cliques == 1:
            return 0
        u = self._order[0][0]
        v = self._order[1][0]
        return self.max_wait_slots(u, v)

    def neighbor_superset(self, node: int) -> List[int]:
        """The fixed superset of neighbors *node* ever faces: its S-1
        clique-mates plus the Nc-1 position-aligned peers."""
        c = self.layout.clique_of(node)
        i = self.layout.position_of(node)
        intra = [m for m in self.layout.members(c) if m != node]
        inter = [
            self.layout.node_at(cc, i)
            for cc in range(self.num_cliques)
            if cc != c
        ]
        return sorted(intra + inter)

    def edge_fractions(self) -> Dict[Tuple[int, int], float]:
        """Closed form virtual-edge bandwidth fractions.

        Each intra circuit appears ``num_intra_slots / (S-1)`` times per
        period; each inter circuit ``num_inter_slots / (Nc-1)`` times.
        """
        out: Dict[Tuple[int, int], float] = {}
        size, nc = self.clique_size, self.num_cliques
        if size > 1:
            intra_frac = self.num_intra_slots / (size - 1) / self.period
            for c in range(nc):
                members = self.layout.members(c)
                for i, u in enumerate(members):
                    for j, v in enumerate(members):
                        if i != j:
                            out[(u, v)] = intra_frac
        if nc > 1:
            inter_frac = self.num_inter_slots / (nc - 1) / self.period
            for c in range(nc):
                for cc in range(nc):
                    if c == cc:
                        continue
                    for i in range(size):
                        u = self.layout.node_at(c, i)
                        v = self.layout.node_at(cc, i)
                        out[(u, v)] = inter_frac
        return out

    def __repr__(self) -> str:
        return (
            f"SornSchedule(N={self.num_nodes}, Nc={self.num_cliques}, "
            f"q={self.q_exact}, period={self.period})"
        )


def build_sorn_schedule(
    num_nodes: int,
    num_cliques: int,
    q: float = 1.0,
    num_planes: int = 1,
    layout: Optional[CliqueLayout] = None,
    max_denominator: int = 64,
) -> SornSchedule:
    """Convenience constructor from scalar parameters.

    Uses a contiguous equal layout unless an explicit *layout* is given
    (in which case ``num_nodes``/``num_cliques`` must agree with it).
    """
    if layout is None:
        layout = CliqueLayout.equal(num_nodes, num_cliques)
    else:
        if layout.num_nodes != num_nodes or layout.num_cliques != num_cliques:
            raise ConfigurationError(
                "explicit layout disagrees with num_nodes/num_cliques"
            )
    return SornSchedule(layout, q=q, num_planes=num_planes, max_denominator=max_denominator)


def figure2_topology_a() -> SornSchedule:
    """Topology A of Figure 2(d): 8 nodes, two cliques of four, q = 3.

    Intra-clique bandwidth is three times inter-clique bandwidth; the
    period is four slots (three intra rotations + one inter matching).
    """
    return build_sorn_schedule(num_nodes=8, num_cliques=2, q=3)


def figure2_topology_b() -> SornSchedule:
    """Topology B of Figure 2(e): 8 nodes, four cliques of two, q = 1."""
    return build_sorn_schedule(num_nodes=8, num_cliques=4, q=1)
