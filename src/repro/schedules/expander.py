"""Opera-style rotating expander schedule.

Opera (Mellette et al., NSDI 2020) gives each ToR ``k`` rotor uplinks; each
rotor slowly cycles through rotation matchings, and reconfigurations are
staggered so that at any instant exactly one rotor is down and the union of
the remaining ``k - 1`` live rotors forms an expander.  Latency-sensitive
("short") traffic routes over multiple hops of the *current* static
expander with zero schedule wait; bulk traffic waits for direct circuits,
RotorNet-style, as every rotor eventually visits every rotation.

We model each rotor plane ``p`` as dwelling on one rotation matching per
*epoch* (one Opera slot, 90 us in Table 1).  Each rotor cycles through its
own seeded pseudorandom permutation of all ``N - 1`` rotation shifts, so
(i) every node pair gets a direct circuit once per rotor per period — the
completeness RotorNet-style bulk routing needs — and (ii) at any epoch the
live shifts are pseudorandom, making the union a random circulant digraph
with good expansion.  This is the documented substitution for Opera's
precomputed random k-regular expanders: same degree, same staggered
reconfiguration, comparable expansion and diameter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from ..errors import ConfigurationError, ScheduleError
from ..util import check_positive_int
from .matching import Matching
from .schedule import CircuitSchedule

if TYPE_CHECKING:
    import networkx

__all__ = ["ExpanderSchedule"]


class ExpanderSchedule(CircuitSchedule):
    """Rotating circulant expander with staggered rotor reconfiguration.

    Parameters
    ----------
    num_nodes:
        Number of ToRs.
    num_rotors:
        Rotor uplinks per ToR (``k``).  At any epoch one rotor is
        reconfiguring and carries no traffic.
    seed:
        Seed for the per-rotor shift permutations (deterministic default).
    """

    def __init__(self, num_nodes: int, num_rotors: int = 4, seed: int = 0):
        num_nodes = check_positive_int(num_nodes, "num_nodes", minimum=3)
        self.num_rotors = check_positive_int(num_rotors, "num_rotors", minimum=2)
        if self.num_rotors >= num_nodes:
            raise ConfigurationError(
                f"num_rotors={num_rotors} must be < num_nodes={num_nodes}"
            )
        # Each rotor cycles through all N-1 rotations, one epoch each, in a
        # rotor-specific pseudorandom order (see module docstring).
        super().__init__(num_nodes, period=num_nodes - 1, num_planes=self.num_rotors)
        rng = np.random.default_rng(seed)
        self._shift_table = np.stack(
            [rng.permutation(self._period) + 1 for _ in range(self.num_rotors)]
        )
        self._stagger = max(1, (num_nodes - 1) // self.num_rotors)

    # -- per-rotor matchings ----------------------------------------------------

    def rotor_shift(self, epoch: int, rotor: int) -> int:
        """Rotation shift (1..N-1) rotor *rotor* dwells on during *epoch*."""
        if not 0 <= rotor < self.num_rotors:
            raise ScheduleError(f"rotor {rotor} out of range [0, {self.num_rotors})")
        return int(self._shift_table[rotor, (epoch + rotor * self._stagger) % self._period])

    def reconfiguring_rotor(self, epoch: int) -> int:
        """Which rotor is down (mid-reconfiguration) during *epoch*."""
        return epoch % self.num_rotors

    def matching(self, slot: int) -> Matching:
        """Base-plane (rotor 0) matching; idle while rotor 0 reconfigures."""
        return self.plane_matching(slot, 0)

    def plane_matching(self, slot: int, plane: int = 0) -> Matching:
        """Rotor *plane*'s matching at epoch *slot* (idle if reconfiguring)."""
        epoch = slot % self._period
        if self.reconfiguring_rotor(epoch) == plane:
            return Matching.idle(self._num_nodes)
        return Matching.rotation(self._num_nodes, self.rotor_shift(epoch, plane))

    def plane_offset(self, plane: int) -> int:
        """Rotor planes are staggered by the shift stagger, not period/U."""
        if not 0 <= plane < self._num_planes:
            raise ScheduleError(f"plane {plane} out of range [0, {self._num_planes})")
        return plane * self._stagger

    # -- the live expander -------------------------------------------------------

    def live_shifts(self, epoch: int) -> List[int]:
        """Rotation shifts of the k-1 live rotors during *epoch*."""
        down = self.reconfiguring_rotor(epoch)
        return [
            self.rotor_shift(epoch, r)
            for r in range(self.num_rotors)
            if r != down
        ]

    def epoch_graph(self, epoch: int) -> networkx.DiGraph:
        """The static (k-1)-regular circulant digraph live during *epoch*.

        Short flows are routed over shortest paths of this graph with zero
        schedule wait (the topology does not move under them within an
        epoch).
        """
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(range(self._num_nodes))
        shifts = set(self.live_shifts(epoch))
        for shift in shifts:
            for src in range(self._num_nodes):
                graph.add_edge(src, (src + shift) % self._num_nodes)
        if not nx.is_strongly_connected(graph):
            # Opera constrains its precomputed matchings so every instant's
            # union stays an expander; our circulant substitution enforces
            # the same invariant by adding the smallest extra shift that
            # restores strong connectivity (shift 1 always suffices).
            for shift in range(1, self._num_nodes):
                if shift in shifts:
                    continue
                for src in range(self._num_nodes):
                    graph.add_edge(src, (src + shift) % self._num_nodes)
                if nx.is_strongly_connected(graph):
                    break
        return graph

    def expander_diameter(self, epoch: int = 0) -> int:
        """Diameter of the live expander (the short-flow max hop count)."""
        import networkx as nx

        return nx.diameter(self.epoch_graph(epoch))

    def average_path_length(self, epoch: int = 0) -> float:
        """Mean shortest-path length of the live expander.

        This drives Opera's bandwidth tax: routing short flows over an
        expander multiplies their traffic volume by the mean hop count.
        """
        import networkx as nx

        return nx.average_shortest_path_length(self.epoch_graph(epoch))

    @property
    def bulk_intrinsic_latency_slots(self) -> int:
        """delta_m for bulk (direct/VLB) traffic: a rotor visits a specific
        rotation once per period of N-1 epochs."""
        return self._period

    def edge_fractions(self) -> Dict[Tuple[int, int], float]:
        """Average per-epoch connectivity over a full period.

        Every rotation shift is live ``(k-1)`` rotor-epochs out of each
        ``k (N-1)``-epoch super-period... equivalently each ordered pair is
        up a ``(k-1)/(N-1)`` fraction of rotor-slots, normalized per plane.
        """
        frac = (self.num_rotors - 1) / self.num_rotors / self._period
        n = self._num_nodes
        return {(u, v): frac for u in range(n) for v in range(n) if u != v}
