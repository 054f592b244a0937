"""Logical (virtual) topologies emulated by circuit schedules.

A circuit in a fraction ``l`` of the schedule's slots implements a virtual
edge of bandwidth ``b * l`` for per-node bandwidth ``b`` (paper section 4).
:class:`LogicalTopology` materializes that weighted digraph from any
:class:`~repro.schedules.schedule.CircuitSchedule` and provides the graph
queries the routing and analysis layers need.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from ..errors import ScheduleError
from ..schedules.schedule import CircuitSchedule

if TYPE_CHECKING:
    import networkx

__all__ = ["LogicalTopology"]


class LogicalTopology:
    """Weighted virtual digraph extracted from a schedule.

    Edge attribute ``fraction`` is the fraction of slots the circuit is up;
    multiplied by ``node_bandwidth`` it gives the virtual edge capacity.
    """

    def __init__(
        self,
        edge_fractions: Dict[Tuple[int, int], float],
        num_nodes: int,
        node_bandwidth: float = 1.0,
    ):
        if node_bandwidth <= 0:
            raise ScheduleError("node_bandwidth must be positive")
        import networkx as nx

        self.num_nodes = int(num_nodes)
        self.node_bandwidth = float(node_bandwidth)
        self._graph = nx.DiGraph()
        self._graph.add_nodes_from(range(self.num_nodes))
        for (u, v), frac in edge_fractions.items():
            if frac <= 0:
                continue
            self._graph.add_edge(
                int(u), int(v), fraction=float(frac),
                capacity=float(frac) * self.node_bandwidth,
            )

    @classmethod
    def from_schedule(
        cls, schedule: CircuitSchedule, node_bandwidth: float = 1.0
    ) -> "LogicalTopology":
        """Extract the virtual topology of *schedule*."""
        return cls(schedule.edge_fractions(), schedule.num_nodes, node_bandwidth)

    @property
    def graph(self) -> networkx.DiGraph:
        """The underlying networkx digraph (shared, do not mutate)."""
        return self._graph

    def fraction(self, u: int, v: int) -> float:
        """Slot fraction of the virtual edge u -> v (0 if absent)."""
        data = self._graph.get_edge_data(u, v)
        return data["fraction"] if data else 0.0

    def capacity(self, u: int, v: int) -> float:
        """Bandwidth of the virtual edge u -> v (0 if absent)."""
        data = self._graph.get_edge_data(u, v)
        return data["capacity"] if data else 0.0

    def out_neighbors(self, u: int) -> List[int]:
        """Virtual out-neighbors of *u* (nodes it ever faces)."""
        return sorted(self._graph.successors(u))

    def degree_out(self, u: int) -> int:
        """Virtual out-degree (fanout) of *u*."""
        return self._graph.out_degree(u)

    def egress_fraction(self, u: int) -> float:
        """Total slot fraction node *u* spends transmitting.

        1.0 for work-conserving schedules; < 1.0 when slots idle (e.g. an
        Opera rotor mid-reconfiguration).
        """
        return sum(d["fraction"] for _, _, d in self._graph.out_edges(u, data=True))

    def is_connected(self) -> bool:
        """Whether the virtual digraph is strongly connected."""
        import networkx as nx

        return nx.is_strongly_connected(self._graph)

    def diameter(self) -> int:
        """Hop diameter of the virtual digraph (ignoring bandwidth)."""
        if not self.is_connected():
            raise ScheduleError("virtual topology is not strongly connected")
        import networkx as nx

        return nx.diameter(self._graph)

    def shortest_path(self, u: int, v: int) -> List[int]:
        """A fewest-hops virtual path from *u* to *v*."""
        import networkx as nx

        return nx.shortest_path(self._graph, u, v)

    def uniform_clique_deviation(self) -> float:
        """Max deviation of edge fractions from the uniform clique 1/(N-1).

        Zero for ideal oblivious (round-robin) schedules; large for
        structured (SORN) schedules.  Useful as a "how oblivious is this
        topology" scalar in tests and ablations.
        """
        ideal = 1.0 / (self.num_nodes - 1)
        worst = 0.0
        for u in range(self.num_nodes):
            for v in range(self.num_nodes):
                if u != v:
                    worst = max(worst, abs(self.fraction(u, v) - ideal))
        return worst

    def bandwidth_matrix(self) -> np.ndarray:
        """Dense capacity matrix (N x N, zero diagonal)."""
        out = np.zeros((self.num_nodes, self.num_nodes))
        for u, v, d in self._graph.edges(data=True):
            out[u, v] = d["capacity"]
        return out

    def __repr__(self) -> str:
        return (
            f"LogicalTopology(num_nodes={self.num_nodes}, "
            f"edges={self._graph.number_of_edges()})"
        )
