"""Opera-style split routing: expander paths for short flows, VLB for bulk.

Opera (Mellette et al., NSDI 2020) routes latency-sensitive short flows
over multiple hops of the currently live expander (zero schedule wait) and
delays bulk flows until direct — or 2-hop VLB — circuits appear as the
rotors cycle.  The paper's Table 1 models this split with a 75 % short-flow
traffic share.

:class:`OperaRouter` mixes the two sub-schemes at a configurable traffic
share; per-class routers are exposed for experiments that treat the classes
separately.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import RoutingError
from ..schedules.expander import ExpanderSchedule
from ..util import check_fraction
from .base import Path, Router
from .vlb import VlbRouter

__all__ = ["OperaRouter", "ExpanderShortestPathRouter"]


class ExpanderShortestPathRouter(Router):
    """All-shortest-paths routing over one epoch's live expander."""

    def __init__(self, schedule: ExpanderSchedule, epoch: int = 0):
        import networkx as nx

        self.schedule = schedule
        self.epoch = int(epoch)
        self._graph = schedule.epoch_graph(self.epoch)
        self._diameter = nx.diameter(self._graph)
        self._cache: Dict[Tuple[int, int], List[Tuple[float, Path]]] = {}

    @property
    def num_nodes(self) -> int:
        return self.schedule.num_nodes

    @property
    def max_hops(self) -> int:
        return self._diameter

    def path_options(self, src: int, dst: int) -> List[Tuple[float, Path]]:
        self._check_pair(src, dst)
        cached = self._cache.get((src, dst))
        if cached is None:
            import networkx as nx

            paths = [Path(tuple(p)) for p in nx.all_shortest_paths(self._graph, src, dst)]
            if not paths:
                raise RoutingError(f"no expander path {src} -> {dst}")
            prob = 1.0 / len(paths)
            cached = [(prob, p) for p in paths]
            self._cache[(src, dst)] = cached
        return cached


class OperaRouter(Router):
    """Probabilistic mix of short-flow expander routing and bulk VLB.

    Parameters
    ----------
    schedule:
        The rotating expander schedule.
    short_fraction:
        Fraction of traffic volume routed as latency-sensitive short flows
        (Table 1 uses 0.75 from the production-trace median).
    epoch:
        Which epoch's expander the short-flow sub-router uses.
    """

    def __init__(
        self,
        schedule: ExpanderSchedule,
        short_fraction: float = 0.75,
        epoch: int = 0,
    ):
        self.schedule = schedule
        self.short_fraction = check_fraction(short_fraction, "short_fraction")
        self.short_router = ExpanderShortestPathRouter(schedule, epoch)
        self.bulk_router = VlbRouter(schedule.num_nodes)

    @property
    def num_nodes(self) -> int:
        return self.schedule.num_nodes

    @property
    def max_hops(self) -> int:
        return max(self.short_router.max_hops, self.bulk_router.max_hops)

    def path_options(self, src: int, dst: int) -> List[Tuple[float, Path]]:
        self._check_pair(src, dst)
        merged: Dict[Tuple[int, ...], float] = {}
        for weight, router in (
            (self.short_fraction, self.short_router),
            (1.0 - self.short_fraction, self.bulk_router),
        ):
            if weight == 0.0:
                continue
            for prob, path in router.path_options(src, dst):
                merged[path.nodes] = merged.get(path.nodes, 0.0) + weight * prob
        return [(p, Path(nodes)) for nodes, p in merged.items()]

    def mean_hops_split(self) -> float:
        """Mean hops weighing short flows at the expander's mean path length
        and bulk flows at VLB's ~2 — Opera's bandwidth tax."""
        short = self.schedule.average_path_length(self.short_router.epoch)
        n = self.num_nodes
        bulk = 2.0 - 1.0 / (n - 1)
        return self.short_fraction * short + (1.0 - self.short_fraction) * bulk
