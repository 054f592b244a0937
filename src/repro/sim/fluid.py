"""Fluid (expected-load) throughput analysis.

Given an oblivious router's exact path distribution and a demand matrix,
the expected load on every virtual link is a linear function of demand.
Saturation throughput is then the largest scale factor theta such that
``theta * load <= capacity`` on every link — equivalently the inverse of
the worst link utilization at the offered demand.

This reproduces the paper's throughput bounds exactly: for the SORN
router on a clustered matrix with locality x and oversubscription q, the
intra-clique links bound theta at ``q/(2q+2)`` and the inter-clique links
at ``1/((1-x)(q+1))``; with ``q = 2/(1-x)`` both meet at ``1/(3-x)``
(Fig 2f's theoretical curve).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from ..errors import SimulationError, TrafficError
from ..routing.base import Router
from ..schedules.schedule import CircuitSchedule
from ..traffic.matrix import TrafficMatrix

__all__ = ["FluidResult", "link_loads", "saturation_throughput"]


@dataclasses.dataclass(frozen=True)
class FluidResult:
    """Outcome of a fluid throughput computation.

    Attributes
    ----------
    throughput:
        Saturation throughput theta: the fraction of the offered
        (saturated) demand the fabric can carry.
    bottleneck:
        The (u, v) virtual link attaining the worst utilization.
    bottleneck_utilization:
        Load/capacity on that link at the *offered* demand (>= 1 means the
        offered demand is infeasible as-is; theta = 1/utilization).
    mean_hops:
        Demand-weighted mean path length — the bandwidth tax actually paid.
    """

    throughput: float
    bottleneck: Tuple[int, int]
    bottleneck_utilization: float
    mean_hops: float

    @property
    def normalized_bandwidth_cost(self) -> float:
        """Bandwidth the scheme consumes per unit delivered (1/throughput
        for saturated uniform port loads)."""
        return 1.0 / self.throughput if self.throughput > 0 else float("inf")


def link_loads(router: Router, matrix: TrafficMatrix) -> np.ndarray:
    """Expected per-link load matrix under the router's path distribution.

    Entry ``[u, v]`` is the traffic rate crossing the virtual link u -> v
    when the full *matrix* is offered.  Exact (enumerates the path
    distribution, one source row at a time), not sampled.
    """
    n = matrix.num_nodes
    if router.num_nodes != n:
        raise TrafficError(
            f"router covers {router.num_nodes} nodes, matrix {n}"
        )
    loads = np.zeros(n * n)
    rates = matrix.rates
    for src, dsts, pair, prob, paths, lengths in router.options_by_source(rates != 0):
        hop = np.arange(paths.shape[1] - 1) < (lengths - 1)[:, None]
        links = (paths[:, :-1] * n + paths[:, 1:])[hop]
        # Unbuffered and in row order: each link sums its terms pair by
        # pair, as a walk over the pairs would.
        np.add.at(loads, links, np.repeat(rates[src, dsts[pair]] * prob, lengths - 1))
    return loads.reshape(n, n)


def _capacity_matrix(schedule: CircuitSchedule) -> np.ndarray:
    """Virtual link capacities in node-bandwidth units (slot fractions)."""
    n = schedule.num_nodes
    capacity = np.zeros((n, n))
    for (u, v), fraction in schedule.edge_fractions().items():
        capacity[u, v] = fraction
    return capacity


def saturation_throughput(
    schedule: CircuitSchedule,
    router: Router,
    matrix: TrafficMatrix,
    capacity: Optional[np.ndarray] = None,
) -> FluidResult:
    """Max feasible scaling of *matrix* over *schedule* with *router*.

    The matrix is saturated first (busiest port at one node bandwidth), so
    the returned throughput is directly comparable to the paper's r.
    """
    saturated = matrix.saturated()
    loads = link_loads(router, saturated)
    if capacity is None:
        capacity = _capacity_matrix(schedule)
    if capacity.shape != loads.shape:
        raise SimulationError("capacity matrix shape mismatch")

    used = loads > 0
    if not used.any():
        raise SimulationError("no traffic routed; cannot compute throughput")
    if (capacity[used] == 0).any():
        bad = np.argwhere(used & (capacity == 0))[0]
        raise SimulationError(
            f"router uses virtual link {tuple(bad)} that the schedule never "
            f"provides"
        )

    with np.errstate(divide="ignore", invalid="ignore"):
        utilization = np.where(used, loads / np.where(capacity > 0, capacity, 1.0), 0.0)
    flat = int(np.argmax(utilization))
    bottleneck = (flat // loads.shape[0], flat % loads.shape[0])
    worst = float(utilization.max())
    if worst <= 0:
        raise SimulationError("degenerate utilization")

    total_demand = saturated.total
    mean_hops = float(loads.sum() / total_demand) if total_demand > 0 else 0.0
    return FluidResult(
        throughput=min(1.0, 1.0 / worst),
        bottleneck=bottleneck,
        bottleneck_utilization=worst,
        mean_hops=mean_hops,
    )
