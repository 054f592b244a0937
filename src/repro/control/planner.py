"""The control plane's decision step and drain-aware update planning.

:func:`plan_retune` is the one estimate -> q* -> gain step that both the
matrix-level :class:`~repro.core.adaptation.AdaptationLoop` and the
simulated :class:`~repro.control.runtime.AdaptiveSimulation` take.

The paper argues (section 5) that SORN updates are cheap because the
design maintains a *fixed superset of neighbors* per node and only varies
bandwidth per neighbor: rebalancing q needs no new NIC queue state and no
queue drains.  Changing the clique *layout*, by contrast, retires some
neighbors (their queued cells strand until the new schedule serves them)
and may introduce new ones.  :func:`plan_update` quantifies exactly that
by diffing per-node schedule rows into an :class:`UpdatePlan`, the
repository's one per-node update model: the runtime's neighbor-superset
gate checks it, the matrix-level loop reports it, and A5 reads its retired
pairs as an update's disruption.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.throughput import optimal_q, sorn_throughput_bounds
from ..errors import ControlPlaneError
from ..schedules.schedule import CircuitSchedule
from ..topology.cliques import CliqueLayout
from ..traffic.matrix import TrafficMatrix

__all__ = ["LOCALITY_CAP", "MAX_Q", "RetunePlan", "UpdatePlan", "plan_retune", "plan_update"]

#: Ceiling on the locality estimate: q* = 2/(1-x) has a pole at x = 1.
LOCALITY_CAP = 0.95
#: Ceiling on q*: extreme estimates would leave almost no inter-clique slots.
MAX_Q = 8.0


@dataclasses.dataclass(frozen=True)
class RetunePlan:
    """One decision of :func:`plan_retune`: the capped locality x-hat
    under the candidate layout, the capped ``q* = 2/(1 - x-hat)``, and
    the worst-case throughputs the incumbent (0 when it is no SORN
    schedule) and the candidate reach on the estimate."""

    locality: float
    q: float
    current_throughput: float
    predicted_throughput: float

    @property
    def gain(self) -> float:
        """Relative predicted throughput gain (infinite over nothing)."""
        if self.current_throughput == 0:
            return float("inf")
        return self.predicted_throughput / self.current_throughput - 1.0


def plan_retune(
    estimate: TrafficMatrix,
    layout: CliqueLayout,
    q: Optional[float],
    candidate_layout: Optional[CliqueLayout] = None,
) -> RetunePlan:
    """Decide q* for a demand *estimate* against the incumbent SORN on
    *layout* at *q*; *q* is None when the incumbent is no SORN schedule
    (the runtime's oblivious fallback).  The candidate keeps *layout*
    unless *candidate_layout* re-clusters.  Builds no schedule."""
    current_x = min(estimate.locality(layout), LOCALITY_CAP)
    x = current_x
    if candidate_layout is not None and candidate_layout != layout:
        x = min(estimate.locality(candidate_layout), LOCALITY_CAP)
    q_star = min(optimal_q(x), MAX_Q)
    current = 0.0 if q is None else sorn_throughput_bounds(q, current_x)
    return RetunePlan(x, q_star, current, sorn_throughput_bounds(q_star, x))


@dataclasses.dataclass(frozen=True)
class UpdatePlan:
    """Summary of the disruption an old -> new schedule transition causes.

    Attributes
    ----------
    num_nodes:
        Fabric size.
    nodes_with_new_neighbors:
        Nodes whose new schedule faces a neighbor absent from the old one
        (requires allocating NIC queue state — the expensive case).
    nodes_with_retired_neighbors:
        Nodes that lose all slots toward some old neighbor (queued cells
        toward it strand until some future schedule restores service).
    new_neighbor_pairs / retired_neighbor_pairs:
        The specific (node, neighbor) additions and retirements.
    bandwidth_shift:
        Mean over nodes of the total-variation distance between old and
        new per-neighbor bandwidth shares — 0 for a no-op, 1 for a
        complete reallocation.  Measures how aggressive a rebalance is
        even when it is drain-free.
    """

    num_nodes: int
    nodes_with_new_neighbors: Tuple[int, ...]
    nodes_with_retired_neighbors: Tuple[int, ...]
    new_neighbor_pairs: Tuple[Tuple[int, int], ...]
    retired_neighbor_pairs: Tuple[Tuple[int, int], ...]
    bandwidth_shift: float

    @property
    def preserves_neighbor_superset(self) -> bool:
        """True iff no node needs new queue state (SORN's cheap case)."""
        return not self.new_neighbor_pairs

    @property
    def is_drain_free(self) -> bool:
        """True iff no node retires a neighbor (no stranded queues)."""
        return not self.retired_neighbor_pairs

    def summary(self) -> str:
        """One-line digest for logs and reports."""
        return (
            f"update: {len(self.new_neighbor_pairs)} new neighbor pairs, "
            f"{len(self.retired_neighbor_pairs)} retired, "
            f"bandwidth shift {self.bandwidth_shift:.3f}, "
            f"{'drain-free' if self.is_drain_free else 'needs drains'}"
        )


def _shares(row: np.ndarray) -> Dict[int, float]:
    neighbors, counts = np.unique(row[row >= 0], return_counts=True)
    period = row.size
    return {int(v): c / period for v, c in zip(neighbors, counts)}


def plan_update(old: CircuitSchedule, new: CircuitSchedule) -> UpdatePlan:
    """Diff two schedules node by node into an :class:`UpdatePlan`."""
    if old.num_nodes != new.num_nodes:
        raise ControlPlaneError(
            f"schedules cover different node counts: {old.num_nodes} vs "
            f"{new.num_nodes}"
        )
    n = old.num_nodes
    new_pairs: List[Tuple[int, int]] = []
    retired_pairs: List[Tuple[int, int]] = []
    nodes_new: List[int] = []
    nodes_retired: List[int] = []
    shift_total = 0.0
    for node in range(n):
        old_shares = _shares(old.cached_node_row(node))
        new_shares = _shares(new.cached_node_row(node))
        added = sorted(set(new_shares) - set(old_shares))
        removed = sorted(set(old_shares) - set(new_shares))
        if added:
            nodes_new.append(node)
            new_pairs.extend((node, v) for v in added)
        if removed:
            nodes_retired.append(node)
            retired_pairs.extend((node, v) for v in removed)
        keys = set(old_shares) | set(new_shares)
        shift_total += 0.5 * sum(
            abs(new_shares.get(k, 0.0) - old_shares.get(k, 0.0)) for k in keys
        )
    return UpdatePlan(
        num_nodes=n,
        nodes_with_new_neighbors=tuple(nodes_new),
        nodes_with_retired_neighbors=tuple(nodes_retired),
        new_neighbor_pairs=tuple(new_pairs),
        retired_neighbor_pairs=tuple(retired_pairs),
        bandwidth_shift=shift_total / n,
    )
