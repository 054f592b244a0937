"""Practicality metrics (paper section 6, "Practicality benefits").

The paper argues structure tames operational pain: flat oblivious designs
route any pair through any node, so one failure touches everything (a
maximal *blast radius*), and every node must share one synchronization
domain.  A modular SORN bounds both: failures only affect pairs whose
clique structure involves the failed element, and a node only synchronizes
with its clique plus its position-aligned peers.

These metrics are exact enumerations over a router's oblivious path
distribution, so they apply uniformly to every scheme in the library.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ConfigurationError
from ..routing.base import Router
from ..routing.sorn_routing import SornRouter

__all__ = [
    "node_blast_radius",
    "link_blast_radius",
    "sorn_sync_domain_size",
    "flat_sync_domain_size",
]


def node_blast_radius(router: Router, failed_node: int) -> float:
    """Fraction of other-pair traffic a single node failure can touch.

    Counts ordered (src, dst) pairs — neither endpoint being the failed
    node — whose path distribution places positive probability on a path
    through the failed node.  1.0 for flat VLB (any node relays anyone);
    bounded by clique membership for SORN.
    """
    n = router.num_nodes
    if not 0 <= failed_node < n:
        raise ConfigurationError(f"failed_node {failed_node} out of range")
    live = np.ones((n, n), dtype=bool)
    live[failed_node, :] = live[:, failed_node] = False
    affected = total = 0
    for _, dsts, pair, _, paths, _ in router.options_by_source(live):
        total += dsts.size
        # Endpoints are live, so the failed node can only be a relay.
        affected += np.unique(pair[(paths == failed_node).any(axis=1)]).size
    return affected / total if total else 0.0


def link_blast_radius(router: Router, link: Tuple[int, int]) -> float:
    """Fraction of ordered pairs whose distribution uses virtual link *link*.

    Pairs equal to the link's endpoints are included (a pair is affected by
    losing its own direct circuit).
    """
    u, v = link
    n = router.num_nodes
    if not (0 <= u < n and 0 <= v < n) or u == v:
        raise ConfigurationError(f"invalid link {link}")
    affected = 0
    for _, _, pair, _, paths, _ in router.options_by_source():
        uses = ((paths[:, :-1] == u) & (paths[:, 1:] == v)).any(axis=1)
        affected += np.unique(pair[uses]).size
    return affected / (n * (n - 1))


def sorn_sync_domain_size(router: SornRouter) -> int:
    """Largest set of nodes that must share a slot clock under SORN.

    A node participates in its clique's intra schedule (S nodes) and in
    the position-aligned inter schedule (Nc nodes, one per clique); the
    two domains are independent (section 6: "a node participates in
    independent schedules on each hierarchical level").
    """
    return max(router.layout.clique_size, router.layout.num_cliques)


def flat_sync_domain_size(num_nodes: int) -> int:
    """A flat oblivious schedule synchronizes every node with every other."""
    if num_nodes < 2:
        raise ConfigurationError("need at least 2 nodes")
    return num_nodes
