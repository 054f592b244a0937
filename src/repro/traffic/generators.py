"""Synthetic traffic-matrix generators.

Each generator returns a saturated-form :class:`TrafficMatrix` (busiest
port at 1.0) so throughput experiments can scale load with a single factor.
The central generator for the paper is :func:`clustered_matrix`, which
realizes "a known degree of spatial locality": a fraction ``x`` of each
node's demand spread uniformly inside its clique and ``1 - x`` spread
uniformly across the rest of the network.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import TrafficError
from ..topology.cliques import CliqueLayout
from ..util import check_fraction, check_positive_int, ensure_rng, RngLike
from .matrix import TrafficMatrix

__all__ = [
    "uniform_matrix",
    "permutation_matrix",
    "clustered_matrix",
    "gravity_matrix",
    "hotspot_matrix",
    "skewed_matrix",
]


def uniform_matrix(num_nodes: int) -> TrafficMatrix:
    """Uniform all-to-all demand: every pair at 1/(N-1) node bandwidth."""
    num_nodes = check_positive_int(num_nodes, "num_nodes", minimum=2)
    rates = np.full((num_nodes, num_nodes), 1.0 / (num_nodes - 1))
    np.fill_diagonal(rates, 0.0)
    return TrafficMatrix._adopt(rates)


def permutation_matrix(num_nodes: int, rng: RngLike = None) -> TrafficMatrix:
    """Worst-case-for-uniform demand: each node sends everything to one peer.

    Drawn as a random derangement; this is the adversarial matrix that
    forces oblivious designs to pay the full VLB factor.
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes", minimum=2)
    gen = ensure_rng(rng)
    identity = np.arange(num_nodes)
    while True:
        perm = gen.permutation(num_nodes)
        if not (perm == identity).any():
            break
    rates = np.zeros((num_nodes, num_nodes))
    rates[identity, perm] = 1.0
    return TrafficMatrix._adopt(rates)


def clustered_matrix(layout: CliqueLayout, intra_fraction: float) -> TrafficMatrix:
    """Locality-structured demand with intra-clique fraction ``x``.

    Each node sends ``x`` of its bandwidth uniformly to clique-mates and
    ``1 - x`` uniformly to all nodes outside its clique.  The measured
    :meth:`~repro.traffic.matrix.TrafficMatrix.locality` equals ``x``
    exactly.  Degenerate layouts (singleton cliques, one clique) reassign
    the impossible share to the feasible class.
    """
    x = check_fraction(intra_fraction, "intra_fraction")
    n = layout.num_nodes
    ids = layout.assignment()
    members = np.bincount(ids)[ids]  # each node's clique size, self included
    intra_peers = (members - 1).astype(float)
    inter_peers = (n - members).astype(float)

    # Per-node shares, with the impossible class's share moved over.
    intra_share = np.full(n, x)
    inter_share = np.full(n, 1.0 - x)
    alone = intra_peers == 0
    inter_share[alone] += intra_share[alone]
    intra_share[alone] = 0.0
    closed = inter_peers == 0
    intra_share[closed] += inter_share[closed]
    inter_share[closed] = 0.0
    intra_rate = np.divide(
        intra_share, intra_peers, out=np.zeros(n), where=intra_share != 0
    )
    inter_rate = np.divide(
        inter_share, inter_peers, out=np.zeros(n), where=inter_share != 0
    )
    # Every row at its inter rate, then each clique's block at the intra
    # rate: no N x N temporary beside the matrix itself.
    rates = np.empty((n, n))
    rates[...] = inter_rate[:, None]
    for group in layout.groups():
        block = np.ix_(group, group)
        rates[block] = intra_rate[group][:, None]
    np.fill_diagonal(rates, 0.0)
    return TrafficMatrix._adopt(rates)


def gravity_matrix(weights: Sequence[float]) -> TrafficMatrix:
    """Gravity-model demand: rate(i, j) proportional to w_i * w_j.

    Production DCNs report stable gravity patterns between clusters of
    machines (paper section 3, citing Jupiter); this is the node-level
    version.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise TrafficError("need at least 2 node weights")
    if (w < 0).any() or w.sum() == 0:
        raise TrafficError("weights must be non-negative with positive sum")
    rates = np.outer(w, w).astype(float)
    np.fill_diagonal(rates, 0.0)
    return TrafficMatrix._adopt(rates).saturated()


def hotspot_matrix(
    num_nodes: int,
    num_hotspots: int = 1,
    hotspot_fraction: float = 0.5,
    rng: RngLike = None,
) -> TrafficMatrix:
    """Uniform background plus a few elephant pairs carrying
    *hotspot_fraction* of total demand — the bursty pattern the paper says
    reactive designs chase and fail to catch."""
    num_nodes = check_positive_int(num_nodes, "num_nodes", minimum=2)
    num_hotspots = check_positive_int(num_hotspots, "num_hotspots")
    max_pairs = num_nodes * (num_nodes - 1)
    if num_hotspots > max_pairs:
        # Without this check the rejection-sampling loop below can never
        # collect enough distinct pairs and spins forever.
        raise TrafficError(
            f"num_hotspots={num_hotspots} exceeds the {max_pairs} ordered "
            f"node pairs of a {num_nodes}-node fabric"
        )
    frac = check_fraction(hotspot_fraction, "hotspot_fraction")
    gen = ensure_rng(rng)
    base = uniform_matrix(num_nodes).rates * (1.0 - frac)
    rates = base.copy()
    total_hot = frac * num_nodes  # matches the uniform part's total scale
    per_hotspot = total_hot / num_hotspots
    chosen = set()
    while len(chosen) < num_hotspots:
        s, d = int(gen.integers(num_nodes)), int(gen.integers(num_nodes))
        if s != d:
            chosen.add((s, d))
    for s, d in chosen:
        rates[s, d] += per_hotspot
    return TrafficMatrix._adopt(rates).saturated()


def skewed_matrix(
    num_nodes: int, sigma: float = 1.0, rng: RngLike = None
) -> TrafficMatrix:
    """Log-normally skewed pair demands: heavy-tailed, unstructured.

    Models the unpredictable micro-scale variation the paper contrasts with
    stable macro patterns.
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes", minimum=2)
    if sigma < 0:
        raise TrafficError("sigma must be non-negative")
    gen = ensure_rng(rng)
    rates = gen.lognormal(mean=0.0, sigma=sigma, size=(num_nodes, num_nodes))
    np.fill_diagonal(rates, 0.0)
    return TrafficMatrix._adopt(rates).saturated()
