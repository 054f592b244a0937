"""Generic graph metrics used across analyses and tests.

Thin, well-named wrappers over networkx/numpy so experiment code reads like
the paper's vocabulary (diameter, bisection bandwidth, expansion).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..errors import ConfigurationError

if TYPE_CHECKING:
    import networkx

__all__ = [
    "directed_diameter",
    "average_shortest_path",
    "bisection_fraction",
    "spectral_gap",
]


def directed_diameter(graph: networkx.DiGraph) -> int:
    """Hop diameter of a strongly connected digraph."""
    import networkx as nx

    if not nx.is_strongly_connected(graph):
        raise ConfigurationError("graph must be strongly connected")
    return nx.diameter(graph)


def average_shortest_path(graph: networkx.DiGraph) -> float:
    """Mean shortest-path hop count over all ordered pairs."""
    import networkx as nx

    if not nx.is_strongly_connected(graph):
        raise ConfigurationError("graph must be strongly connected")
    return nx.average_shortest_path_length(graph)


def bisection_fraction(capacity: np.ndarray, split: Optional[np.ndarray] = None) -> float:
    """Capacity crossing a bisection, as a fraction of total capacity.

    Parameters
    ----------
    capacity:
        Dense N x N capacity matrix.
    split:
        Boolean membership array for one half; defaults to the first N/2
        nodes.  Counts capacity in both directions across the cut.
    """
    matrix = np.asarray(capacity, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ConfigurationError("capacity must be square")
    if split is None:
        split = np.arange(n) < n // 2
    split = np.asarray(split, dtype=bool)
    if split.shape != (n,):
        raise ConfigurationError("split must have one entry per node")
    total = matrix.sum()
    if total == 0:
        return 0.0
    crossing = matrix[np.ix_(split, ~split)].sum() + matrix[np.ix_(~split, split)].sum()
    return float(crossing / total)


def spectral_gap(graph: networkx.DiGraph) -> float:
    """1 - |lambda_2| of the random-walk matrix of the underlying graph.

    Larger gaps mean better expansion; used to sanity-check the Opera-style
    expander substitution.
    """
    import networkx as nx

    undirected = graph.to_undirected()
    n = undirected.number_of_nodes()
    if n < 3:
        raise ConfigurationError("spectral gap needs at least 3 nodes")
    adjacency = nx.to_numpy_array(undirected)
    degrees = adjacency.sum(axis=1)
    if (degrees == 0).any():
        raise ConfigurationError("graph has isolated nodes")
    walk = adjacency / degrees[:, None]
    eigenvalues = np.sort(np.abs(np.linalg.eigvals(walk)))[::-1]
    return float(1.0 - eigenvalues[1])
