"""Traffic matrices with the normalizations the throughput analysis needs.

A :class:`TrafficMatrix` is an N x N non-negative demand-rate matrix with a
zero diagonal.  The throughput definition in the paper (and in the ORN
literature) is *saturation throughput*: scale a demand matrix until some
node's egress or ingress reaches node bandwidth, then ask what fraction of
the offered load the network can actually deliver.  :meth:`saturated`
performs that scaling; :meth:`is_admissible` checks the doubly
sub-stochastic condition.
"""

from __future__ import annotations


import numpy as np

from ..errors import TrafficError
from ..topology.cliques import CliqueLayout

__all__ = ["TrafficMatrix"]


class TrafficMatrix:
    """Immutable non-negative demand matrix with a zero diagonal.

    Rates are in units of node bandwidth (1.0 = one node's full egress).
    """

    def __init__(self, rates: np.ndarray):
        # The caller keeps its array: validate and freeze a private copy.
        self._rates = self._frozen(np.array(rates, dtype=float, order="C"))

    @classmethod
    def _adopt(cls, rates: np.ndarray) -> "TrafficMatrix":
        """Wrap a float64 array the package just built, without copying.

        For the package's own generators only: the matrix takes
        ownership of *rates* and makes it read-only, so the caller must
        hold no other reference it still writes through.  At Table 1
        scale this spares a 128 MiB copy.
        """
        matrix = cls.__new__(cls)
        matrix._rates = cls._frozen(np.ascontiguousarray(rates, dtype=float))
        return matrix

    @staticmethod
    def _frozen(matrix: np.ndarray) -> np.ndarray:
        """Validate *matrix* with whole-array reductions (no temporaries
        of its size) and make it read-only."""
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise TrafficError(f"traffic matrix must be square, got {matrix.shape}")
        if matrix.shape[0] < 2:
            raise TrafficError("traffic matrix needs at least 2 nodes")
        # min/max propagate NaN, and an infinity is itself an extreme.
        lowest = matrix.min()
        if not (np.isfinite(lowest) and np.isfinite(matrix.max())):
            raise TrafficError("traffic matrix entries must be finite")
        if lowest < 0:
            raise TrafficError("traffic matrix entries must be non-negative")
        if np.diagonal(matrix).any():
            raise TrafficError("traffic matrix diagonal (self-traffic) must be zero")
        matrix.setflags(write=False)
        return matrix

    # -- accessors -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return int(self._rates.shape[0])

    @property
    def rates(self) -> np.ndarray:
        """The underlying (read-only, C-ordered) rate matrix."""
        return self._rates

    @property
    def total(self) -> float:
        """Aggregate demand across all pairs."""
        return float(self._rates.sum())

    def rate(self, src: int, dst: int) -> float:
        """Demand rate from *src* to *dst* (node-bandwidth units)."""
        return float(self._rates[src, dst])

    def egress(self) -> np.ndarray:
        """Per-node total egress demand (row sums)."""
        return self._rates.sum(axis=1)

    def ingress(self) -> np.ndarray:
        """Per-node total ingress demand (column sums)."""
        return self._rates.sum(axis=0)

    def max_port_load(self) -> float:
        """Largest per-node egress or ingress demand."""
        return float(max(self.egress().max(), self.ingress().max()))

    def is_admissible(self, tol: float = 1e-9) -> bool:
        """Doubly sub-stochastic: every port load <= 1 node bandwidth."""
        return self.max_port_load() <= 1.0 + tol

    # -- transformations --------------------------------------------------------

    def scaled(self, factor: float) -> "TrafficMatrix":
        """Every rate multiplied by *factor* (>= 0)."""
        if factor < 0:
            raise TrafficError("scale factor must be non-negative")
        return TrafficMatrix._adopt(self._rates * factor)

    def saturated(self) -> "TrafficMatrix":
        """Scaled so the busiest port exactly reaches node bandwidth.

        This is the normalization under which throughput numbers like the
        paper's r = 1/(3-x) are measured: inject as much as ports allow,
        then see what fraction the fabric delivers.
        """
        peak = self.max_port_load()
        if peak == 0:
            raise TrafficError("cannot saturate an all-zero matrix")
        return self.scaled(1.0 / peak)

    def normalized(self) -> "TrafficMatrix":
        """Scaled to unit total demand (a probability distribution)."""
        if self.total == 0:
            raise TrafficError("cannot normalize an all-zero matrix")
        return self.scaled(1.0 / self.total)

    def mixed_with(self, other: "TrafficMatrix", weight: float) -> "TrafficMatrix":
        """Convex combination: ``(1-weight) * self + weight * other``."""
        if other.num_nodes != self.num_nodes:
            raise TrafficError("cannot mix matrices of different sizes")
        if not 0.0 <= weight <= 1.0:
            raise TrafficError("mix weight must be in [0, 1]")
        return TrafficMatrix._adopt((1.0 - weight) * self._rates + weight * other._rates)

    # -- structure metrics ---------------------------------------------------------

    def locality(self, layout: CliqueLayout) -> float:
        """Intra-clique fraction x of this demand under *layout*."""
        return layout.intra_fraction(self._rates)

    def aggregate(self, layout: CliqueLayout) -> np.ndarray:
        """Clique-level aggregated matrix (paper section 3)."""
        return layout.aggregate_matrix(self._rates)

    def pair_distribution(self) -> np.ndarray:
        """Flattened (src, dst) sampling distribution over pairs."""
        if self.total == 0:
            raise TrafficError("cannot sample from an all-zero matrix")
        return (self._rates / self.total).ravel()

    def skew(self) -> float:
        """Max pair rate over mean non-zero-diagonal pair rate.

        1.0 for perfectly uniform traffic; large for hotspots.
        """
        n = self.num_nodes
        mean = self.total / (n * (n - 1))
        if mean == 0:
            return 0.0
        return float(self._rates.max() / mean)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrafficMatrix):
            return NotImplemented
        return self._rates.shape == other._rates.shape and bool(
            np.allclose(self._rates, other._rates)
        )

    def __repr__(self) -> str:
        return (
            f"TrafficMatrix(num_nodes={self.num_nodes}, total={self.total:.4g}, "
            f"max_port_load={self.max_port_load():.4g})"
        )
