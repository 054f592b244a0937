"""The SORN design point: node count, clique count, oversubscription, locality.

A :class:`SornDesign` is the immutable parameter tuple the control plane
optimizes and the data plane realizes.  Validity rules follow the paper's
section 4 analysis: equal-size cliques (Nc divides N), oversubscription
q >= 1, and a locality assumption x in [0, 1) (x = 1 would starve
inter-clique links entirely).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..analysis.throughput import optimal_q, sorn_throughput, sorn_throughput_bounds
from ..errors import ConfigurationError
from ..util import check_fraction, check_positive_int, check_ratio, even_divisors

__all__ = ["SornDesign"]


@dataclasses.dataclass(frozen=True)
class SornDesign:
    """An immutable semi-oblivious network design point.

    Attributes
    ----------
    num_nodes:
        Fabric size N (end hosts or ToRs).
    num_cliques:
        Number of equal cliques Nc (must divide N).
    q:
        Intra : inter oversubscription ratio (>= 1).
    locality:
        Assumed intra-clique demand fraction x the design targets.
    """

    num_nodes: int
    num_cliques: int
    q: float
    locality: float

    def __post_init__(self) -> None:
        check_positive_int(self.num_nodes, "num_nodes", minimum=2)
        check_positive_int(self.num_cliques, "num_cliques")
        if self.num_nodes % self.num_cliques != 0:
            raise ConfigurationError(
                f"num_cliques={self.num_cliques} must divide "
                f"num_nodes={self.num_nodes}"
            )
        check_ratio(self.q, "q", minimum=1.0)
        check_fraction(self.locality, "locality")

    # -- constructors --------------------------------------------------------

    @classmethod
    def optimal(
        cls, num_nodes: int, num_cliques: int, locality: float
    ) -> "SornDesign":
        """The throughput-optimal design at a given locality: q = 2/(1-x)."""
        return cls(
            num_nodes=num_nodes,
            num_cliques=num_cliques,
            q=optimal_q(locality),
            locality=locality,
        )

    @classmethod
    def flat(cls, num_nodes: int) -> "SornDesign":
        """The degenerate single-clique design: a flat 1D ORN."""
        return cls(num_nodes=num_nodes, num_cliques=1, q=1.0, locality=1.0)

    # -- derived quantities -------------------------------------------------------

    @property
    def clique_size(self) -> int:
        """Nodes per clique S = N / Nc."""
        return self.num_nodes // self.num_cliques

    @property
    def is_q_optimal(self) -> bool:
        """Whether q equals the locality-optimal 2/(1-x) (within 1e-9)."""
        if self.locality >= 1.0:
            return False
        return abs(self.q - optimal_q(self.locality)) < 1e-9

    @property
    def throughput(self) -> float:
        """Worst-case throughput at this design's q and assumed x."""
        return sorn_throughput_bounds(self.q, self.locality)

    @property
    def optimal_throughput(self) -> float:
        """Throughput the design would achieve at the optimal q: 1/(3-x)."""
        return sorn_throughput(self.locality)

    @property
    def intra_bandwidth_fraction(self) -> float:
        """Share of node bandwidth on intra-clique links: q/(q+1)."""
        return self.q / (self.q + 1.0)

    @property
    def inter_bandwidth_fraction(self) -> float:
        """Share of node bandwidth on inter-clique links: 1/(q+1)."""
        return 1.0 / (self.q + 1.0)

    def with_cliques(self, num_cliques: int) -> "SornDesign":
        """Same parameters at a different clique count."""
        return dataclasses.replace(self, num_cliques=num_cliques)

    @staticmethod
    def feasible_clique_counts(num_nodes: int) -> List[int]:
        """Every clique count dividing N (the hardware-expressible family
        of section 5, before grating-band restrictions)."""
        return even_divisors(num_nodes)

    @classmethod
    def best_clique_count(
        cls,
        num_nodes: int,
        locality: float,
        timing=None,
        candidates: Optional[List[int]] = None,
    ) -> int:
        """The Nc minimizing locality-weighted worst-case latency.

        Throughput at the optimal q is Nc-independent (1/(3-x)), so the
        clique count is a pure latency knob: more cliques shorten the
        intra wait, fewer shorten the inter wait, and the weighting by x
        picks the balance — the deliberation behind Table 1 showing both
        Nc=64 and Nc=32.  Candidates default to the divisors of N with
        at least 2 cliques of at least 2 nodes.
        """
        from ..analysis.latency import sorn_delta_m_inter, sorn_delta_m_intra
        from ..analysis.throughput import optimal_q
        from ..hardware.timing import TABLE1_TIMING

        timing = timing or TABLE1_TIMING
        x = check_fraction(locality, "locality")
        # Design-time only: 0.99 keeps q* = 2/(1-x) off its pole at x = 1.
        # It is no control decision, so not the planner's LOCALITY_CAP,
        # which would change the answer for every x above 0.95.
        q = optimal_q(min(x, 0.99))
        if candidates is None:
            candidates = [
                nc
                for nc in even_divisors(num_nodes)
                if 2 <= nc <= num_nodes // 2
            ]
        if not candidates:
            raise ConfigurationError("no feasible clique counts to choose from")

        def mean_latency(nc: int) -> float:
            intra = timing.min_latency_us(sorn_delta_m_intra(num_nodes, nc, q), 2)
            inter = timing.min_latency_us(sorn_delta_m_inter(num_nodes, nc, q), 3)
            return x * intra + (1.0 - x) * inter

        return min(candidates, key=mean_latency)

    def describe(self) -> str:
        """Human-readable one-liner."""
        return (
            f"SORN N={self.num_nodes} Nc={self.num_cliques} "
            f"S={self.clique_size} q={self.q:.3f} x={self.locality:.2f} "
            f"r={self.throughput:.2%}"
        )
