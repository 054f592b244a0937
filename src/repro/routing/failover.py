"""Failure-aware routing fallback (paper section 6, graceful degradation).

Oblivious routing does not react to failures on slot timescales: a cell
whose sampled load-balancing hop lands on a dead node stalls until the
node heals.  On *minutes* timescales, however, SORN's control loop learns
the failed-node set and can re-weight the oblivious distribution — the
same mechanism that re-balances q can steer load-balancing hops away from
known-dead intermediates without touching the schedule.

:class:`FailureAwareRouter` models exactly that control-loop outcome: it
wraps any oblivious router (VLB, SORN, ...) and resamples paths until no
*intermediate* hop transits a known-dead node.  Endpoints are left alone —
a flow to or from a dead node is a casualty no routing can save, and its
cells keep the base distribution.  Because rejection sampling from the
base distribution conditioned on live intermediates equals the
renormalized filtered distribution, :meth:`path_options` and :meth:`path`
stay consistent, and the fluid solver sees the same scheme the sampler
draws from.

The wrapper inherits :meth:`Router.paths_batch`'s sequential fallback, so
batched sampling consumes the RNG stream exactly as per-cell ``path()``
calls would — the property the vectorized engine's exactness contract
requires.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Tuple

from ..errors import RoutingError
from ..util import ensure_rng, RngLike
from .base import Path, Router

__all__ = ["FailureAwareRouter"]


class FailureAwareRouter(Router):
    """Wraps a base router, resampling paths away from known-dead nodes.

    Parameters
    ----------
    base:
        The healthy oblivious routing scheme.
    failed_nodes:
        Nodes the control loop has marked dead (e.g.
        :meth:`repro.sim.failures.FailureTimeline.failed_nodes_ever`).
        May be empty, in which case the wrapper is a transparent no-op.
    max_resamples:
        Safety bound on rejection sampling; exceeding it (or a pair with
        no live path at all) raises :class:`~repro.errors.RoutingError`.
    """

    def __init__(
        self,
        base: Router,
        failed_nodes: Iterable[int],
        max_resamples: int = 128,
    ):
        failed = frozenset(int(v) for v in failed_nodes)
        bad = [v for v in failed if not 0 <= v < base.num_nodes]
        if bad:
            raise RoutingError(f"failed nodes out of range: {bad}")
        if max_resamples < 1:
            raise RoutingError("max_resamples must be at least 1")
        self.base = base
        self.failed: FrozenSet[int] = failed
        self.max_resamples = int(max_resamples)

    @property
    def num_nodes(self) -> int:
        return self.base.num_nodes

    @property
    def max_hops(self) -> int:
        return self.base.max_hops

    def _avoids_dead(self, path: Path) -> bool:
        """Whether every intermediate hop of *path* is alive."""
        return not any(node in self.failed for node in path.nodes[1:-1])

    def path_options(self, src: int, dst: int) -> List[Tuple[float, Path]]:
        """The base distribution conditioned on live intermediates.

        Pairs whose endpoints are dead keep the base distribution
        unchanged (casualties are not rerouted); live pairs filter out
        dead-intermediate paths and renormalize — the exact distribution
        :meth:`path`'s rejection sampling draws from.
        """
        options = self.base.path_options(src, dst)
        if not self.failed or src in self.failed or dst in self.failed:
            return options
        live = [(p, path) for p, path in options if self._avoids_dead(path)]
        if not live:
            raise RoutingError(
                f"no live path for ({src}, {dst}) avoiding {sorted(self.failed)}"
            )
        mass = sum(p for p, _ in live)
        return [(p / mass, path) for p, path in live]

    def path(self, src: int, dst: int, rng: RngLike = None) -> Path:
        """Rejection-sample the base scheme until intermediates are live."""
        self._check_pair(src, dst)
        gen = ensure_rng(rng)
        if not self.failed or src in self.failed or dst in self.failed:
            return self.base.path(src, dst, gen)
        for _ in range(self.max_resamples):
            path = self.base.path(src, dst, gen)
            if self._avoids_dead(path):
                return path
        raise RoutingError(
            f"no live path for ({src}, {dst}) after {self.max_resamples} "
            f"resamples avoiding {sorted(self.failed)}"
        )
