"""2h-hop VLB routing for h-dimensional optimal ORNs.

Per dimension, a packet takes one load-balancing hop to a uniformly random
digit value followed by one direct hop to the destination's digit
(degenerate non-moves are skipped).  This is the routing that realizes the
Pareto-optimal tradeoff the paper cites: worst-case throughput ``1/(2h)``
with worst-case latency ``O(h * N**(1/h))``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..errors import RoutingError
from ..schedules.multidim import MultiDimSchedule
from ..util import ensure_rng
from .base import DrawRouter, Path, pad_walks

__all__ = ["MultiDimRouter"]


class MultiDimRouter(DrawRouter):
    """Dimension-by-dimension VLB over a :class:`MultiDimSchedule`.

    The exact path distribution enumerates ``radix**h`` intermediate-digit
    combinations; fine at simulation scale (h = 2, radix <= 32).  For
    larger instances use sampling (:meth:`path`) rather than enumeration.
    """

    def __init__(self, schedule: MultiDimSchedule):
        self.schedule = schedule

    @property
    def num_nodes(self) -> int:
        return self.schedule.num_nodes

    @property
    def max_hops(self) -> int:
        return 2 * self.schedule.h

    def _walk(self, src: int, dst: int, lb_digits: Sequence[int]) -> Tuple[int, ...]:
        """Nodes visited for one fixed choice of per-dimension LB digits."""
        sched = self.schedule
        nodes = [src]
        current = src
        dst_digits = sched.digits(dst)
        for dim in range(sched.h):
            stride = sched.radix ** dim
            lb_target = lb_digits[dim]
            cur_digit = (current // stride) % sched.radix
            if lb_target != cur_digit:
                current = sched.advance_digit(
                    current, dim, (lb_target - cur_digit) % sched.radix
                )
                nodes.append(current)
            cur_digit = (current // stride) % sched.radix
            if dst_digits[dim] != cur_digit:
                current = sched.advance_digit(
                    current, dim, (dst_digits[dim] - cur_digit) % sched.radix
                )
                nodes.append(current)
        if current != dst:
            raise RoutingError("multidim walk failed to reach destination")
        return tuple(nodes)

    def draw_bounds(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """One LB digit per dimension."""
        return np.full((srcs.size, self.schedule.h), self.schedule.radix, dtype=np.int64)

    def walks(self, srcs: np.ndarray, dsts: np.ndarray, draws: np.ndarray) -> np.ndarray:
        return pad_walks(
            [
                self._walk(src, dst, lb_digits)
                for src, dst, lb_digits in zip(srcs.tolist(), dsts.tolist(), draws.tolist())
            ],
            self.max_hops + 1,
        )

    def path(self, src: int, dst: int, rng=None) -> Path:
        """Sample without enumerating: draw the h LB digits directly."""
        self._check_pair(src, dst)
        gen = ensure_rng(rng)
        lb_digits = [int(gen.integers(self.schedule.radix)) for _ in range(self.schedule.h)]
        return Path(self._walk(src, dst, lb_digits))

    def expected_hops_uniform_limit(self) -> float:
        """Large-N limit of mean hops under uniform demand: 2h - o(1).

        Each of the 2h per-dimension hops is skipped with probability
        1/radix (LB digit equals current; destination digit equals
        current), so the mean is ``2h (1 - 1/radix)`` up to boundary terms.
        """
        sched = self.schedule
        return 2.0 * sched.h * (1.0 - 1.0 / sched.radix)
