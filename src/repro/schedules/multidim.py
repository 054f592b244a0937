"""h-dimensional optimal ORN schedules (Amir et al., STOC 2022).

Nodes are identified with h-digit base-n numbers (``N = n**h``).  The
schedule interleaves dimensions at slot granularity: slot ``t`` serves
dimension ``t mod h`` with digit shift ``(t // h) mod (n-1) + 1``, i.e. the
matching connects each node to the node whose dimension-d digit is advanced
by the shift.  The period is ``h * (n - 1)`` slots.

With 2h-hop VLB routing (one load-balancing hop plus one direct hop per
dimension) this family realizes the Pareto-optimal tradeoff the paper cites:
worst-case latency ``O(h * N**(1/h))`` at worst-case throughput ``1/(2h)``.
For h=1 it degenerates to the flat round robin; for h=2 and N=4096 it is
the "Optimal ORN 2D" row of Table 1 (delta_m = 252 at 25 % throughput).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..errors import ConfigurationError, ScheduleError
from ..util import check_positive_int
from .matching import Matching
from .schedule import CircuitSchedule

__all__ = ["MultiDimSchedule"]


class MultiDimSchedule(CircuitSchedule):
    """Generalized-hypercube round-robin schedule with ``h`` dimensions.

    Parameters
    ----------
    num_nodes:
        Total node count; must be a perfect h-th power.
    h:
        Number of dimensions (``h = 1`` reduces to the flat round robin).
    """

    def __init__(self, num_nodes: int, h: int, num_planes: int = 1):
        num_nodes = check_positive_int(num_nodes, "num_nodes", minimum=2)
        h = check_positive_int(h, "h")
        radix = round(num_nodes ** (1.0 / h))
        # Guard against floating-point off-by-one around the integer root.
        for candidate in (radix - 1, radix, radix + 1):
            if candidate >= 2 and candidate ** h == num_nodes:
                radix = candidate
                break
        else:
            raise ConfigurationError(
                f"num_nodes={num_nodes} is not a perfect {h}-th power of an "
                f"integer radix >= 2"
            )
        self.h = h
        self.radix = radix
        super().__init__(num_nodes, period=h * (radix - 1), num_planes=num_planes)
        # Strides for digit arithmetic: digit d has stride radix**d.
        self._strides = np.array([radix ** d for d in range(h)], dtype=np.int64)

    # -- digit arithmetic ------------------------------------------------------

    def digits(self, node: int) -> List[int]:
        """Base-``radix`` digits of *node*, least-significant first."""
        if not 0 <= node < self._num_nodes:
            raise ScheduleError(f"node {node} out of range [0, {self._num_nodes})")
        out = []
        for _ in range(self.h):
            out.append(node % self.radix)
            node //= self.radix
        return out

    def from_digits(self, digits: List[int]) -> int:
        """Inverse of :meth:`digits`."""
        if len(digits) != self.h:
            raise ScheduleError(f"need {self.h} digits, got {len(digits)}")
        return int(sum(d * s for d, s in zip(digits, self._strides)))

    def advance_digit(self, node: int, dim: int, shift: int) -> int:
        """Node reached from *node* by advancing digit *dim* by *shift*."""
        digit = (node // int(self._strides[dim])) % self.radix
        new_digit = (digit + shift) % self.radix
        return int(node + (new_digit - digit) * self._strides[dim])

    # -- schedule ---------------------------------------------------------------

    def slot_dimension(self, slot: int) -> int:
        """Which dimension slot *slot* serves."""
        return (slot % self._period) % self.h

    def slot_shift(self, slot: int) -> int:
        """Digit shift (1..radix-1) slot *slot* applies within its dimension."""
        return ((slot % self._period) // self.h) % (self.radix - 1) + 1

    def matching(self, slot: int) -> Matching:
        dim = self.slot_dimension(slot)
        shift = self.slot_shift(slot)
        nodes = np.arange(self._num_nodes, dtype=np.int64)
        stride = int(self._strides[dim])
        digit = (nodes // stride) % self.radix
        dst = nodes + (((digit + shift) % self.radix) - digit) * stride
        return Matching(dst)

    def slots_for_hop(self, dim: int, shift: int) -> int:
        """Base-plane slot (within one period) serving (dim, shift)."""
        if not 0 <= dim < self.h:
            raise ScheduleError(f"dimension {dim} out of range [0, {self.h})")
        if not 1 <= shift < self.radix:
            raise ScheduleError(f"shift {shift} out of range [1, {self.radix})")
        return (shift - 1) * self.h + dim

    def max_wait_slots(self, src: int, dst: int) -> int:
        """Closed form for single-digit neighbors; falls back otherwise."""
        src_digits = self.digits(src)
        dst_digits = self.digits(dst)
        differing = [d for d in range(self.h) if src_digits[d] != dst_digits[d]]
        if len(differing) == 1:
            return self._period  # each (dim, shift) appears once per period
        return super().max_wait_slots(src, dst)

    @property
    def intrinsic_latency_slots(self) -> int:
        """delta_m for 2h-hop VLB routing: the h load-balancing hops are
        free, and each of the h direct hops waits at most one full period
        (``h * (radix - 1)`` slots), giving ``h**2 * (radix - 1)`` total.

        For h=2, N=4096 this is 4 * 63 = 252, matching Table 1.
        """
        return self.h * self._period

    def edge_fractions(self) -> Dict[Tuple[int, int], float]:
        """Closed form: each node faces its h*(radix-1) digit-neighbors once
        per period."""
        frac = 1.0 / self._period
        out: Dict[Tuple[int, int], float] = {}
        for node in range(self._num_nodes):
            for dim in range(self.h):
                for shift in range(1, self.radix):
                    out[(node, self.advance_digit(node, dim, shift))] = frac
        return out
