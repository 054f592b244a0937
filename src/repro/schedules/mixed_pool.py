"""Cerberus-style mixed static/rotor/demand-aware switch pools.

Griner & Avin's Cerberus (arXiv 2010.13081) provisions a reconfigurable
fabric with three *pools* of optical switches and serves each traffic
class on the pool that suits it: latency-sensitive flows ride a static
expander, throughput-bound medium flows ride rotor switches running an
oblivious round-robin, and elephant flows get demand-aware direct
circuits.  This schedule realizes that partition at the plane level:
each uplink plane belongs to one pool and runs that pool's matching
sequence, so the planes are *not* offset copies of a single base
sequence (the generic :meth:`CircuitSchedule.compiled` build walks every
plane, so the engine and the invariant checker see each pool's own
matchings).

Pool semantics:

- ``static`` planes dwell on one rotation matching forever (a circulant
  expander over the chosen shifts; shift selection is seeded and the
  shift set is forced to generate Z_n so the static graph is strongly
  connected).
- ``rotor`` planes cycle round-robin through all n-1 rotations,
  staggered across the rotor planes like Sirius uplinks.
- ``demand`` planes run a :class:`DemandAwareSchedule` synthesized from
  the demand matrix via BvN, staggered across the demand planes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ScheduleError
from ..util import check_positive_int
from .demand_aware import DemandAwareSchedule
from .matching import Matching
from .schedule import CircuitSchedule

__all__ = ["MixedPoolSchedule"]

POOL_ORDER = ("static", "rotor", "demand")


class MixedPoolSchedule(CircuitSchedule):
    """Planes partitioned into static / rotor / demand-aware pools."""

    def __init__(
        self,
        num_nodes: int,
        static_planes: int = 1,
        rotor_planes: int = 1,
        demand_planes: int = 1,
        demand: Optional[np.ndarray] = None,
        demand_period: Optional[int] = None,
        seed: int = 0,
    ):
        for name, count in (
            ("static_planes", static_planes),
            ("rotor_planes", rotor_planes),
            ("demand_planes", demand_planes),
        ):
            if not isinstance(count, (int, np.integer)) or count < 0:
                raise ScheduleError(f"{name} must be a non-negative int, got {count!r}")
        total_planes = static_planes + rotor_planes + demand_planes
        if total_planes < 1:
            raise ScheduleError("at least one plane across the pools is required")
        num_nodes = check_positive_int(num_nodes, "num_nodes", minimum=2)
        if static_planes > num_nodes - 1:
            raise ScheduleError(
                f"static_planes={static_planes} needs distinct non-zero shifts; "
                f"only {num_nodes - 1} exist"
            )

        self._demand_schedule: Optional[DemandAwareSchedule] = None
        if demand_planes > 0:
            if demand is None:
                raise ScheduleError("demand_planes > 0 requires a demand matrix")
            if demand_period is None:
                demand_period = 2 * (num_nodes - 1)
            demand_period = check_positive_int(demand_period, "demand_period")
            self._demand_schedule = DemandAwareSchedule.from_demand(
                demand, demand_period
            )
            if self._demand_schedule.num_nodes != num_nodes:
                raise ScheduleError(
                    f"demand matrix covers {self._demand_schedule.num_nodes} "
                    f"nodes, expected {num_nodes}"
                )
        elif demand is not None:
            raise ScheduleError("demand given but demand_planes == 0")

        rotor_period = num_nodes - 1 if rotor_planes > 0 else 1
        period = rotor_period
        if self._demand_schedule is not None:
            period = math.lcm(period, self._demand_schedule.period)
        super().__init__(num_nodes, period, total_planes)

        self._counts: Dict[str, int] = {
            "static": int(static_planes),
            "rotor": int(rotor_planes),
            "demand": int(demand_planes),
        }
        self._seed = int(seed)
        self._static_shifts = self._pick_static_shifts(
            num_nodes, int(static_planes), self._seed
        )
        self._static_matchings: List[Matching] = [
            Matching.rotation(num_nodes, s) for s in self._static_shifts
        ]
        self._rotation_cache: Dict[int, Matching] = {
            s: m for s, m in zip(self._static_shifts, self._static_matchings)
        }

    @staticmethod
    def _pick_static_shifts(num_nodes: int, count: int, seed: int) -> Tuple[int, ...]:
        """Seeded distinct rotation shifts whose set generates Z_n.

        If the drawn shifts share a factor with n (the circulant graph
        would split into gcd components), the last shift is replaced with
        shift 1, which always restores strong connectivity.
        """
        if count == 0:
            return ()
        rng = np.random.default_rng(seed)
        shifts = list(1 + rng.permutation(num_nodes - 1)[:count])
        if math.gcd(*[int(s) for s in shifts], num_nodes) != 1 and 1 not in shifts:
            shifts[-1] = 1
        return tuple(sorted(int(s) for s in set(shifts)))

    # -- pool structure --------------------------------------------------------

    @property
    def pool_counts(self) -> Dict[str, int]:
        """Plane counts per pool, keyed ``static`` / ``rotor`` / ``demand``."""
        return dict(self._counts)

    @property
    def static_shifts(self) -> Tuple[int, ...]:
        """Rotation shifts the static planes dwell on (sorted)."""
        return self._static_shifts

    @property
    def demand_schedule(self) -> Optional[DemandAwareSchedule]:
        """The BvN schedule the demand planes run (None without a demand pool)."""
        return self._demand_schedule

    def pool_of(self, plane: int) -> str:
        """Which pool *plane* belongs to (static planes first, then rotor,
        then demand)."""
        if not 0 <= plane < self.num_planes:
            raise ScheduleError(f"plane {plane} out of range [0, {self.num_planes})")
        for pool in POOL_ORDER:
            if plane < self._counts[pool]:
                return pool
            plane -= self._counts[pool]
        raise ScheduleError("unreachable: plane not covered by any pool")

    def pool_planes(self, pool: str) -> List[int]:
        """Plane indices belonging to *pool*."""
        if pool not in POOL_ORDER:
            raise ScheduleError(f"unknown pool {pool!r}; expected one of {POOL_ORDER}")
        start = 0
        for name in POOL_ORDER:
            if name == pool:
                return list(range(start, start + self._counts[name]))
            start += self._counts[name]
        return []

    def demand_connected(self, src: int, dst: int) -> bool:
        """Whether the demand pool ever opens the circuit src -> dst."""
        if self._demand_schedule is None:
            return False
        return self._demand_schedule.pair_connected(src, dst)

    # -- schedule interface ----------------------------------------------------

    def _planes_are_offset_copies(self) -> bool:
        return False

    def matching(self, slot: int) -> Matching:
        return self.plane_matching(slot, 0)

    def plane_matching(self, slot: int, plane: int = 0) -> Matching:
        pool = self.pool_of(plane)
        index = plane - self.pool_planes(pool)[0]
        if pool == "static":
            return self._static_matchings[index]
        if pool == "rotor":
            n = self.num_nodes
            stagger = index * (n - 1) // self._counts["rotor"]
            shift = 1 + (slot + stagger) % (n - 1)
            cached = self._rotation_cache.get(shift)
            if cached is None:
                cached = Matching.rotation(n, shift)
                self._rotation_cache[shift] = cached
            return cached
        assert self._demand_schedule is not None
        dp = self._demand_schedule.period
        stagger = index * dp // self._counts["demand"]
        return self._demand_schedule.matching((slot + stagger) % dp)
