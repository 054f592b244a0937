"""Memoized construction of schedules, routers, and traffic matrices.

Sweeps and benchmarks evaluate many points that share the same fabric:
the same clique layout, the same SORN schedule at the same q, the same
clustered traffic matrix.  Before this module every benchmark script and
sweep family rebuilt them per point — pure waste, since all of these
objects are immutable once constructed (their only internal mutation is
idempotent caching such as :meth:`repro.schedules.schedule.
CircuitSchedule.compiled`).  Each factory below is an
``functools.lru_cache``-memoized builder keyed on the construction
parameters, so repeated points share one instance per process.

Only *deterministic* construction is memoized here; anything seeded by a
live RNG (workload generation) stays with the caller.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

from ..analysis import optimal_q
from ..routing import (
    BeyondVlbRouter,
    DirectRouter,
    MixedPoolRouter,
    MultiDimRouter,
    OperaRouter,
    SornRouter,
    VlbRouter,
)
from ..schedules import (
    DemandAwareSchedule,
    ExpanderSchedule,
    MixedPoolSchedule,
    MultiDimSchedule,
    RoundRobinSchedule,
    build_sorn_schedule,
)
from ..topology import CliqueLayout
from ..traffic import clustered_matrix

__all__ = [
    "layout",
    "sorn_schedule",
    "sorn_router",
    "round_robin_schedule",
    "vlb_router",
    "multidim_schedule",
    "multidim_router",
    "expander_schedule",
    "opera_router",
    "clustered",
    "demand_aware_schedule",
    "direct_router",
    "beyond_vlb_router",
    "mixed_pool_schedule",
    "mixed_pool_router",
    "build_systems",
]


@lru_cache(maxsize=None)
def layout(num_nodes: int, num_cliques: int) -> CliqueLayout:
    """The equal-sized clique layout for (N, Nc), shared per process."""
    return CliqueLayout.equal(num_nodes, num_cliques)


@lru_cache(maxsize=None)
def sorn_schedule(num_nodes: int, num_cliques: int, q: float):
    """The SORN schedule at ratio *q* on the shared layout."""
    return build_sorn_schedule(
        num_nodes, num_cliques, q=q, layout=layout(num_nodes, num_cliques)
    )


@lru_cache(maxsize=None)
def sorn_router(num_nodes: int, num_cliques: int) -> SornRouter:
    """The hierarchical SORN router on the shared layout."""
    return SornRouter(layout(num_nodes, num_cliques))


@lru_cache(maxsize=None)
def round_robin_schedule(num_nodes: int) -> RoundRobinSchedule:
    """The flat 1D ORN round-robin schedule."""
    return RoundRobinSchedule(num_nodes)


@lru_cache(maxsize=None)
def vlb_router(num_nodes: int) -> VlbRouter:
    """The flat 2-hop VLB router."""
    return VlbRouter(num_nodes)


@lru_cache(maxsize=None)
def multidim_schedule(num_nodes: int, dims: int) -> MultiDimSchedule:
    """The d-dimensional optimal-ORN schedule."""
    return MultiDimSchedule(num_nodes, dims)


@lru_cache(maxsize=None)
def multidim_router(num_nodes: int, dims: int) -> MultiDimRouter:
    """The router over the shared d-dimensional schedule."""
    return MultiDimRouter(multidim_schedule(num_nodes, dims))


@lru_cache(maxsize=None)
def expander_schedule(num_nodes: int, degree: int, seed: int) -> ExpanderSchedule:
    """The Opera-style expander rotation schedule."""
    return ExpanderSchedule(num_nodes, degree, seed=seed)


@lru_cache(maxsize=None)
def opera_router(
    num_nodes: int, degree: int, seed: int, short_fraction: float = 0.75
) -> OperaRouter:
    """The Opera router over the shared expander schedule."""
    return OperaRouter(
        expander_schedule(num_nodes, degree, seed), short_fraction=short_fraction
    )


@lru_cache(maxsize=None)
def clustered(num_nodes: int, num_cliques: int, locality: float):
    """The clustered traffic matrix at *locality* on the shared layout."""
    return clustered_matrix(layout(num_nodes, num_cliques), locality)


@lru_cache(maxsize=None)
def demand_aware_schedule(
    num_nodes: int, num_cliques: int, locality: float, period: int
) -> DemandAwareSchedule:
    """The BvN demand-aware schedule for the shared clustered matrix."""
    return DemandAwareSchedule.from_demand(
        clustered(num_nodes, num_cliques, locality), period
    )


@lru_cache(maxsize=None)
def direct_router(num_nodes: int) -> DirectRouter:
    """The 1-hop direct router demand-aware schedules pair with."""
    return DirectRouter(num_nodes)


@lru_cache(maxsize=None)
def beyond_vlb_router(num_nodes: int, direct_fraction: float) -> BeyondVlbRouter:
    """The Wilson et al. beyond-VLB router at the given direct fraction."""
    return BeyondVlbRouter(num_nodes, direct_fraction)


@lru_cache(maxsize=None)
def mixed_pool_schedule(
    num_nodes: int,
    num_cliques: int,
    locality: float,
    static_planes: int = 1,
    rotor_planes: int = 1,
    demand_planes: int = 1,
    seed: int = 0,
) -> MixedPoolSchedule:
    """The Cerberus-style mixed-pool schedule over the clustered matrix."""
    return MixedPoolSchedule(
        num_nodes,
        static_planes=static_planes,
        rotor_planes=rotor_planes,
        demand_planes=demand_planes,
        demand=clustered(num_nodes, num_cliques, locality)
        if demand_planes > 0
        else None,
        seed=seed,
    )


@lru_cache(maxsize=None)
def mixed_pool_router(
    num_nodes: int,
    num_cliques: int,
    locality: float,
    static_planes: int = 1,
    rotor_planes: int = 1,
    demand_planes: int = 1,
    seed: int = 0,
) -> MixedPoolRouter:
    """The per-pool dispatch router over the shared mixed-pool schedule."""
    return MixedPoolRouter(
        mixed_pool_schedule(
            num_nodes,
            num_cliques,
            locality,
            static_planes,
            rotor_planes,
            demand_planes,
            seed,
        )
    )


def build_systems(
    num_nodes: int,
    num_cliques: int,
    locality: float,
    expander_degree: int = 8,
    expander_seed: int = 1,
) -> Dict[str, Tuple[object, object]]:
    """The four-system comparison table the benchmarks sweep.

    ``{label: (schedule, router)}`` for SORN (at ``q* = optimal_q(x)``),
    the flat 1D ORN, the 2D optimal ORN, and the Opera-style expander —
    all served from the memoized factories above.
    """
    return {
        "SORN": (
            sorn_schedule(num_nodes, num_cliques, optimal_q(locality)),
            sorn_router(num_nodes, num_cliques),
        ),
        "ORN 1D": (round_robin_schedule(num_nodes), vlb_router(num_nodes)),
        "ORN 2D": (multidim_schedule(num_nodes, 2), multidim_router(num_nodes, 2)),
        "Opera": (
            expander_schedule(num_nodes, expander_degree, expander_seed),
            opera_router(num_nodes, expander_degree, expander_seed),
        ),
    }
