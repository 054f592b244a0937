"""Oblivious routing schemes over circuit schedules.

All routers are *oblivious*: the path distribution for a (src, dst) pair is
fixed in advance and independent of instantaneous demand.  The semi-
oblivious design keeps this property — only the *schedule* adapts, on
control-plane timescales (paper section 4, "Routing").
"""

from .base import DrawRouter, Path, Router
from .failover import FailureAwareRouter
from .vlb import VlbRouter
from .sorn_routing import SornRouter
from .hierarchical_routing import HierarchicalSornRouter
from .multidim_routing import MultiDimRouter
from .opera_routing import OperaRouter
from .direct import DirectRouter
from .beyond_vlb import BeyondVlbRouter
from .mixed_pool_routing import MixedPoolRouter
from .paths import timed_vlb_route, timed_sorn_route, worst_case_intrinsic_latency

__all__ = [
    "DrawRouter",
    "Path",
    "Router",
    "FailureAwareRouter",
    "VlbRouter",
    "SornRouter",
    "HierarchicalSornRouter",
    "MultiDimRouter",
    "OperaRouter",
    "DirectRouter",
    "BeyondVlbRouter",
    "MixedPoolRouter",
    "timed_vlb_route",
    "timed_sorn_route",
    "worst_case_intrinsic_latency",
]
