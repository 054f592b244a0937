"""Matchings and circuit schedules.

A *matching* connects input ports to output ports for one time slot; a
*circuit schedule* is a periodic sequence of matchings that all nodes follow
synchronously, emulating a static logical topology (paper section 2).  This
package provides the matching/schedule framework plus the four schedule
families the paper discusses:

- :mod:`round_robin` — flat 1D ORN (Sirius / RotorNet / Shoal family, Fig 1)
- :mod:`multidim` — h-dimensional optimal ORN (Amir et al.)
- :mod:`expander` — Opera-style rotating expander
- :mod:`sorn_schedule` — the paper's semi-oblivious clique schedule (Fig 2d-e)
"""

from .matching import Matching
from .schedule import CircuitSchedule, ExplicitSchedule
from .round_robin import RoundRobinSchedule
from .multidim import MultiDimSchedule
from .expander import ExpanderSchedule
from .hierarchical import HierarchicalSornSchedule
from .demand_aware import DemandAwareSchedule
from .mixed_pool import MixedPoolSchedule
from .sorn_schedule import (
    SornSchedule,
    build_sorn_schedule,
    figure2_topology_a,
    figure2_topology_b,
)
from .wavelength import WavelengthProgram, compile_wavelength_program

__all__ = [
    "Matching",
    "CircuitSchedule",
    "ExplicitSchedule",
    "RoundRobinSchedule",
    "MultiDimSchedule",
    "ExpanderSchedule",
    "HierarchicalSornSchedule",
    "DemandAwareSchedule",
    "MixedPoolSchedule",
    "SornSchedule",
    "build_sorn_schedule",
    "figure2_topology_a",
    "figure2_topology_b",
    "WavelengthProgram",
    "compile_wavelength_program",
]
