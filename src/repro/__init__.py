"""repro — reproduction of "Semi-Oblivious Reconfigurable Datacenter
Networks" (Saran et al., HotNets '24).

The library builds the paper's semi-oblivious reconfigurable network
(SORN) from scratch, together with every substrate it depends on: AWGR /
fast-OCS hardware models, oblivious baselines (Sirius-style 1D round
robin, h-dimensional optimal ORNs, Opera-style rotating expanders), a
slot-synchronous flow-level simulator, a fluid throughput solver, and the
semi-oblivious control plane (demand estimation, clique clustering, BvN
schedule synthesis, drain-aware updates).

Quickstart::

    from repro import Sorn
    sorn = Sorn.optimal(num_nodes=128, num_cliques=8, locality=0.56)
    print(sorn.model().describe())

Subpackage map (bottom-up):

- :mod:`repro.hardware`  — timing, AWGR, OCS layer
- :mod:`repro.schedules` — matchings and circuit-schedule families
- :mod:`repro.topology`  — clique layouts, virtual topologies, metrics
- :mod:`repro.routing`   — oblivious routing schemes
- :mod:`repro.traffic`   — matrices, flow sizes, workloads
- :mod:`repro.sim`       — fluid solver and slot simulator
- :mod:`repro.control`   — the semi-oblivious control plane
- :mod:`repro.core`      — SornDesign / SornModel / Sorn / AdaptationLoop
- :mod:`repro.analysis`  — Table 1 closed forms and Pareto tooling
"""

from .core import AdaptationLoop, AdaptationDecision, Sorn, SornDesign, SornModel
from .errors import (
    ConfigurationError,
    ControlPlaneError,
    DecompositionError,
    HardwareModelError,
    MatchingError,
    ReproError,
    RoutingError,
    ScheduleError,
    SimulationError,
    TrafficError,
)

__version__ = "1.0.0"

__all__ = [
    "Sorn",
    "SornDesign",
    "SornModel",
    "AdaptationLoop",
    "AdaptationDecision",
    "ReproError",
    "ConfigurationError",
    "ScheduleError",
    "MatchingError",
    "RoutingError",
    "TrafficError",
    "SimulationError",
    "ControlPlaneError",
    "DecompositionError",
    "HardwareModelError",
    "__version__",
]
