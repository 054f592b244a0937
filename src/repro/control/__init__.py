"""The semi-oblivious control plane.

The paper (section 5) envisions a logically centralized control plane that
periodically — minutes to hours — turns application-level signals into a
new circuit schedule: estimate aggregated demand, group nodes into cliques,
choose the oversubscription ratio, synthesize matchings, and push per-node
schedule updates.  Each stage lives in its own module:

- :mod:`estimator` — EWMA demand estimation
- :mod:`clustering` — balanced clique assignment from a demand graph
- :mod:`bvn` — Birkhoff-von-Neumann schedule synthesis from a target
  bandwidth matrix (the "Expressivity" machinery of section 5)
- :mod:`planner` — the shared q* decision step, drain-aware update plans
- :mod:`updates` — the dwell clock of synchronized updates and the
  mixed-state transient they avoid
- :mod:`runtime` — the closed adaptation loop: epoch-segmented simulation
  driving estimate → plan → update, with health states, validation,
  retry/backoff and an oblivious fallback (chaos-tested)
"""

from .estimator import DemandEstimator
from .clustering import balanced_cliques, demand_clustering_score
from .bvn import birkhoff_von_neumann, schedule_from_decomposition, sinkhorn_scale
from .planner import RetunePlan, UpdatePlan, plan_retune, plan_update
from .weighted import weighted_sorn_schedule, lift_clique_matching
from .placement import JobPlacement, PlacementReport, place_jobs
from .updates import UpdateCampaign, mixed_state_collision_fraction
from .runtime import (
    AdaptiveReport,
    AdaptiveSimulation,
    ChaosPolicy,
    ControllerState,
    EpochReport,
    RuntimeConfig,
    ScriptedChaos,
    validate_estimate,
)

__all__ = [
    "DemandEstimator",
    "balanced_cliques",
    "demand_clustering_score",
    "birkhoff_von_neumann",
    "schedule_from_decomposition",
    "sinkhorn_scale",
    "RetunePlan",
    "UpdatePlan",
    "plan_retune",
    "plan_update",
    "weighted_sorn_schedule",
    "lift_clique_matching",
    "JobPlacement",
    "PlacementReport",
    "place_jobs",
    "UpdateCampaign",
    "mixed_state_collision_fraction",
    "AdaptiveReport",
    "AdaptiveSimulation",
    "ChaosPolicy",
    "ControllerState",
    "EpochReport",
    "RuntimeConfig",
    "ScriptedChaos",
    "validate_estimate",
]
