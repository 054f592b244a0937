"""The periodic adaptation loop (paper section 5, "Adapting the Topology").

One control-plane cycle:

1. **Observe** an aggregated traffic matrix (from schedulers / placement).
2. **Estimate** demand via EWMA smoothing.
3. **Cluster** nodes into cliques maximizing captured (intra) demand.
4. **Optimize** the oversubscription q for the estimated locality
   (:func:`repro.control.planner.plan_retune`, which the simulated
   runtime takes every epoch too).
5. **Plan** the schedule update and apply it only if the predicted
   throughput gain clears a hysteresis threshold (operators rate-limit
   reconfiguration; frequent churn costs more than mis-tuned q).

The loop never touches routing — SORN's routing scheme is structural, so
adaptation is purely a schedule rewrite (and drain-free whenever the
clique layout is unchanged).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..control.clustering import balanced_cliques
from ..control.estimator import DemandEstimator
from ..control.planner import RetunePlan, UpdatePlan, plan_retune
from ..errors import ControlPlaneError
from ..traffic.matrix import TrafficMatrix
from .design import SornDesign
from .sorn import Sorn

__all__ = ["AdaptationDecision", "AdaptationLoop"]


@dataclasses.dataclass(frozen=True)
class AdaptationDecision:
    """Outcome of one adaptation cycle.

    Attributes
    ----------
    applied:
        Whether the loop switched to a new deployment.
    reason:
        Human-readable justification (gain below threshold, layout change,
        q retune, ...).
    estimated_locality:
        x under the *candidate* layout for the current demand estimate,
        capped at :data:`~repro.control.planner.LOCALITY_CAP`.
    predicted_throughput / current_throughput:
        Worst-case throughput of candidate vs. incumbent on the estimate.
    update_plan:
        Schedule diff of the applied update; None when the predicted
        gain did not clear the threshold (no candidate is built then).
    """

    applied: bool
    reason: str
    estimated_locality: float
    predicted_throughput: float
    current_throughput: float
    update_plan: Optional[UpdatePlan]

    #: Relative throughput improvement the candidate offered.
    predicted_gain = RetunePlan.gain


class AdaptationLoop:
    """Stateful periodic adapter around a :class:`Sorn` deployment.

    Each :meth:`step` decides with the planner's capped step
    (:func:`~repro.control.planner.plan_retune`) and builds the candidate
    deployment and its update plan only when the gain clears the
    threshold.

    Parameters
    ----------
    initial:
        The deployment to start from.
    alpha:
        EWMA weight for demand estimation.
    gain_threshold:
        Minimum relative predicted throughput gain before an update is
        applied (hysteresis).
    recluster:
        Whether cycles may change the clique layout (otherwise only q is
        retuned on the fixed layout — always drain-free).
    """

    def __init__(
        self,
        initial: Sorn,
        alpha: float = 0.3,
        gain_threshold: float = 0.02,
        recluster: bool = True,
    ):
        if gain_threshold < 0:
            raise ControlPlaneError("gain_threshold must be non-negative")
        self.deployment = initial
        self.estimator = DemandEstimator(initial.design.num_nodes, alpha=alpha)
        self.gain_threshold = float(gain_threshold)
        self.recluster = bool(recluster)
        self.decisions: List[AdaptationDecision] = []

    def step(self, observed: TrafficMatrix) -> AdaptationDecision:
        """Run one adaptation cycle on a newly observed matrix."""
        self.estimator.observe(observed)
        estimate = self.estimator.estimate()
        incumbent = self.deployment
        nc = incumbent.design.num_cliques
        layout = (
            balanced_cliques(estimate, nc) if self.recluster else incumbent.layout
        )
        retune = plan_retune(
            estimate, incumbent.layout, incumbent.design.q, candidate_layout=layout
        )
        gain = retune.gain
        plan: Optional[UpdatePlan] = None
        if gain > self.gain_threshold:
            design = SornDesign(
                incumbent.design.num_nodes, nc, retune.q, retune.locality
            )
            self.deployment = Sorn(design, layout=layout, timing=incumbent.timing)
            plan = incumbent.update_plan(self.deployment)
            reason = (
                f"predicted gain {gain:.1%} exceeds threshold "
                f"{self.gain_threshold:.1%} ({plan.summary()})"
            )
        else:
            reason = f"predicted gain {gain:.1%} below threshold"
        decision = AdaptationDecision(
            applied=plan is not None,
            reason=reason,
            estimated_locality=retune.locality,
            predicted_throughput=retune.predicted_throughput,
            current_throughput=retune.current_throughput,
            update_plan=plan,
        )
        self.decisions.append(decision)
        return decision

    @property
    def updates_applied(self) -> int:
        """How many cycles actually reconfigured the network."""
        return sum(1 for d in self.decisions if d.applied)
