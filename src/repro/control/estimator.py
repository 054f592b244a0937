"""Demand estimation at the control plane.

The paper's premise (section 3) is that *aggregated* traffic matrices —
between cliques of hundreds of machines — are stable and predictable over
hours, even though per-pair demand is bursty.  :class:`DemandEstimator`
implements the standard mechanism for exploiting that: an exponentially
weighted moving average over periodically observed matrices.  Both
adaptation loops read the locality off the estimate through
:func:`~repro.control.planner.plan_retune`.  The estimation-error
ablation A3 (``benchmarks/bench_estimation_error.py``) perturbs the
locality itself and calls nothing here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ControlPlaneError
from ..traffic.matrix import TrafficMatrix
from ..util import check_fraction

__all__ = ["DemandEstimator"]


class DemandEstimator:
    """EWMA estimator over observed traffic matrices.

    Parameters
    ----------
    num_nodes:
        Fabric size.
    alpha:
        EWMA weight of the newest observation (1.0 = last sample only).
    """

    def __init__(self, num_nodes: int, alpha: float = 0.3):
        if num_nodes < 2:
            raise ControlPlaneError("need at least 2 nodes")
        self.num_nodes = int(num_nodes)
        self.alpha = check_fraction(alpha, "alpha")
        if self.alpha == 0.0:
            raise ControlPlaneError("alpha must be positive (estimator must learn)")
        self._state: Optional[np.ndarray] = None
        self._observations = 0

    @property
    def observations(self) -> int:
        """How many matrices have been observed."""
        return self._observations

    def observe(self, matrix: TrafficMatrix) -> None:
        """Fold one observed matrix into the running estimate."""
        if matrix.num_nodes != self.num_nodes:
            raise ControlPlaneError(
                f"observed matrix covers {matrix.num_nodes} nodes, "
                f"expected {self.num_nodes}"
            )
        if self._state is None:
            self._state = matrix.rates.copy()
        else:
            self._state = (1.0 - self.alpha) * self._state + self.alpha * matrix.rates
        self._observations += 1

    def estimate(self) -> TrafficMatrix:
        """Current demand estimate; raises before any observation."""
        if self._state is None:
            raise ControlPlaneError("no observations yet")
        return TrafficMatrix(self._state)

    def reset(self) -> None:
        """Forget all history."""
        self._state = None
        self._observations = 0
